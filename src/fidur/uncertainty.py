"""Maximum-probability uncertainty measures and the uncertainty relation
they satisfy.

For an observable A with eigenbasis {|a_i>} and a state rho, the outcome
probabilities are p_i = <a_i|rho|a_i> and P = max_i p_i in [1/N, 1]. The
uncertainty measure is U(A; rho) = f(P) for a decreasing f with f(1) = 0,
and for any two observables with eigenbasis overlap
c = max_ij |<a_i|b_j>| the relation

    U(A; rho) + U(B; rho) >= f(c^2)

holds for every state. With the angle kind this is the Landau-Pollak
inequality extended to mixed states: arccos sqrt(P_A) + arccos sqrt(P_B)
>= arccos c. ``check_ur`` evaluates one instance and reports the slack;
a negative slack beyond tolerance is a finding to surface, never an
exception, since for valid inputs it can only mean a numerical or
implementation bug.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import linalg
from .config import TOL, clamp
from .errors import DimensionMismatch, DomainError
from .metrics import MetricKind, _f, f_of
from .states import DensityMatrix, ProjectiveObservable, _check_dims

__all__ = [
    "URReport",
    "outcome_probabilities",
    "max_probability",
    "overlap",
    "report_from_probabilities",
    "check_ur",
]


@dataclass(frozen=True)
class URReport:
    """One evaluated instance of the uncertainty relation.

    slack = u_a + u_b - bound; the relation asserts slack >= 0 up to
    round-off. For the bures kind, dividing u_a, u_b and the bound by
    sqrt(2) restates the report in the equivalent pairwise-root
    normalization sqrt(1 - sqrt(P_A)) + sqrt(1 - sqrt(P_B)) >= sqrt(1 - c).
    Built from stacked inputs, every field is an array of one common
    shape, element i being the report of trial i.
    """

    p_max_a: float
    p_max_b: float
    u_a: float
    u_b: float
    overlap_c: float
    bound: float
    slack: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def outcome_probabilities(obs: ProjectiveObservable, rho: DensityMatrix) -> np.ndarray:
    """p_i = <a_i|rho|a_i> for every outcome, clamped to [0, 1].

    Stacked observables and/or states broadcast over their leading axes;
    the result has shape (..., N) and every member passes the same guards.
    The sum is not checked: the constructors' trace and orthonormality
    tolerances fix it, to about 1e-10 + N * 1e-10 of 1.
    """
    _check_dims(obs, rho)
    return _probabilities(obs.eigenbasis, rho.matrix)


def _probabilities(e: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``outcome_probabilities`` of validated eigenbases ``e`` and state
    matrices ``rho`` of one dimension whose leading axes broadcast."""
    p = (e.conj() * (rho @ e)).sum(axis=-2)
    imag = float(np.abs(p.imag).max())
    if imag > TOL.probability_imag:
        raise DomainError(f"outcome probability has imaginary part {imag:.3e}")
    return clamp(p.real, "probability_clamp")


def max_probability(obs: ProjectiveObservable, rho: DensityMatrix):
    """Largest outcome probability and its index (smallest index on ties).

    A (float, int) pair for a single observable and state; for stacks, the
    arrays of maxima and indices over the leading axes.
    """
    p = outcome_probabilities(obs, rho)
    i = np.argmax(p, axis=-1)
    top = np.max(p, axis=-1)
    if p.ndim == 1:
        return float(top), int(i)
    return top, i


def overlap(a: ProjectiveObservable, b: ProjectiveObservable):
    """c = max_ij |<a_i|b_j>|, in [1/sqrt(N), 1]; an array for stacks."""
    _check_dims(a, b)
    c = _overlap(a.eigenbasis, b.eigenbasis)
    return float(c) if c.ndim == 0 else c


def _overlap(ea: np.ndarray, eb: np.ndarray) -> np.ndarray:
    """``overlap`` of two validated eigenbases (or stacks) of one dimension."""
    c = np.abs(linalg.adjoint(ea) @ eb).max(axis=(-2, -1))
    # Valid bases keep c far above 1/sqrt(N), so only the upper guard is reachable.
    return clamp(c, "overlap_guard")


def report_from_probabilities(kind: MetricKind, p_max_a, p_max_b, c) -> URReport:
    """Assemble a URReport from already-measured quantities.

    Floats give a report of floats. Arrays broadcast against each other and
    give a report whose fields are arrays of the common shape, element i
    equal to the report of the floats at i.
    """
    arrays = [np.asarray(v, dtype=np.float64) for v in (p_max_a, p_max_b, c)]
    try:
        p_a, p_b, c = np.broadcast_arrays(*arrays)
    except ValueError:
        shapes = ", ".join(str(a.shape) for a in arrays)
        raise DimensionMismatch(f"shapes {shapes} do not broadcast") from None
    u_a, u_b, bound = f_of(kind, np.stack((p_a, p_b, c * c)))
    fields = (p_a, p_b, u_a, u_b, c, bound, u_a + u_b - bound)
    if c.ndim == 0:
        return URReport(*map(float, fields))
    return URReport(*fields)


def _slacks(kinds, p_a: np.ndarray, p_b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The slack of ``report_from_probabilities(kind, p_a, p_b, c)`` for each
    kind of ``kinds``, on a new last axis: every f is evaluated on one
    (p_a, p_b, c^2) stack, clamped once. The float64 arrays must broadcast."""
    shape = np.broadcast_shapes(p_a.shape, p_b.shape, c.shape)
    x = np.empty((3, *shape))
    x[0], x[1], x[2] = p_a, p_b, c * c
    x = clamp(x, "metric_domain_guard")
    slack = np.empty((*shape, len(kinds)))
    for k, kind in enumerate(kinds):
        u_a, u_b, bound = _f(kind, x)
        slack[..., k] = u_a + u_b - bound
    return slack


def check_ur(
    kind: MetricKind,
    a: ProjectiveObservable,
    b: ProjectiveObservable,
    rho: DensityMatrix,
) -> URReport:
    """Evaluate U(A;rho) + U(B;rho) >= f(c^2) for one (kind, A, B, rho)."""
    _check_dims(a, b)
    p_a, _ = max_probability(a, rho)
    p_b, _ = max_probability(b, rho)
    c = overlap(a, b)
    return report_from_probabilities(kind, p_a, p_b, c)
