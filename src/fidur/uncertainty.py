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
from .errors import DomainError
from .metrics import MetricKind, f_of
from .states import DensityMatrix, ProjectiveObservable, _check_dims

__all__ = [
    "URReport",
    "outcome_probabilities",
    "max_probability",
    "overlap",
    "uncertainty_measure",
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
    """
    _check_dims(obs, rho)
    e = obs.eigenbasis
    p = (e.conj() * (rho.matrix @ e)).sum(axis=-2)
    imag = float(np.abs(p.imag).max())
    if imag > TOL.probability_imag:
        raise DomainError(f"outcome probability has imaginary part {imag:.3e}")
    p = p.real
    total = p.sum(axis=-1)
    off = np.abs(total - 1.0) > TOL.probability_sum
    if off.any():
        raise DomainError(f"probabilities sum to {float(total[off].flat[0])!r}, not 1")
    return clamp(p, "probability_clamp")


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
    c = np.abs(linalg.adjoint(a.eigenbasis) @ b.eigenbasis).max(axis=(-2, -1))
    # Valid bases keep c far above 1/sqrt(N), so only the upper guard is reachable.
    c = clamp(c, "overlap_guard")
    return float(c) if c.ndim == 0 else c


def uncertainty_measure(kind: MetricKind, obs: ProjectiveObservable, rho: DensityMatrix) -> float:
    """U(A; rho) = f(max_i p_i)."""
    value, _ = max_probability(obs, rho)
    return f_of(kind, value)


def report_from_probabilities(kind: MetricKind, p_max_a, p_max_b, c) -> URReport:
    """Assemble a URReport from already-measured quantities.

    Floats give a report of floats. Arrays broadcast against each other and
    give a report whose fields are arrays of the common shape, element i
    equal to the report of the floats at i.
    """
    c = np.asarray(c, dtype=np.float64)
    u_a = f_of(kind, p_max_a)
    u_b = f_of(kind, p_max_b)
    bound = f_of(kind, c * c)
    fields = (p_max_a, p_max_b, u_a, u_b, c, bound, u_a + u_b - bound)
    if all(np.ndim(v) == 0 for v in fields):
        return URReport(*(float(v) for v in fields))
    return URReport(*np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in fields)))


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
