"""Maximum-probability uncertainty measures and the uncertainty relation
they satisfy.

For an observable A with eigenbasis {|a_i>} and a state rho, the outcome
probabilities are p_i = <a_i|rho|a_i> and P = max_i p_i in [1/N, 1]. The
uncertainty measure is U(A; rho) = f(P) for a decreasing f with f(1) = 0,
and for any two observables with eigenbasis overlap c = max_ij |<a_i|b_j>|
the relation U(A; rho) + U(B; rho) >= f(c^2) holds for every state (with
the angle kind, the Landau-Pollak inequality extended to mixed states).

It is tight on a set of states and every f has infinite slope at 1, so it
is evaluated on complements, never on P or c^2: p_i = ||G^dag a_i||^2, a
sum of squares, for a factor G of the state (rho = G G^dag); 1 - P is the
sum of all p_i but the largest over the sum of all, which divides out the
trace; 1 - c^2 is the smallest such complement over the columns of
|A^dag B|^2. ``check_ur`` factors rho by its root and the sweep by its
sampled amplitudes; both, and ``report_from_probabilities``, take the
slack from ``_slacks``. P and c are formed, under ``probability_clamp``
and ``overlap_guard``, only where a public function reports them; a sweep
chunk forms just the complements, ratios in [0, 1 - 1/N] that need no guard.
A negative slack beyond tolerance is a finding, never an exception: for
valid inputs it means a bug.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import linalg
from .config import _numbers, clamp
from .errors import DimensionMismatch
from .metrics import MetricKind, _f
from .states import DensityMatrix, ProjectiveObservable, _check_dims, _expect

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
    """p_i = <a_i|rho|a_i> = ||sqrt(rho) a_i||^2 for every outcome, clamped to [0, 1].

    Stacked observables and/or states broadcast over their leading axes;
    the result has shape (..., N) and every member passes the same guard.
    The sum is not checked: the constructors' trace and orthonormality
    tolerances fix it, to about 1e-10 + N * 1e-10 of 1.
    """
    _expect(obs, ProjectiveObservable)
    _expect(rho, DensityMatrix)
    _check_dims(obs, rho)
    return clamp(_probabilities(linalg.adjoint(obs.eigenbasis), rho.sqrt), "probability_clamp")


def _probabilities(e_adj: np.ndarray, g: np.ndarray) -> np.ndarray:
    """p_i = ||G^dag e_i||^2 for the adjoints ``e_adj`` of eigenbases e and
    state factors ``g`` (N x K, rho = G G^dag) whose leading axes broadcast."""
    w = e_adj @ g
    return (w.real * w.real + w.imag * w.imag).sum(axis=-1)


def _complement(p: np.ndarray) -> np.ndarray:
    """1 - max p / sum p along the last axis, as (sum of p but its largest) / sum p."""
    return np.sort(p)[..., :-1].sum(axis=-1) / p.sum(axis=-1)


def _maxima(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P, 1 - P) of the probabilities ``p`` along the last axis, P under
    ``probability_clamp``."""
    return clamp(p.max(axis=-1), "probability_clamp"), _complement(p)


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
    for x in (a, b):
        _expect(x, ProjectiveObservable)
    _check_dims(a, b)
    c = _max_overlap(linalg.adjoint(a.eigenbasis) @ b.eigenbasis)
    return float(c) if c.ndim == 0 else c


def _max_overlap(x: np.ndarray) -> np.ndarray:
    """c = max |x_ij| of the overlap matrix (or stack) x = A^dag B of valid bases,
    which keep c far above 1/sqrt(N): only the upper guard is reachable."""
    return clamp(np.abs(x).max(axis=(-2, -1)), "overlap_guard")


def _overlap_complement(x: np.ndarray) -> np.ndarray:
    """1 - c^2 of the overlap matrix (or stack) x = A^dag B: column j of
    |x|^2 is the outcome distribution of |b_j> under A."""
    return _complement((x.real * x.real + x.imag * x.imag).swapaxes(-1, -2)).min(axis=-1)


def report_from_probabilities(kind: MetricKind, p_max_a, p_max_b, c) -> URReport:
    """Assemble a URReport from already-measured quantities.

    Floats give a report of floats. Arrays broadcast against each other and
    give a report whose fields are arrays of the common shape, element i
    equal to the report of the floats at i; u_a is ``f_of(kind, p_max_a)``.
    """
    c2 = np.square(_numbers(c, "overlap c"))
    y = [1.0 - clamp(x, "metric_domain_guard") for x in (p_max_a, p_max_b, c2)]
    return _report(kind, p_max_a, p_max_b, c, *y)


def _report(kind: MetricKind, *values) -> URReport:
    """The URReport of (P_A, P_B, c, 1 - P_A, 1 - P_B, 1 - c^2), broadcast together."""
    arrays = [np.asarray(v, dtype=np.float64) for v in values]
    try:
        p_a, p_b, c, *y = np.broadcast_arrays(*arrays)
    except ValueError:
        shapes = ", ".join(str(a.shape) for a in arrays[:3])
        raise DimensionMismatch(f"shapes {shapes} do not broadcast") from None
    u_a, u_b, bound, slack = (t[..., 0] for t in _slacks((kind,), np.stack(y)))
    fields = (p_a, p_b, u_a, u_b, c, bound, slack)
    return URReport(*map(float, fields)) if c.ndim == 0 else URReport(*fields)


def _slacks(kinds, y: np.ndarray) -> tuple:
    """(u_a, u_b, bound, slack) for each kind of ``kinds`` on a new last axis,
    from the complements ``y`` = (1 - P_A, 1 - P_B, 1 - c^2) on a first axis."""
    u = np.empty((*y.shape, len(kinds)))
    for k, kind in enumerate(kinds):
        u[..., k] = _f(kind, y)
    return u[0], u[1], u[2], u[0] + u[1] - u[2]


def check_ur(
    kind: MetricKind,
    a: ProjectiveObservable,
    b: ProjectiveObservable,
    rho: DensityMatrix,
) -> URReport:
    """Evaluate U(A;rho) + U(B;rho) >= f(c^2) for one (kind, A, B, rho), with
    the probabilities of the factor sqrt(rho)."""
    for x, cls in ((a, ProjectiveObservable), (b, ProjectiveObservable), (rho, DensityMatrix)):
        _expect(x, cls)
    for x, z in ((a, b), (a, rho), (b, rho)):
        _check_dims(x, z)
    g = rho.sqrt
    a_adj, b_adj = (linalg.adjoint(x.eigenbasis) for x in (a, b))
    (p_a, y_a), (p_b, y_b) = (_maxima(_probabilities(e, g)) for e in (a_adj, b_adj))
    x = a_adj @ b.eigenbasis
    c, y_c = _max_overlap(x), _overlap_complement(x)
    return _report(kind, p_a, p_b, c, y_a, y_b, y_c)
