"""Feasibility domains for pairs of maximum probabilities.

For metric kind lambda and overlap c, the uncertainty relation confines
(P_A, P_B) to

    D_{lambda,c} = {(P_A, P_B) in [1/N, 1]^2 : P_B <= g_{lambda,c}(P_A)},

where g is 1 on the flat branch [1/N, c^2] and a closed-form h on the
curved branch [c^2, 1]:

    angle            h(p) = (sqrt(1-p) sqrt(1-c^2) + c sqrt(p))^2
    bures            h(p) = (sqrt(p) + 2 sqrt(1-sqrt(p)) sqrt(1-c) + c - 1)^2
    root-infidelity  h(p) = p + 2 sqrt(1-p) sqrt(1-c^2) + c^2 - 1

An independent route to the same boundary solves the relation as a
quadratic xi^2 + a1*xi + a0 >= 0 in a substitution variable xi(P_B):

    angle            xi = sqrt(1-P_B),           a1 = 2 c sqrt(1-P_A),        a0 = c^2 - P_A
    root-infidelity  xi = sqrt(1-P_B),           a1 = 2 sqrt(1-P_A),          a0 = c^2 - P_A
    bures            xi = sqrt(2-2 sqrt(P_B)),   a1 = 2 sqrt(2-2 sqrt(P_A)),  a0 = 2 (c - sqrt(P_A))

The bures coefficients follow from substituting xi into
sqrt(1-sqrt(P_A)) + sqrt(1-sqrt(P_B)) >= sqrt(1-c) and expanding; note
a0 depends on P_A only, as it must for a one-variable quadratic in
xi(P_B). The admissible xi is at most the positive root xi_plus, and
inverting the substitution at xi_plus reproduces h exactly; both routes
are exposed and cross-asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .config import TOL, clamp
from .errors import DomainError, ValidationError
from .metrics import MetricKind

__all__ = [
    "DomainSpec",
    "QuadraticForm",
    "h_boundary",
    "g_boundary",
    "in_domain",
    "quadratic_form",
    "boundary_from_quadratic",
    "region_samples",
    "region_csv_text",
    "region_filename",
]


def _check_kind(kind) -> MetricKind:
    if not isinstance(kind, MetricKind):
        raise ValidationError("domain boundaries exist only for the named metric kinds")
    return kind


@dataclass(frozen=True)
class DomainSpec:
    """One feasibility domain: metric kind, overlap, and dimension."""

    kind: MetricKind
    overlap_c: float
    dim: int

    def __post_init__(self):
        _check_kind(self.kind)
        dim = linalg._integer("dim", self.dim)
        if dim < 2:
            raise ValidationError("dimension must be at least 2")
        c = linalg._real("overlap", self.overlap_c)
        try:
            lo = 1.0 / math.sqrt(dim) - TOL.overlap_guard
        except OverflowError:
            raise ValidationError("dimension is too large") from None
        if not lo <= c <= 1.0 + TOL.overlap_guard:
            raise ValidationError(
                f"overlap {c!r} outside [1/sqrt({dim}), 1]"
            )
        object.__setattr__(self, "overlap_c", c)


@dataclass(frozen=True)
class QuadraticForm:
    """The quadratic xi^2 + a1*xi + a0 with its substitution variable.

    ``xi`` is the substitution evaluated at the P_B that was passed in
    (see the module docstring for each kind's substitution). The lower root
    xi_minus is never positive on admissible inputs, so the stable
    evaluation of the upper root is a0 / xi_minus.
    """

    a1: float
    a0: float
    xi: float

    def discriminant(self) -> float:
        return self.a1 * self.a1 - 4.0 * self.a0

    def roots(self) -> tuple[float, float]:
        """(xi_minus, xi_plus), computed without cancellation."""
        disc = self.discriminant()
        if disc < -1e-12:
            raise DomainError(f"negative discriminant {disc!r}")
        s = math.sqrt(max(disc, 0.0))
        xi_minus = -(self.a1 + s) / 2.0
        xi_plus = self.a0 / xi_minus if xi_minus != 0.0 else 0.0
        return xi_minus, xi_plus


def _check_c(c: float) -> float:
    c = linalg._real("overlap", c)
    if not 0.0 < c <= 1.0 + TOL.overlap_guard:
        raise DomainError(f"overlap {c!r} outside (0, 1]")
    return min(c, 1.0)


def _h(kind: MetricKind, c: float, p: np.ndarray) -> np.ndarray:
    """The curved-branch formula, elementwise on ``p`` clamped to [0, 1]."""
    if kind is MetricKind.ANGLE:
        base = np.sqrt(1.0 - p) * math.sqrt(1.0 - c * c) + c * np.sqrt(p)
        h = base * base
    elif kind is MetricKind.BURES:
        base = np.sqrt(p) + 2.0 * np.sqrt(1.0 - np.sqrt(p)) * math.sqrt(1.0 - c) + c - 1.0
        h = base * base
    else:
        h = p + 2.0 * np.sqrt(1.0 - p) * math.sqrt(1.0 - c * c) + c * c - 1.0
    return clamp(h, "domain_guard")


def h_boundary(kind: MetricKind, c: float, p):
    """Curved-branch boundary h_{kind,c}(p) on p in [c^2, 1], clamped to [0, 1].

    ``p`` may be a float, giving a float, or an array, giving the array of
    values. p is clamped to [c^2, 1]; beyond the guard band (nan and +-inf
    included) it raises ``DomainError``, since h covers the curved branch only.
    """
    _check_kind(kind)
    c = _check_c(c)
    h = _h(kind, c, clamp(p, "domain_guard", c * c))
    return float(h) if h.ndim == 0 else h


def g_boundary(kind: MetricKind, c: float, p, dim: int):
    """Full boundary: 1 on the flat branch [1/N, c^2], h on [c^2, 1].

    ``p`` may be a float or an array, as for ``h_boundary``, and is clamped
    to [1/N, 1] under the same guard. Flat points are masked to 1, so h's
    narrower [c^2, 1] check never sees them.
    """
    _check_kind(kind)
    c = _check_c(c)
    if linalg._integer("dim", dim) < 2:
        raise DomainError("dimension must be at least 2")
    p = clamp(p, "domain_guard", 1.0 / dim)
    g = np.where(p <= c * c, 1.0, _h(kind, c, p))
    return float(g) if g.ndim == 0 else g


def in_domain(kind: MetricKind, c: float, dim: int, p_a: float, p_b: float) -> bool:
    """Whether (p_a, p_b) lies in D_{kind,c} up to the membership guard."""
    p_a, p_b = linalg._real("p_a", p_a), linalg._real("p_b", p_b)
    if linalg._integer("dim", dim) < 2:
        return False
    lo = 1.0 / dim - TOL.domain_guard
    hi = 1.0 + TOL.domain_guard
    if not (lo <= p_a <= hi and lo <= p_b <= hi):
        return False
    try:
        g = g_boundary(kind, c, p_a, dim)
    except DomainError:
        return False
    return p_b <= g + TOL.domain_guard


def quadratic_form(kind: MetricKind, c: float, p_a: float, p_b: float) -> QuadraticForm:
    """Coefficients and substitution value of the boundary quadratic."""
    _check_kind(kind)
    c = _check_c(c)
    p_a = float(clamp(linalg._real("p_a", p_a), "domain_guard"))
    p_b = float(clamp(linalg._real("p_b", p_b), "domain_guard"))
    if kind is MetricKind.ANGLE:
        return QuadraticForm(
            a1=2.0 * c * math.sqrt(1.0 - p_a),
            a0=c * c - p_a,
            xi=math.sqrt(1.0 - p_b),
        )
    if kind is MetricKind.ROOT_INFIDELITY:
        return QuadraticForm(
            a1=2.0 * math.sqrt(1.0 - p_a),
            a0=c * c - p_a,
            xi=math.sqrt(1.0 - p_b),
        )
    return QuadraticForm(
        a1=2.0 * math.sqrt(2.0 - 2.0 * math.sqrt(p_a)),
        a0=2.0 * (c - math.sqrt(p_a)),
        xi=math.sqrt(2.0 - 2.0 * math.sqrt(p_b)),
    )


def boundary_from_quadratic(kind: MetricKind, c: float, p_a: float) -> float:
    """The P_B bound obtained by solving the quadratic, independent of h.

    The admissible xi runs up to the positive root xi_plus (clamped at 0
    when p_a <= c^2, where the quadratic imposes nothing); inverting the
    substitution turns the xi cap into a P_B cap.
    """
    _check_kind(kind)
    c = _check_c(c)
    q = quadratic_form(kind, c, clamp(linalg._real("p_a", p_a), "domain_guard", c * c), 1.0)
    _, xi_plus = q.roots()
    xi_plus = max(xi_plus, 0.0)
    if kind is MetricKind.BURES:
        p_b = (1.0 - xi_plus * xi_plus / 2.0) ** 2
    else:
        p_b = 1.0 - xi_plus * xi_plus
    return float(clamp(p_b, "domain_guard"))


def region_samples(spec: DomainSpec, n_points: int) -> np.ndarray:
    """(p, g(p)) pairs on a uniform p-grid over [1/N, 1], as an (n, 2) array."""
    (n_points,) = linalg.array_shape(n_points)
    if n_points < 2:
        raise DomainError("n_points must be at least 2")
    p = np.linspace(1.0 / spec.dim, 1.0, n_points)
    return np.column_stack([p, g_boundary(spec.kind, spec.overlap_c, p, spec.dim)])


def region_csv_text(samples: np.ndarray) -> str:
    """CSV with header ``p,g``; floats printed in shortest round-trip form."""
    return "p,g\n" + "".join(f"{p!r},{g!r}\n" for p, g in samples.tolist())


def region_filename(kind: MetricKind, c: float) -> str:
    """Canonical file name for one (kind, c) boundary: region_<kind>_<c>.csv."""
    return f"region_{kind.value}_{float(c)!r}.csv"
