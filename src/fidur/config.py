"""Centralized numerical tolerances and the one guard-band clamp.

Every tolerance used by the package lives in the one record ``TOL``, and
every value that round-off may push slightly outside its interval (F,
p_i, c, a metric argument, a boundary point) goes through ``clamp`` under
the name of its ``TOL`` field, so the guard bands stay consistent and
auditable. All values are absolute unless the field comment says otherwise.

Error budget, what an input band allows at an output: a trace 1 + d within
``trace_one`` moves P = max_i p_i by <= |d| (clamped to 1) and no longer moves
U = f(P) or the slack, whose 1 - P is that of the state normalized by its trace.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError


@dataclass(frozen=True)
class Tolerances:
    hermitian: float = 1e-10          # max element of |H - H^dag|
    psd_clamp: float = 1e-10          # negative eigenvalues summing below -psd_clamp: hard error
    trace_one: float = 1e-10          # |tr(rho) - 1|
    unit_norm: float = 1e-12          # pure-state normalization
    orthonormal: float = 1e-10        # |E^dag E - I| element-wise
    rank_cutoff: float = 1e-10        # eigenvalues above this count toward rank
    fidelity_guard: float = 1e-9      # admissible excursion of F outside [0, 1]
    probability_imag: float = 1e-10   # |Im <a|rho|a>|
    probability_clamp: float = 1e-9   # admissible excursion of p_i outside [0, 1]
    overlap_guard: float = 1e-9       # admissible excursion of c outside [1/sqrt(N), 1]
    metric_domain_guard: float = 1e-9 # admissible excursion of f's argument outside [0, 1]
    ur_slack: float = 1e-9            # default violation tolerance for UR checks
    domain_guard: float = 1e-9        # membership slack for feasibility domains


TOL = Tolerances()


def clamp(x, guard: str, lo: float = 0.0, hi: float = 1.0):
    """``x`` clamped to [lo, hi]; DomainError when any element lies more
    than ``TOL.<guard>`` outside it (nan and +-inf included), ValidationError
    unless it is real (a str, None, bool or ragged list is not). A float or
    a 0-d input gives an ``np.float64``, anything else a float64 array."""
    band = getattr(TOL, guard)
    # Both comparisons are false for nan, so nan and +-inf fail here too.
    if isinstance(x, float):
        if not lo - band <= x <= hi + band:
            raise DomainError(f"{x!r} outside [{lo!r}, {hi!r}] beyond {guard}")
        return np.float64(min(max(x, lo), hi))
    x = _numbers(x, guard)
    ok = (x >= lo - band) & (x <= hi + band)
    if not ok.all():
        raise DomainError(f"{float(x[~ok].flat[0])!r} outside [{lo!r}, {hi!r}] beyond {guard}")
    return np.minimum(np.maximum(x, lo), hi)


def _numbers(x, name: str, kinds: str = "iuf") -> np.ndarray:
    """``np.asarray(x)``, or ValidationError unless its dtype kind is one of
    ``kinds`` (real numbers by default): a str, None, dict, bool or object
    array, or a ragged nesting of lists, holds no numbers."""
    try:
        x = np.asarray(x)
    except ValueError:  # a ragged nesting of lists
        raise ValidationError(f"{name} takes numbers, got a ragged nesting") from None
    if x.dtype.kind not in kinds:
        real = "" if "c" in kinds else "real "
        raise ValidationError(f"{name} takes {real}numbers, got an array of {x.dtype}")
    return x
