"""Fidelity-based metrics d(rho, sigma) = f(F(rho, sigma)).

Any decreasing f: [0,1] -> [0, inf) with f(1) = 0 generates a distance of
this family. Three are built in:

    angle            f(x) = arccos(sqrt(x))
    bures            f(x) = sqrt(2 - 2 sqrt(x))
    root-infidelity  f(x) = sqrt(1 - x)
"""

from __future__ import annotations

import enum

import numpy as np

from .config import clamp
from .errors import ValidationError
from .fidelity import fidelity
from .states import DensityMatrix

__all__ = [
    "MetricKind",
    "metric_kind",
    "f_of",
    "metric_distance",
]


class MetricKind(enum.Enum):
    ANGLE = "angle"
    BURES = "bures"
    ROOT_INFIDELITY = "root-infidelity"


def metric_kind(name: str) -> MetricKind:
    """Parse a CLI kind string; raises ValidationError on unknown names."""
    try:
        return MetricKind(name)
    except ValueError:
        valid = ", ".join(k.value for k in MetricKind)
        raise ValidationError(f"unknown metric {name!r} (valid: {valid})") from None


def f_of(kind: MetricKind, x):
    """Evaluate the generating function of ``kind`` at x in [0, 1].

    ``x`` may be a float, giving a float, or an array, giving the array of
    values; the domain guard applies to every element. A float is checked
    with plain comparisons and clamped to an ``np.float64``, which then
    takes the same kernel as an array.
    """
    y = _f(kind, clamp(x, "metric_domain_guard"))
    return float(y) if y.ndim == 0 else y


def _f(kind: MetricKind, x):
    """``f_of`` on an ``x`` already clamped to [0, 1], without the guard."""
    # x is clamped to [0, 1] and IEEE sqrt is monotone with sqrt(1) = 1, so
    # sqrt(x) <= 1 and both differences are >= 0: no further guard is needed.
    if kind is MetricKind.ANGLE:
        return np.arccos(np.sqrt(x))
    if kind is MetricKind.BURES:
        return np.sqrt(2.0 - 2.0 * np.sqrt(x))
    if kind is MetricKind.ROOT_INFIDELITY:
        return np.sqrt(1.0 - x)
    raise ValidationError(f"not a metric kind: {kind!r}")


def metric_distance(kind: MetricKind, rho: DensityMatrix, sigma: DensityMatrix):
    """d(rho, sigma) = f(F(rho, sigma)); stacks broadcast as in ``fidelity``."""
    return f_of(kind, fidelity(rho, sigma))

