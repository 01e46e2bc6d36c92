"""Fidelity-based metrics d(rho, sigma) = f(F(rho, sigma)).

Any decreasing f: [0,1] -> [0, inf) with f(1) = 0 generates a distance of
this family. Three are built in, each evaluated in y = 1 - x:

    angle            f(x) = arccos(sqrt(x))      = arcsin(sqrt(y))
    bures            f(x) = sqrt(2 - 2 sqrt(x))  = sqrt(2y / (1 + sqrt(1 - y)))
    root-infidelity  f(x) = sqrt(1 - x)          = sqrt(y)
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
    takes the same kernel as an array: f of the complement 1 - x.
    """
    y = _f(kind, 1.0 - clamp(x, "metric_domain_guard"))
    return float(y) if y.ndim == 0 else y


def _f(kind: MetricKind, y):
    """f of ``kind`` at x = 1 - y for y in [0, 1], keeping the relative
    accuracy of a small y that forming x would round away."""
    if kind is MetricKind.ANGLE:
        return np.arcsin(np.sqrt(y))
    if kind is MetricKind.BURES:
        return np.sqrt(2.0 * y / (1.0 + np.sqrt(1.0 - y)))
    if kind is MetricKind.ROOT_INFIDELITY:
        return np.sqrt(y)
    raise ValidationError(f"not a metric kind: {kind!r}")


def metric_distance(kind: MetricKind, rho: DensityMatrix, sigma: DensityMatrix):
    """d(rho, sigma) = f(F(rho, sigma)), F clamped already; stacks broadcast as in ``fidelity``."""
    y = _f(kind, 1.0 - fidelity(rho, sigma))
    return float(y) if y.ndim == 0 else y
