"""Dense complex Hermitian linear algebra kernel.

All higher-level quantities in this package reduce to three operations on
small dense matrices: the Hermitian eigendecomposition, the principal
square root of a positive semidefinite matrix, and the nuclear norm. The
eigendecomposition is LAPACK-backed (numpy.linalg.eigh), which is
deterministic for a fixed input and keeps the Monte Carlo sweeps fast.

A matrix here is a plain square numpy array of complex128; ``ComplexMatrix``
is an alias, not a wrapper type.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import TOL
from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    NotPSD,
    ValidationError,
)

ComplexMatrix = np.ndarray

_EPS = float(np.finfo(np.float64).eps)

__all__ = [
    "ComplexMatrix",
    "EigenDecomposition",
    "as_complex_stack",
    "as_complex_matrix",
    "hermitian_eig",
    "psd_sqrt",
    "nuclear_norm",
]


def as_complex_stack(m) -> np.ndarray:
    """Coerce ``m`` to a complex128 stack ``(..., N, N)`` of square matrices
    with finite entries; a single matrix is the stack with no leading axes."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix entries must be finite")
    return a


def as_complex_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a square complex128 array with finite entries."""
    a = as_complex_stack(m)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


class EigenDecomposition(NamedTuple):
    """Eigenvalues in ascending order with eigenvectors as matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(h) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    The input must be Hermitian within ``TOL.hermitian`` (max element of
    |H - H^dag|); it is symmetrized before the solve so round-off in the
    input cannot leak into complex eigenvalues. Eigenvalues come back
    ascending, eigenvector columns in lockstep.
    """
    a = as_complex_matrix(h)
    if a.size and float(np.abs(a - a.conj().T).max()) > TOL.hermitian:
        raise NotHermitian(
            f"matrix deviates from Hermitian by {float(np.abs(a - a.conj().T).max()):.3e}"
        )
    try:
        w, v = np.linalg.eigh((a + a.conj().T) / 2)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigendecomposition failed: {exc}") from exc
    return EigenDecomposition(w, v)


def psd_sqrt(m, noise_floor: float | None = None) -> np.ndarray:
    """Principal square root of a positive semidefinite matrix.

    Eigenvalues below ``-TOL.psd_clamp`` raise NotPSD; anything below the
    noise floor is treated as an exact zero before the square root. The
    floor matters: an eigenvalue that is pure round-off (~1e-16) would
    otherwise contribute ~1e-8 to the root and wreck downstream
    tolerances. By default the floor is N*eps*lambda_max (the usual
    numerical-rank cutoff); callers that know the absolute scale of their
    operands may pass a tighter absolute floor.
    """
    w, v = hermitian_eig(m)
    return _psd_root(w, v, noise_floor)


def _psd_root(w: np.ndarray, v: np.ndarray, noise_floor: float | None = None) -> np.ndarray:
    """The root ``psd_sqrt`` builds from the eigenpairs ``(w, v)`` (ascending
    ``w``) of the Hermitian part of a checked matrix; ``DensityMatrix.sqrt``
    passes the pairs its validation already computed."""
    if w.size and float(w[0]) < -TOL.psd_clamp:
        raise NotPSD(f"eigenvalue {float(w[0]):.3e} below -{TOL.psd_clamp:.0e}")
    if noise_floor is None:
        noise_floor = w.size * _EPS * max(float(w[-1]), 0.0) if w.size else 0.0
    w = np.where(w < max(noise_floor, 0.0), 0.0, w)
    s = (v * np.sqrt(w)) @ v.conj().T
    return (s + s.conj().T) / 2


def nuclear_norm(m, noise_floor: float = 0.0) -> float:
    """Nuclear (trace) norm: the sum of singular values of ``m``.

    Computed as the sum of square roots of the eigenvalues of M^dag M.
    Negative round-off eigenvalues are clamped to zero; by default no
    further flooring is applied, so tiny genuine singular values are kept
    and ``nuclear_norm(M) >= |tr M|`` holds without tolerance.
    """
    a = as_complex_matrix(m)
    g = a.conj().T @ a
    g = (g + g.conj().T) / 2
    try:
        w = np.linalg.eigvalsh(g)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigendecomposition failed: {exc}") from exc
    w = np.where(w < max(noise_floor, 0.0), 0.0, w)
    return float(np.sum(np.sqrt(w)))

