"""Dense complex Hermitian linear algebra kernel, and the one place that
decides what a valid Hermitian positive semidefinite matrix is.

All higher-level quantities reduce to two operations on small dense
complex128 arrays: the LAPACK-backed Hermitian eigendecomposition
(numpy.linalg.eigh, deterministic for a fixed input; of a matrix or a
stack ``(..., N, N)``), and the principal PSD square root of one matrix.
States and raw matrices share one set of internal checks:
``as_complex_stack`` coerces, ``hermitian_part`` tests Hermiticity and
symmetrizes, ``check_psd`` tests ascending eigenvalues (of a state once,
when it is built) and ``eigensolve`` maps a solver failure to
NoConvergence. Their tolerances are those of ``fidur.config.TOL``.
``array_shape`` is the one size check for the arrays the samplers and
the region grid build.
"""

from __future__ import annotations

import math

import numpy as np

from .config import TOL
from .errors import DimensionMismatch, NoConvergence, NotHermitian, NotPSD, ValidationError

_EPS = float(np.finfo(np.float64).eps)

__all__ = ["as_complex_stack", "hermitian_eig", "psd_sqrt"]


def array_shape(*shape: int) -> tuple:
    """``shape``, or ValidationError when a complex128 array of that shape
    would hold more bytes than numpy can index."""
    if math.prod(map(int, shape)) * 16 > np.iinfo(np.intp).max:
        raise ValidationError("requested size is too large for one array")
    return shape


def as_complex_stack(m) -> np.ndarray:
    """Coerce ``m`` to a nonempty complex128 stack ``(..., N, N)`` of square
    matrices with finite entries; a single matrix is the stack with no
    leading axes."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {a.shape}")
    if a.size == 0:
        raise ValidationError(f"expected nonempty matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix entries must be finite")
    return a


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^dag) / 2 of a coerced stack ``a``, whose every member must be
    Hermitian within ``TOL.hermitian`` (max element of |A - A^dag|), else
    NotHermitian. Solving the symmetrized matrix keeps round-off in the
    input from leaking into complex eigenvalues."""
    h = adjoint(a)
    deviation = float(np.abs(a - h).max())
    if deviation > TOL.hermitian:
        raise NotHermitian(f"matrix deviates from Hermitian by {deviation:.3e}")
    return (a + h) / 2


def check_psd(w: np.ndarray) -> np.ndarray:
    """Return the ascending eigenvalues ``w`` (a vector or a stack ``(..., N)``), or
    raise NotPSD if any member's negative ones sum below ``-TOL.psd_clamp``. That keeps
    lambda_max <= tr + psd_clamp at any N, so p_i and F stay inside their guards."""
    floor = -TOL.psd_clamp
    lowest = float(w[0]) if w.ndim == 1 else float(w[..., 0].min())
    # N * lowest bounds the sum of the negative ones from below; sum them only past it.
    if lowest * w.shape[-1] < floor and np.minimum(w, 0.0).sum(axis=-1).min() < floor:
        raise NotPSD(f"negative eigenvalues sum below {floor:.0e}")
    return w


def eigensolve(solver, h: np.ndarray):
    """``solver(h)`` for a numpy Hermitian eigensolver (``np.linalg.eigh``
    or ``np.linalg.eigvalsh``), with a LAPACK failure raised as
    NoConvergence."""
    try:
        return solver(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigendecomposition failed: {exc}") from exc


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(w, v)`` of a Hermitian matrix or stack.

    Eigenvalues come back ascending, eigenvector columns in lockstep; the
    input is checked and symmetrized by ``hermitian_part`` first.
    """
    return eigensolve(np.linalg.eigh, hermitian_part(as_complex_stack(h)))


def psd_sqrt(m) -> np.ndarray:
    """Principal square root of a positive semidefinite matrix.

    Negative eigenvalues summing below ``-TOL.psd_clamp`` raise NotPSD;
    anything below the noise floor N*eps*lambda_max (the usual numerical
    rank cutoff) is treated as an exact zero before the square root. The
    floor matters: an eigenvalue that is pure round-off (~1e-16) would
    otherwise contribute ~1e-8 to the root and wreck downstream tolerances.
    """
    a = as_complex_stack(m)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a single matrix, got shape {a.shape}")
    w, v = eigensolve(np.linalg.eigh, hermitian_part(a))
    return _psd_root(check_psd(w), v)


def _psd_root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The root ``psd_sqrt`` builds from the eigenpairs ``(w, v)`` (ascending
    ``w``) of the Hermitian part of a matrix judged PSD already: by
    ``psd_sqrt``, or by ``DensityMatrix`` when the state was built."""
    # With lambda_max <= 0 the floor lies above every eigenvalue, so all of
    # them are zeroed.
    w = np.where(w < w.size * _EPS * float(w[-1]), 0.0, w)
    s = (v * np.sqrt(w)) @ adjoint(v)
    return (s + adjoint(s)) / 2

