"""Dense complex Hermitian linear algebra kernel, and the one place that
decides what a valid Hermitian positive semidefinite matrix is.

All higher-level quantities reduce to two operations on small dense
complex128 arrays: the LAPACK-backed Hermitian eigendecomposition (of a
matrix or a stack ``(..., N, N)``, deterministic for a fixed input), and
the principal PSD square root of one matrix.
States, observables and raw matrices share one set of internal checks:
``as_complex_stack`` copies, ``hermitian_part`` tests Hermiticity and
symmetrizes, ``check_psd`` tests ascending eigenvalues (of a state once,
when it is built). Their tolerances are those of ``fidur.config.TOL``.
``array_shape`` is the one size check for the arrays the samplers and
the region grid build, ``_integer`` and ``_real`` the one integer and real checks.

Every LAPACK call of the package goes through this module, and a solver
failure is NoConvergence everywhere. ``eigensolve`` and ``qr_unitary``
call numpy's LAPACK gufuncs (``numpy.linalg._umath_linalg``: ``eigh_lo``,
``eigvalsh_lo``, ``qr_r_raw``, ``qr_reduced``) directly, under the
floating-point error state ``numpy.linalg`` itself uses, so they give the
bits of ``np.linalg.eigh``, ``eigvalsh`` and ``qr`` without their
per-call wrapper; no other module imports ``_umath_linalg``.
``singular_values`` stays on ``np.linalg.svd``, whose gufunc name
differs between numpy versions.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np
from numpy.linalg import _umath_linalg

from .config import TOL, _numbers
from .errors import DimensionMismatch, NoConvergence, NotHermitian, NotPSD, ValidationError

_EPS = float(np.finfo(np.float64).eps)
_INTP_MAX = int(np.iinfo(np.intp).max)

__all__ = ["as_complex_stack", "hermitian_eig", "psd_sqrt"]


def _integer(name: str, value) -> int:
    """``value`` as an int; booleans and non-integral numbers are rejected."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(f"{name} must be an integer, got {value!r}")


def _real(name: str, value) -> float:
    """``value`` as a float, booleans and non-reals rejected; an int beyond
    the float range reads as +-inf, which every range check rejects."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def array_shape(*shape: int) -> tuple:
    """``shape`` as ints, or ValidationError when an entry is not an integer or
    a complex128 array of that shape would hold more bytes than numpy can index."""
    shape = tuple(_integer("array size", n) for n in shape)
    if math.prod(shape) * 16 > _INTP_MAX:
        raise ValidationError("requested size is too large for one array")
    return shape


def as_complex_stack(x, rank: int = 2) -> np.ndarray:
    """A new complex128 array of ``x``, numbers only: a nonempty stack ``(..., N)``
    of vectors (``rank`` 1) or ``(..., N, N)`` of square matrices (``rank`` 2)
    with finite entries, a single member being the stack with no leading axes."""
    a = _numbers(x, "state, observable and matrix input", "iufc")
    if a.ndim < rank or a.shape[-1] != a.shape[-rank]:
        raise DimensionMismatch(f"expected rank-{rank} members of equal axes, got shape {a.shape}")
    if a.size == 0 or not np.isfinite(a).all():
        raise ValidationError(f"expected a nonempty array of finite entries, got shape {a.shape}")
    return a.astype(np.complex128)


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


def _no_convergence(err, flag):
    raise NoConvergence("LAPACK solver did not converge")


# numpy.linalg's error state, set on each call of a decorated function: a failed
# LAPACK call fills its output with NaN and raises invalid, calling _no_convergence.
_lapack_errstate = np.errstate(
    call=_no_convergence, invalid="call", over="ignore", divide="ignore", under="ignore"
)


@_lapack_errstate
def eigensolve(h: np.ndarray, vectors: bool = False):
    """Ascending eigenvalues ``w`` of every matrix in the complex128 stack
    ``h`` (its lower triangle is read), or ``(w, v)`` with the eigenvector
    columns when ``vectors``: the bits of ``np.linalg.eigvalsh(h)`` and
    ``np.linalg.eigh(h)``. A LAPACK failure (a NaN result with the invalid
    flag raised) is NoConvergence. Like ``np.linalg``, a NaN input that
    LAPACK passes through without failing gives NaN eigenvalues; every
    caller hands in finite matrices only."""
    if vectors:
        return _umath_linalg.eigh_lo(h, signature="D->dD")
    return _umath_linalg.eigvalsh_lo(h, signature="D->d")


@_lapack_errstate
def qr_unitary(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(q, d)``: the Q factor of every square matrix in the complex128 stack
    ``a`` and the diagonal of its R, the bits of ``np.linalg.qr(a)``. ``a``
    itself is factored in place (it ends holding R on and above its
    diagonal), so it must be the caller's own scratch array. A LAPACK
    failure raises NoConvergence."""
    tau = _umath_linalg.qr_r_raw(a, signature="D->D")
    q = _umath_linalg.qr_reduced(a, tau, signature="DD->D")
    return q, np.diagonal(a, axis1=-2, axis2=-1)


def singular_values(a: np.ndarray) -> np.ndarray:
    """``np.linalg.svd(a, compute_uv=False)``, with a LAPACK failure raised
    as NoConvergence."""
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK solver failed: {exc}") from exc


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(w, v)`` of a Hermitian matrix or stack.

    Eigenvalues come back ascending, eigenvector columns in lockstep; the
    input is checked and symmetrized by ``hermitian_part`` first.
    """
    return eigensolve(hermitian_part(as_complex_stack(h)), vectors=True)


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
    w, v = eigensolve(hermitian_part(a), vectors=True)
    return _psd_root(check_psd(w), v)


def _psd_factor(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """G = V sqrt(w), the root being G V^dag, of the eigenpairs ``(w, v)`` (ascending
    ``w``) of the Hermitian part of a matrix, or stack, judged PSD already (by
    ``psd_sqrt`` or ``DensityMatrix``); w below N*eps*lambda_max, or all of it when
    lambda_max <= 0, is zeroed in place."""
    w[w < w.shape[-1] * _EPS * w[..., -1:]] = 0.0
    return v * np.sqrt(w)[..., None, :]


def _psd_root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The root ``psd_sqrt`` builds from ``_psd_factor``'s eigenpairs."""
    s = _psd_factor(w, v) @ adjoint(v)
    return (s + adjoint(s)) / 2
