"""Uhlmann fidelity by two independent computation routes.

``fidelity`` evaluates (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 directly,
from the state's cached root and the eigenvalues of the inner product;
``fidelity_oracle`` evaluates the equivalent squared nuclear norm of
sqrt(rho) sqrt(sigma), computing both roots itself. The two share no code
beyond the eigensolver and serve as mutual oracles.
``purification_overlap_search`` exhibits the third characterization: the
supremum of |<psi|phi>|^2 over purifications, approached stochastically
from below.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .config import TOL
from .errors import DimensionMismatch, DomainError, NoConvergence, NotPSD
from .states import DensityMatrix, PureState, purify, sample_haar_unitary, derived_seed

_EPS = float(np.finfo(np.float64).eps)

__all__ = [
    "fidelity",
    "fidelity_pure_pure",
    "fidelity_pure_mixed",
    "fidelity_oracle",
    "purification_overlap_search",
]


def _check_dims(a, b):
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")


def _clamp_unit(f: float) -> float:
    # Round-off may push F outside [0, 1] by up to TOL.fidelity_guard;
    # downstream arccos/sqrt need the clamped value.
    return min(max(float(f), 0.0), 1.0)


def _same_matrix(a: np.ndarray, b: np.ndarray) -> bool:
    return a is b or (a.shape == b.shape and bool(np.array_equal(a, b)))


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """F(rho, sigma) = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, in [0, 1].

    Bitwise-identical inputs short-circuit to exactly 1.0 (the value is
    exact in that case, while the numerical route would land ~1e-13 short
    and downstream arccos would amplify the gap). Otherwise sqrt(rho) is
    the state's cached root, and tr sqrt(M) for M = sqrt(rho) sigma
    sqrt(rho) is the sum of the square roots of M's eigenvalues, with an
    absolute noise floor of 4*N*eps: both operands have operator norm at
    most 1, so eigenvalues below that are round-off, not signal. The
    result is memoized on ``rho`` per partner state, so asking again for
    the same ordered pair returns the same float without new work (while
    ``rho`` keeps its derived values; see ``DensityMatrix.sqrt``).
    """
    _check_dims(rho, sigma)
    if _same_matrix(rho.matrix, sigma.matrix):
        return 1.0
    memo = rho._fidelity_memo
    f = memo.get(sigma)
    if f is None:
        f = memo[sigma] = _root_fidelity(rho.sqrt, sigma.matrix)
    return f


def _root_fidelity(s: np.ndarray, sigma: np.ndarray) -> float:
    """(tr sqrt(s sigma s))^2 for the root s of rho, from eigenvalues alone."""
    if sigma.ndim != 2:
        raise DimensionMismatch(f"expected a single state, got shape {sigma.shape}")
    m = s @ sigma @ s
    try:
        w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigendecomposition failed: {exc}") from exc
    if float(w[0]) < -TOL.psd_clamp:
        raise NotPSD(f"eigenvalue {float(w[0]):.3e} below -{TOL.psd_clamp:.0e}")
    w = np.where(w < 4 * w.size * _EPS, 0.0, w)
    return _clamp_unit(float(np.sqrt(w).sum()) ** 2)


def fidelity_pure_pure(psi: PureState, phi: PureState) -> float:
    """|<psi|phi>|^2."""
    _check_dims(psi, phi)
    if _same_matrix(psi.amplitudes, phi.amplitudes):
        return 1.0
    return _clamp_unit(abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2)


def fidelity_pure_mixed(psi: PureState, sigma: DensityMatrix) -> float:
    """<psi|sigma|psi> for pure psi against a density matrix."""
    _check_dims(psi, sigma)
    val = complex(np.vdot(psi.amplitudes, sigma.matrix @ psi.amplitudes))
    if abs(val.imag) > TOL.probability_imag:
        raise DomainError(
            f"<psi|sigma|psi> has imaginary part {val.imag:.3e}; sigma is not Hermitian enough"
        )
    return _clamp_unit(val.real)


def fidelity_oracle(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """F via the squared nuclear norm of sqrt(rho) sqrt(sigma).

    Algorithmically independent from ``fidelity``: one square root per
    operand and a singular-value sum instead of the nested root. The same
    absolute noise floor reasoning applies to the Gram matrix whose
    eigenvalues are the squared singular values.
    """
    _check_dims(rho, sigma)
    if _same_matrix(rho.matrix, sigma.matrix):
        return 1.0
    n = rho.dim
    a = linalg.psd_sqrt(rho.matrix) @ linalg.psd_sqrt(sigma.matrix)
    return _clamp_unit(linalg.nuclear_norm(a, noise_floor=4 * n * _EPS) ** 2)


def purification_overlap_search(
    rho: DensityMatrix, sigma: DensityMatrix, trials: int, seed: int
) -> float:
    """Stochastic lower bound of F(rho, sigma) through purification overlaps.

    |psi> is the spectral purification of rho and |phi_U> ranges over
    purifications of sigma obtained by applying Haar-random unitaries to
    the auxiliary factor of its spectral purification; both auxiliary
    spaces are zero-padded to a common dimension first. Each sampled
    |<psi|phi_U>|^2 is at most F, and the supremum over all U equals F,
    so the returned maximum converges to F from below as trials grow.
    """
    _check_dims(rho, sigma)
    if trials < 1:
        raise DomainError("trials must be at least 1")
    n = rho.dim
    psi = purify(rho)
    phi = purify(sigma)
    r_rho = psi.dim // n
    r_sigma = phi.dim // n
    k = max(r_rho, r_sigma)
    a = np.zeros((n, k), dtype=np.complex128)
    a[:, :r_rho] = psi.amplitudes.reshape(n, r_rho)
    b = np.zeros((n, k), dtype=np.complex128)
    b[:, :r_sigma] = phi.amplitudes.reshape(n, r_sigma)
    best = 0.0
    for t in range(trials):
        u = sample_haar_unitary(k, derived_seed(seed, t))
        # (I (x) U)|phi> in the (n, k) amplitude layout is B @ U.T.
        overlap = np.vdot(a, b @ u.T)
        best = max(best, abs(overlap) ** 2)
    return min(best, 1.0)
