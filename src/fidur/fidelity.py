"""Uhlmann fidelity by two independent computation routes.

``fidelity`` evaluates (tr sqrt(M))^2, M = sqrt(rho) sigma sqrt(rho), from
the eigenvalues of K = G^dag sigma G, which are M's: G = V sqrt(w) is the
eigen-factor of rho (``DensityMatrix._factor``; sqrt(rho) = G V^dag), so no
root is built.
``fidelity_oracle`` evaluates the squared nuclear norm of sqrt(rho)
sqrt(sigma). The two share only the root's floor and ``linalg``'s solvers,
and serve as mutual oracles. ``purification_overlap_search`` approaches the
supremum of |<psi|phi>|^2 over purifications stochastically from below.
"""

from __future__ import annotations

import functools

import numpy as np

from . import linalg
from .config import clamp
from .errors import DomainError
from .linalg import _EPS, _integer
from .states import DensityMatrix, PureState, purify, sample_haar_unitary, derived_seed
from .states import _check_dims, _expect, _single

__all__ = [
    "fidelity",
    "fidelity_pure_pure",
    "fidelity_pure_mixed",
    "fidelity_oracle",
    "purification_overlap_search",
]


def fidelity(rho: DensityMatrix, sigma: DensityMatrix):
    """F(rho, sigma) = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, in [0, 1].

    Bitwise-identical matrices give exactly 1.0 (the numerical route would
    land ~1e-13 short and downstream arccos would amplify the gap).
    Otherwise tr sqrt(M) is the sum of the square roots of K's eigenvalues,
    floored at 4*N*eps: both operands have operator norm at most 1, so
    eigenvalues below that are round-off. Stacks broadcast over their
    leading axes and give an array. A single pair gives a float, cached for
    the 64 ordered pairs asked most recently (keyed by, and holding, the
    states); a stack reads no cache.
    """
    for x in (rho, sigma):
        _expect(x, DensityMatrix)
    a, b = rho.matrix, sigma.matrix
    if a.ndim == b.ndim == 2 and a.shape == b.shape:
        return _fidelity(rho, sigma)
    _check_dims(rho, sigma)
    return np.where((a == b).all(axis=(-2, -1)), 1.0, _fidelity_kernel(rho._factor, b))


@functools.lru_cache(maxsize=64)
def _fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    a, b = rho.matrix, sigma.matrix
    return 1.0 if (a == b).all() else float(_fidelity_kernel(rho._factor, b))


def _fidelity_kernel(g: np.ndarray, b: np.ndarray):
    """F of each pair whose first state has the factor ``g`` and second the matrix ``b``."""
    k = linalg.eigensolve(linalg.adjoint(g) @ b @ g)  # K, unsymmetrized: one triangle is read
    # The states were judged PSD when built; the floor zeroes K's negative round-off.
    k[k < 4 * k.shape[-1] * _EPS] = 0.0
    # An array's ** 2 is x * x, 1 last bit off a float's libm pow(x, 2) ~1 time
    # in 1000; float_power is pow for both, so a member keeps its pair's bits.
    return clamp(np.float_power(np.sqrt(k).sum(axis=-1), 2), "fidelity_guard")


def fidelity_pure_pure(psi: PureState, phi: PureState) -> float:
    """|<psi|phi>|^2."""
    for x in (psi, phi):
        _expect(x, PureState)
    _single(psi, phi)
    if (psi.amplitudes == phi.amplitudes).all():
        return 1.0
    return float(clamp(abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2, "fidelity_guard"))


def fidelity_pure_mixed(psi: PureState, sigma: DensityMatrix) -> float:
    """<psi|sigma|psi> for pure psi against a density matrix."""
    _expect(psi, PureState)
    _expect(sigma, DensityMatrix)
    _single(psi, sigma)
    # sigma's stored matrix is exactly Hermitian, so the imaginary part is round-off.
    val = np.vdot(psi.amplitudes, sigma.matrix @ psi.amplitudes).real
    return float(clamp(val, "fidelity_guard"))


def fidelity_oracle(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """F as the squared nuclear norm of A = sqrt(rho) sqrt(sigma).

    Independent of ``fidelity``'s route: one root per operand and the sum
    of A's singular values instead of the nested root. Singular values are
    never roots of round-off, so the sum needs no noise floor and F stays
    accurate near 1. Bitwise-identical matrices give exactly 1.0.
    """
    for x in (rho, sigma):
        _expect(x, DensityMatrix)
    _single(rho, sigma)
    if (rho.matrix == sigma.matrix).all():
        return 1.0
    s = linalg.singular_values(rho.sqrt @ sigma.sqrt)
    return float(clamp(s.sum() ** 2, "fidelity_guard"))


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
    _single(rho, sigma)
    if _integer("trials", trials) < 1:
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
    return float(clamp(best, "fidelity_guard"))
