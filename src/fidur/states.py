"""Quantum-state data model: density matrices, pure states, projective
observables, purification and partial trace, and seeded Haar samplers.

Conventions fixed here and relied on everywhere else:

* A bipartite amplitude for |n> (x) |k> with system dimension N and
  auxiliary dimension K sits at flat index n*K + k (system-major).
* Purification is the spectral one: for rho = sum_k lambda_k |v_k><v_k|
  (eigenvalues taken in descending order, rank cut at TOL.rank_cutoff)
  the purification is sum_k sqrt(lambda_k) |v_k> (x) |e_k>.
* Randomness comes from numpy's PCG64. ``derived_seed(seed, *stream)``
  is the documented splitting rule: the master seed and the stream
  indices feed one SeedSequence as its entropy tuple and are collapsed
  to a 128-bit integer. Two distinct index tuples give independent
  streams, so parallel and sequential sweeps see identical samples.

JSON payloads encode complex entries as [re, im] pairs, row-major.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg
from .config import TOL
from .errors import DimensionMismatch, IndexOutOfRange, ValidationError

__all__ = [
    "DensityMatrix",
    "PureState",
    "ProjectiveObservable",
    "projector",
    "purify",
    "partial_trace_aux",
    "derived_seed",
    "sample_haar_unitary",
    "sample_pure",
    "sample_mixed",
    "sample_observable",
    "computational_observable",
    "fourier_observable",
    "matrix_to_pairs",
    "pairs_to_matrix",
    "state_from_payload",
    "observable_from_payload",
]


# ---------------------------------------------------------------------------
# containers


def _norm(a: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis."""
    return np.sqrt((a.real**2 + a.imag**2).sum(axis=-1))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix.

    ``matrix`` may also be a stack ``(..., N, N)``; every member is checked
    and one bad member rejects the whole stack. A single matrix and a stack
    are validated alike, with one ``eigvalsh`` call, and this is the only
    judge of a state. The stored ``matrix`` is the Hermitian part
    (A + A^dag) / 2 that was judged, read-only and never the caller's own
    array, so a cached ``sqrt`` or fidelity always belongs to it. The
    Hermitian and PSD checks are ``linalg``'s, so a bad matrix raises the
    same ``NotHermitian`` or ``NotPSD`` (both ``ValidationError``) here as
    from ``linalg.psd_sqrt``. States compare and hash by identity, which
    is how the caches key them.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = linalg.as_complex_stack(self.matrix)
        h = linalg.hermitian_part(m)  # a new array, so never the caller's own
        linalg.check_psd(linalg.eigensolve(np.linalg.eigvalsh, h))
        tr = m.trace(axis1=-2, axis2=-1) - 1.0
        if float(np.abs([tr.real, tr.imag]).max()) > TOL.trace_one:
            raise ValidationError("density matrix must have unit trace")
        h.flags.writeable = False
        object.__setattr__(self, "matrix", h)

    def __reduce__(self):
        # Rebuild through the constructor, so that an unpickled state is
        # validated and its matrix read-only like any other.
        return (type(self), (self.matrix,))

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @property
    def sqrt(self) -> np.ndarray:
        """The principal square root, with the bits of
        ``linalg.psd_sqrt(matrix)``; see ``_root``."""
        return _root(self)

    def to_payload(self) -> dict:
        return {
            "type": "density-matrix",
            "dim": self.dim,
            "matrix": matrix_to_pairs(self.matrix),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "DensityMatrix":
        _expect_type(payload, "density-matrix")
        return cls(pairs_to_matrix(_field(payload, "matrix"), payload.get("dim")))


def _check_dims(a, b):
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")


def _single(*states) -> None:
    """DimensionMismatch unless ``states`` are single states of one dimension."""
    for state in states:
        a, ndim = (state.amplitudes, 1) if isinstance(state, PureState) else (state.matrix, 2)
        if a.ndim != ndim:
            raise DimensionMismatch(f"expected a single state, got shape {a.shape}")
        _check_dims(states[0], state)


def _eigenpairs(state: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of a single state, with the bits of ``psd_sqrt``'s
    ``eigh``: the stored matrix is the Hermitian part that was judged."""
    _single(state)
    return linalg.eigensolve(np.linalg.eigh, state.matrix)


@functools.lru_cache(maxsize=64)
def _root(state: DensityMatrix) -> np.ndarray:
    """Root of a single state, computed on first use and kept for the 64
    states asked most recently. The cache holds its states strongly, so
    an entry lives until it is evicted, not until its state is dropped.
    Every caller gets the same array, so it is read-only."""
    root = linalg._psd_root(*_eigenpairs(state))
    root.flags.writeable = False
    return root


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm complex amplitude vector, or a stack ``(..., N)`` of them."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=np.complex128)
        if a.ndim == 0 or a.size == 0:
            raise ValidationError("pure state must be a nonempty vector")
        if not np.isfinite(a).all():
            raise ValidationError("pure-state amplitudes must be finite")
        if float(np.abs(_norm(a) - 1.0).max()) > TOL.unit_norm:
            raise ValidationError("pure state must have unit norm")
        object.__setattr__(self, "amplitudes", a)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[-1]

    def density(self) -> DensityMatrix:
        """The rank-one density matrix |psi><psi| (a stack for a stack)."""
        a = self.amplitudes
        return DensityMatrix(a[..., :, None] * a.conj()[..., None, :])

    def to_payload(self) -> dict:
        return {
            "type": "pure-state",
            "dim": self.dim,
            "amplitudes": [[float(z.real), float(z.imag)] for z in self.amplitudes],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "PureState":
        _expect_type(payload, "pure-state")
        amps = _field(payload, "amplitudes")
        try:
            a = np.array([complex(re, im) for re, im in amps], dtype=np.complex128)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed amplitude list: {exc}") from exc
        dim = payload.get("dim")
        if dim is not None and _integer("dim", dim) != a.size:
            raise ValidationError("declared dim does not match amplitude count")
        return cls(a)


@dataclass(frozen=True, eq=False)
class ProjectiveObservable:
    """Non-degenerate observable, stored as its orthonormal eigenbasis.

    The columns of ``eigenbasis`` are the eigenvectors |a_1>..|a_N>.
    Eigenvalue labels never enter any formula in scope and are not stored.
    ``eigenbasis`` may also be a stack ``(..., N, N)`` of such bases.
    """

    eigenbasis: np.ndarray

    def __post_init__(self):
        e = linalg.as_complex_stack(self.eigenbasis)
        gram = linalg.adjoint(e) @ e
        if float(np.abs(gram - np.eye(e.shape[-1])).max()) > TOL.orthonormal:
            raise ValidationError("observable eigenbasis columns must be orthonormal")
        object.__setattr__(self, "eigenbasis", e)

    @property
    def dim(self) -> int:
        return self.eigenbasis.shape[-1]

    def basis_state(self, i: int) -> PureState:
        if not 0 <= i < self.dim:
            raise IndexOutOfRange(f"index {i} outside [0, {self.dim})")
        return PureState(self.eigenbasis[..., :, i].copy())

    def to_payload(self) -> dict:
        return {
            "type": "observable",
            "dim": self.dim,
            "eigenbasis": matrix_to_pairs(self.eigenbasis),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ProjectiveObservable":
        _expect_type(payload, "observable")
        return cls(pairs_to_matrix(_field(payload, "eigenbasis"), payload.get("dim")))


def projector(obs: ProjectiveObservable, i: int) -> DensityMatrix:
    """Rank-one projector |a_i><a_i| onto the i-th outcome of ``obs``."""
    if not 0 <= i < obs.dim:
        raise IndexOutOfRange(f"index {i} outside [0, {obs.dim})")
    v = obs.eigenbasis[..., :, i]
    return DensityMatrix(v[..., :, None] * v.conj()[..., None, :])


# ---------------------------------------------------------------------------
# purification and partial trace


def purify(rho: DensityMatrix) -> PureState:
    """Spectral purification of ``rho``.

    Returns |Psi> = sum_k sqrt(lambda_k) |v_k> (x) |e_k> on dimension N*r,
    where r is the rank of rho at threshold ``TOL.rank_cutoff`` and the
    eigenvalues are taken in descending order. The result is renormalized
    so that dropping sub-threshold eigenvalues cannot break the unit-norm
    invariant; the round trip through partial_trace_aux reproduces rho
    within 1e-10.
    """
    w, v = _eigenpairs(rho)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    kept = w > TOL.rank_cutoff
    if not kept.any():
        raise ValidationError("density matrix has numerical rank zero")
    w = w[kept]
    v = v[:, kept]
    # Psi_{n,k} = sqrt(lambda_k) * v[n, k]; row-major flattening realizes n*r + k.
    psi = (v * np.sqrt(w)).reshape(-1)
    psi = psi / np.linalg.norm(psi)
    return PureState(psi)


def partial_trace_aux(psi: PureState, sys_dim: int, aux_dim: int) -> DensityMatrix:
    """Trace out the auxiliary factor of a bipartite pure state.

    ``psi`` lives on dimension sys_dim*aux_dim with the flat index
    convention n*aux_dim + k; the result is rho_{mn} = sum_k Psi_{mk} Psi*_{nk}.
    A stack of states gives the stack of reduced states.
    """
    if sys_dim < 1 or aux_dim < 1:
        raise DimensionMismatch("dimensions must be positive")
    if psi.dim != sys_dim * aux_dim:
        raise DimensionMismatch(
            f"state dimension {psi.dim} is not {sys_dim}*{aux_dim}"
        )
    m = psi.amplitudes.reshape(*psi.amplitudes.shape[:-1], sys_dim, aux_dim)
    return DensityMatrix(m @ linalg.adjoint(m))


# ---------------------------------------------------------------------------
# seeded samplers
#
# Every sampler takes an optional ``count``: without it, one sample; with
# it, a stack of ``count`` samples drawn from the one seed (a leading axis
# of that length on the returned array or container).


def derived_seed(seed: int, *stream: int) -> int:
    """Collapse a master seed plus stream indices into one integer seed.

    The tuple (seed, *stream) is the entropy of a SeedSequence, whose
    first 128 bits of output become the derived seed. Distinct tuples give
    statistically independent streams, and the rule is pure arithmetic,
    so any partitioning of trials across workers reproduces the
    sequential samples exactly.
    """
    if seed < 0 or any(s < 0 for s in stream):
        raise ValidationError("seeds and stream indices must be non-negative")
    words = np.random.SeedSequence((int(seed), *map(int, stream))).generate_state(4)
    return int.from_bytes(words.tobytes(), "little")


def _generator(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    return np.random.default_rng(int(seed))


def _gaussian(seed: int, shape: tuple) -> np.ndarray:
    """Standard complex Gaussian entries (E|z|^2 = 1) of the given shape."""
    x = _generator(seed).standard_normal((2, *shape))
    z = x[0] + 1j * x[1]
    z /= np.sqrt(2.0)
    return z


def _stack_shape(count, *shape: int) -> tuple:
    if count is not None:
        if count < 1:
            raise ValidationError("count must be at least 1")
        shape = (int(count), *shape)
    return linalg.array_shape(*shape)


def sample_haar_unitary(dim: int, seed: int, count: int | None = None) -> np.ndarray:
    """Haar-distributed unitary via a Ginibre matrix and QR.

    The QR phase ambiguity is fixed by making the triangular factor's
    diagonal real positive, which is what makes the distribution Haar
    rather than merely unitary (Mezzadri, Notices AMS 54, 2007).
    """
    if dim < 1:
        raise DimensionMismatch("dimension must be at least 1")
    q, r = np.linalg.qr(_gaussian(seed, _stack_shape(count, dim, dim)))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    ph = np.where(np.abs(d) > 0, d, 1.0)
    ph = ph / np.abs(ph)
    return q * ph[..., None, :]


def sample_pure(dim: int, seed: int, count: int | None = None) -> PureState:
    """Haar-random pure state: a normalized complex Gaussian vector.

    The Gaussian measure is unitarily invariant, so its direction is
    uniform on the unit sphere, which is the Haar measure on pure states.
    """
    if dim < 1:
        raise DimensionMismatch("dimension must be at least 1")
    z = _gaussian(seed, _stack_shape(count, dim))
    return PureState(z / _norm(z)[..., None])


def sample_mixed(
    dim: int, aux_dim: int, seed: int, count: int | None = None
) -> DensityMatrix:
    """Random mixed state from the induced measure: the partial trace of a
    Haar pure state on dim*aux_dim (Zyczkowski & Sommers, J. Phys. A 34,
    7111, 2001).

    aux_dim=1 yields pure states; aux_dim >= dim yields generic full-rank
    states.
    """
    psi = sample_pure(dim * aux_dim, seed, count)
    return partial_trace_aux(psi, dim, aux_dim)


def sample_observable(
    dim: int, seed: int, count: int | None = None
) -> ProjectiveObservable:
    """Random projective observable: eigenbasis = Haar unitary columns."""
    return ProjectiveObservable(sample_haar_unitary(dim, seed, count))


def computational_observable(dim: int) -> ProjectiveObservable:
    """The computational basis as an observable."""
    return ProjectiveObservable(np.eye(dim, dtype=np.complex128))


def fourier_observable(dim: int) -> ProjectiveObservable:
    """The discrete-Fourier basis, complementary to the computational one."""
    j = np.arange(dim)
    e = np.exp(2j * np.pi * np.outer(j, j) / dim) / np.sqrt(dim)
    return ProjectiveObservable(e)


# ---------------------------------------------------------------------------
# JSON payload helpers


def matrix_to_pairs(m: np.ndarray) -> list:
    """Row-major nested lists with complex entries as [re, im] pairs."""
    return [
        [[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)
    ]


def pairs_to_matrix(rows, dim=None) -> np.ndarray:
    try:
        m = np.array(
            [[complex(re, im) for re, im in row] for row in rows],
            dtype=np.complex128,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed matrix payload: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"matrix payload must be square, got shape {m.shape}")
    if dim is not None and _integer("dim", dim) != m.shape[0]:
        raise ValidationError("declared dim does not match matrix size")
    return m


def _integer(name: str, value) -> int:
    """``value`` as an int; booleans and non-integral numbers are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _field(payload: dict, key: str):
    if key not in payload:
        raise ValidationError(f"{payload['type']} payload is missing {key!r}")
    return payload[key]


def _expect_type(payload, expected: str):
    if not isinstance(payload, dict):
        raise ValidationError("payload must be a JSON object")
    got = payload.get("type")
    if got != expected:
        raise ValidationError(f"expected payload type {expected!r}, got {got!r}")


def state_from_payload(payload: dict) -> DensityMatrix:
    """Load a density matrix; pure-state payloads are promoted to projectors."""
    if not isinstance(payload, dict):
        raise ValidationError("payload must be a JSON object")
    kind = payload.get("type")
    if kind == "density-matrix":
        return DensityMatrix.from_payload(payload)
    if kind == "pure-state":
        return PureState.from_payload(payload).density()
    raise ValidationError(f"cannot read a state from payload type {kind!r}")


def observable_from_payload(payload: dict) -> ProjectiveObservable:
    return ProjectiveObservable.from_payload(payload)
