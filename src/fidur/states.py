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
  The seed and every stream index must be integers.

The three containers are built one way, in their base ``_Fixture``: the
input is copied by ``linalg.as_complex_stack``, judged, stored read-only (so
mutating the caller's array cannot break a container) and unpickled through
the constructor. ``_Fixture`` also codes JSON payloads: [re, im], row-major.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .config import TOL
from .errors import DimensionMismatch, IndexOutOfRange, ValidationError
from .linalg import _integer

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
    "state_from_payload",
]


# ---------------------------------------------------------------------------
# containers


def _norm(a: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis."""
    return np.sqrt((a.real**2 + a.imag**2).sum(axis=-1))


def _complex(data, rank: int):
    """Nested lists of ``complex(re, im)`` from ``rank``-deep nested lists of
    [re, im] pairs. ``complex`` rejects strings, which a float array would parse."""
    if rank == 0:
        re, im = data
        return complex(re, im)
    return [_complex(x, rank - 1) for x in data]


class _Fixture:
    """The storage, dimension and JSON fixture codec of the three containers,
    keyed by their class constants: the type tag ``TYPE``, the data field
    ``FIELD`` and the rank ``RANK`` of a single member's array. A payload is
    ``{"type": TYPE, "dim": N, FIELD: entries}``, with every complex entry an
    [re, im] pair; ``dim`` is optional on input. A stack is not a fixture."""

    def _keep(self, a: np.ndarray) -> None:
        """Store the judged array ``a``, the container's own, read-only."""
        a.flags.writeable = False
        object.__setattr__(self, self.FIELD, a)

    def __reduce__(self):
        """Unpickle through the constructor, validated and read-only like any other."""
        return (type(self), (getattr(self, self.FIELD),))

    @property
    def dim(self) -> int:
        return getattr(self, self.FIELD).shape[-1]

    def to_payload(self) -> dict:
        _single(self)
        a = getattr(self, self.FIELD)
        return {
            "type": self.TYPE,
            "dim": self.dim,
            self.FIELD: np.stack((a.real, a.imag), axis=-1).tolist(),
        }

    @classmethod
    def from_payload(cls, payload: dict):
        if not isinstance(payload, dict):
            raise ValidationError("payload must be a JSON object")
        if payload.get("type") != cls.TYPE:
            raise ValidationError(
                f"expected payload type {cls.TYPE!r}, got {payload.get('type')!r}"
            )
        if cls.FIELD not in payload:
            raise ValidationError(f"{cls.TYPE} payload is missing {cls.FIELD!r}")
        try:
            a = np.array(_complex(payload[cls.FIELD], cls.RANK))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed {cls.FIELD} payload: {exc}") from exc
        if a.ndim != cls.RANK or len(set(a.shape)) > 1:
            raise ValidationError(
                f"{cls.FIELD} payload must have {cls.RANK} equal axes, got shape {a.shape}"
            )
        dim = payload.get("dim")
        if dim is not None and _integer("dim", dim) != a.shape[0]:
            raise ValidationError(f"declared dim does not match the {cls.FIELD} size")
        return cls(a)


@dataclass(frozen=True, eq=False)
class DensityMatrix(_Fixture):
    """Hermitian, positive semidefinite, unit-trace matrix.

    ``matrix`` may also be a stack ``(..., N, N)``; every member is checked
    and one bad member rejects the whole stack. A single matrix and a stack
    are validated alike, with one ``eigvalsh`` call, and this is the only
    judge of a state. The stored ``matrix`` is the Hermitian part
    (A + A^dag) / 2 that was judged. The Hermitian and PSD checks are
    ``linalg``'s, so a bad matrix raises the same ``NotHermitian`` or
    ``NotPSD`` (both ``ValidationError``) here as from ``linalg.psd_sqrt``.
    States compare and hash by identity, which is how the fidelity cache
    keys them: a matrix never changes after it is judged.
    """

    matrix: np.ndarray
    TYPE, FIELD, RANK = "density-matrix", "matrix", 2

    def __post_init__(self):
        m = linalg.as_complex_stack(self.matrix, self.RANK)
        h = linalg.hermitian_part(m)
        linalg.check_psd(linalg.eigensolve(h))
        tr = m.trace(axis1=-2, axis2=-1) - 1.0
        if float(np.abs([tr.real, tr.imag]).max()) > TOL.trace_one:
            raise ValidationError("density matrix must have unit trace")
        self._keep(h)

    @property
    def sqrt(self) -> np.ndarray:
        """The principal square root (the stack of roots for a stack),
        computed on each access with the bits of ``linalg.psd_sqrt(matrix)``."""
        return linalg._psd_root(*_eigenpairs(self))


def _expect(x, *classes) -> None:
    """ValidationError unless ``x`` is an instance of one of ``classes``."""
    if not isinstance(x, classes):
        names = " or ".join(c.__name__ for c in classes)
        raise ValidationError(f"expected a {names}, got {type(x).__name__}")


def _stack_axes(x) -> tuple:
    """The leading axes of a state or observable: () for a single one."""
    _expect(x, DensityMatrix, PureState, ProjectiveObservable)
    return getattr(x, x.FIELD).shape[: -x.RANK]


def _check_dims(a, b):
    """DimensionMismatch unless ``a`` and ``b`` share N and broadcastable stack axes."""
    lead_a, lead_b = _stack_axes(a), _stack_axes(b)
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")
    # numpy's rule: aligned from the right, each pair of axes is equal or has a 1.
    if any(m != n and 1 not in (m, n) for m, n in zip(lead_a[::-1], lead_b[::-1])):
        raise DimensionMismatch(f"stack axes {lead_a} and {lead_b} do not broadcast")


def _single(*states) -> None:
    """DimensionMismatch unless ``states`` are single states of one dimension."""
    for state in states:
        lead = _stack_axes(state)
        if lead:
            raise DimensionMismatch(f"expected a single state, got stack axes {lead}")
        _check_dims(states[0], state)


def _eigenpairs(state: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of a state or stack, with the bits of ``psd_sqrt``'s
    ``eigh``: the stored matrix is the Hermitian part that was judged."""
    return linalg.eigensolve(state.matrix, vectors=True)


@dataclass(frozen=True, eq=False)
class PureState(_Fixture):
    """Unit-norm complex amplitude vector, or a stack ``(..., N)`` of them."""

    amplitudes: np.ndarray
    TYPE, FIELD, RANK = "pure-state", "amplitudes", 1

    def __post_init__(self):
        a = linalg.as_complex_stack(self.amplitudes, self.RANK)
        if float(np.abs(_norm(a) - 1.0).max()) > TOL.unit_norm:
            raise ValidationError("pure state must have unit norm")
        self._keep(a)

    def density(self) -> DensityMatrix:
        """The rank-one density matrix |psi><psi| (a stack for a stack)."""
        a = self.amplitudes
        return DensityMatrix(a[..., :, None] * a.conj()[..., None, :])


@dataclass(frozen=True, eq=False)
class ProjectiveObservable(_Fixture):
    """Non-degenerate observable, stored as its orthonormal eigenbasis.

    The columns of ``eigenbasis`` are the eigenvectors |a_1>..|a_N>.
    Eigenvalue labels never enter any formula in scope and are not stored.
    ``eigenbasis`` may also be a stack ``(..., N, N)`` of such bases.
    """

    eigenbasis: np.ndarray
    TYPE, FIELD, RANK = "observable", "eigenbasis", 2

    def __post_init__(self):
        e = linalg.as_complex_stack(self.eigenbasis, self.RANK)
        gram = linalg.adjoint(e) @ e
        if float(np.abs(gram - np.eye(e.shape[-1])).max()) > TOL.orthonormal:
            raise ValidationError("observable eigenbasis columns must be orthonormal")
        self._keep(e)


def projector(obs: ProjectiveObservable, i: int) -> DensityMatrix:
    """Rank-one projector |a_i><a_i| onto the i-th outcome of ``obs``."""
    _expect(obs, ProjectiveObservable)
    i = _integer("index", i)
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
    _single(rho)
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
    _expect(psi, PureState)
    sys_dim, aux_dim = _integer("sys_dim", sys_dim), _integer("aux_dim", aux_dim)
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
# of that length on the returned array or container). ``seed`` may also be
# a tuple of seeds, which adds one leading member per seed ahead of the
# ``count`` axis; member i holds exactly what seed i alone would give.

Seed = int | tuple[int, ...]


def derived_seed(seed: int, *stream: int) -> int:
    """Collapse a master seed plus stream indices into one integer seed.

    The tuple (seed, *stream) is the entropy of a SeedSequence, whose
    first 128 bits of output become the derived seed. Distinct tuples give
    statistically independent streams, and the rule is pure arithmetic,
    so any partitioning of trials across workers reproduces the
    sequential samples exactly. The seed and the indices must be integers:
    a float or bool would alias an integer's stream.
    """
    entropy = [_integer("seed or stream index", s) for s in (seed, *stream)]
    if min(entropy) < 0:
        raise ValidationError("seeds and stream indices must be non-negative")
    if max(entropy) < 2**32:
        # One uint32 word per entry, which is how SeedSequence reads such a
        # list, without its per-entry conversion.
        entropy = np.array(entropy, dtype=np.uint32)
    words = np.random.SeedSequence(entropy).generate_state(4)
    return int.from_bytes(words.tobytes(), "little")


def _generator(seed: int) -> np.random.Generator:
    """``np.random.default_rng(seed)``: PCG64 seeded by a SeedSequence of the
    seed's little-endian uint32 words, high zero words dropped (one word for 0)."""
    seed = _integer("seed", seed)
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    words = -(-seed.bit_length() // 32) or 1
    entropy = np.frombuffer(seed.to_bytes(4 * words, "little"), dtype="<u4")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _gaussian(seed: Seed, shape: tuple) -> np.ndarray:
    """Standard complex Gaussian entries (E|z|^2 = 1) of the given shape,
    with a leading member per seed when ``seed`` is a tuple."""
    if isinstance(seed, tuple):
        if not seed:
            raise ValidationError("a tuple of seeds must not be empty")
        x = np.stack([_generator(s).standard_normal((2, *shape)) for s in seed], axis=1)
    else:
        x = _generator(seed).standard_normal((2, *shape))
    z = x[0] + 1j * x[1]
    z /= np.sqrt(2.0)
    return z


def _stack_shape(count, *shape: int) -> tuple:
    if count is not None:
        count = _integer("count", count)
        if count < 1:
            raise ValidationError("count must be at least 1")
        shape = (count, *shape)
    return linalg.array_shape(*shape)


def sample_haar_unitary(dim: int, seed: Seed, count: int | None = None) -> np.ndarray:
    """Haar-distributed unitary via a Ginibre matrix and QR.

    The QR phase ambiguity is fixed by making the triangular factor's
    diagonal real positive, which is what makes the distribution Haar
    rather than merely unitary (Mezzadri, Notices AMS 54, 2007).
    """
    if _integer("dim", dim) < 1:
        raise DimensionMismatch("dimension must be at least 1")
    q, d = linalg.qr_unitary(_gaussian(seed, _stack_shape(count, dim, dim)))
    ph = np.where(np.abs(d) > 0, d, 1.0)
    ph = ph / np.abs(ph)
    q *= ph[..., None, :]  # in place: the stack is the sampler's peak memory
    return q


def sample_pure(dim: int, seed: Seed, count: int | None = None) -> PureState:
    """Haar-random pure state: a normalized complex Gaussian vector.

    The Gaussian measure is unitarily invariant, so its direction is
    uniform on the unit sphere, which is the Haar measure on pure states.
    """
    if _integer("dim", dim) < 1:
        raise DimensionMismatch("dimension must be at least 1")
    z = _gaussian(seed, _stack_shape(count, dim))
    z /= _norm(z)[..., None]
    return PureState(z)


def sample_mixed(
    dim: int, aux_dim: int, seed: Seed, count: int | None = None
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
    dim: int, seed: Seed, count: int | None = None
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
# JSON payloads


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
