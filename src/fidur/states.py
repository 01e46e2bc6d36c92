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
  The seed and every stream index must be integers. ``_stream_words``
  derives many such streams in one vectorized pass, bitwise the same.

The three containers store their array one way, in their base ``_Fixture``:
read-only (so mutating the caller's array cannot break a container) and
unpickled through the judging constructor. Outside input is judged: the
constructor copies it by ``linalg.as_complex_stack`` and checks it, and so
do ``from_payload``, ``state_from_payload``, unpickling, ``purify`` and
``projector`` (a judged basis bounds a projector's trace only by
``TOL.orthonormal``, which is the edge of ``TOL.trace_one``). What fidur
builds valid by construction, sampled pure states and observables and the
states M M^dag traced out of a pure state, skips the checks it cannot fail
through ``_Fixture._made``, with the bits the constructor would keep.
``_Fixture`` also codes JSON payloads: [re, im], row-major.
"""

from __future__ import annotations

import functools
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

    @classmethod
    def _made(cls, a: np.ndarray):
        """A container of ``a``, a complex128 array fidur built valid by
        construction and owns: stored as the constructor stores the array it
        judged (``a`` itself, read-only), without judging it again."""
        self = object.__new__(cls)
        self._keep(a)
        return self

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
    are validated alike, with one ``eigvalsh`` call, and this constructor
    is the only judge of a state: a state built from a ``PureState``
    (``partial_trace_aux``, ``PureState.density``, ``sample_mixed``) is
    valid by construction and is not judged. The stored
    ``matrix`` is the Hermitian part (A + A^dag) / 2, judged or built.
    The Hermitian and PSD checks are ``linalg``'s, so a bad matrix raises
    the same ``NotHermitian`` or ``NotPSD`` (both ``ValidationError``) here
    as from ``linalg.psd_sqrt``.
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
        return linalg._psd_root(*linalg.eigensolve(self.matrix, vectors=True))

    @property
    def _factor(self) -> np.ndarray:
        """G = V sqrt(w), rho = G G^dag, of the eigenpairs the root is built from,
        with ``psd_sqrt``'s floor on w (a stack for a stack): the one place a
        state is factored, computed on each access like ``sqrt``."""
        return linalg._psd_factor(*linalg.eigensolve(self.matrix, vectors=True))


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
        return _gram_state(a[..., :, None] * a.conj()[..., None, :])


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
    _expect(rho, DensityMatrix)
    _single(rho)
    w, v = linalg.eigensolve(rho.matrix, vectors=True)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    # A judged state keeps lambda_max >= (1 - 2e-10) / N, so one eigenvalue is kept.
    kept = w > TOL.rank_cutoff
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
    return _gram_state(m @ linalg.adjoint(m))


def _gram_state(a: np.ndarray) -> DensityMatrix:
    """The state of ``a`` = M M^dag, M a ``PureState``'s amplitudes read as an
    N x K matrix (or a stack of them), stored as ``DensityMatrix(a)`` would
    store it, its Hermitian part, without the judging: ``a`` is PSD by
    construction and its trace ||M||_F^2 lies within 2 * TOL.unit_norm (plus
    round-off) of 1, far inside TOL.trace_one."""
    return DensityMatrix._made((a + linalg.adjoint(a)) / 2)


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
    so a stream depends only on its tuple, not on the order or the
    process in which it is drawn. The seed and the indices must be integers:
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


# SeedSequence's hash (numpy/random/bit_generator.pyx, pool of 4 words) in
# numpy uint32 arithmetic over many entropy rows at once, one row per column.
# Each hash constant depends only on how many hashes came before it, so its
# values form a fixed table. The tables are uint32 arrays, so a product wraps
# silently under every numpy casting rule, where uint32 scalars would warn.


def _hash_chain(init: int, mult: int, n: int) -> tuple:
    """The hash constant before and after each of ``n`` successive
    multiplications by ``mult``, as two (n, 1) uint32 columns."""
    h = [init]
    for _ in range(n):
        h.append(h[-1] * mult % 2**32)
    return tuple(np.array(c, dtype=np.uint32)[:, None] for c in (h[:-1], h[1:]))


_POOL_XOR, _POOL_MUL = _hash_chain(0x43B0D7E5, 0x931E8875, 16)  # 4 words in, 12 mixes
# The mixing constants by source word, then destination word in ascending
# order; the source's own slot is unused.
_MIX_SLOTS = [[4 + 3 * src + dst - (dst > src) if dst != src else 0 for dst in range(4)]
              for src in range(4)]
_MIX_XOR, _MIX_MUL = _POOL_XOR[_MIX_SLOTS], _POOL_MUL[_MIX_SLOTS]
# The output constants as (n_words // 4, 4, 1): the output cycles through the pool.
_STATE_XOR, _STATE_MUL = (c.reshape(2, 4, 1) for c in _hash_chain(0x8B51F9DD, 0x58F38DED, 8))
_MIX_L, _MIX_R, _XSHIFT = (np.array(c, dtype=np.uint32) for c in (0xCA01F9DD, 0x4973F715, 16))


def _hashmix(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mul
    return v ^ (v >> _XSHIFT)


def _seed_state(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(e).generate_state(n_words)`` (uint32) of every column
    ``e`` of the (w, k) uint32 ``entropy``, w <= 4, as an (n_words, k) array;
    ``n_words`` is 4 or 8.

    With at most 4 words of entropy SeedSequence hashes a missing pool word
    as the word 0, so trailing zero words change nothing: a column is
    padded with zeros to 4 words, and the 128-bit derived seed ``s`` is
    exactly its 4 little-endian words, whatever numpy drops of them.
    """
    pool = np.zeros((4, entropy.shape[1]), dtype=np.uint32)
    pool[: len(entropy)] = entropy
    pool = _hashmix(pool, _POOL_XOR[:4], _POOL_MUL[:4])
    # Mix every pool word into every other one, in SeedSequence's order.
    for src in range(4):
        m = _MIX_L * pool - _MIX_R * _hashmix(pool[src], _MIX_XOR[src], _MIX_MUL[src])
        m ^= m >> _XSHIFT
        m[src] = pool[src]
        pool = m
    blocks = n_words // 4
    return _hashmix(pool, _STATE_XOR[:blocks], _STATE_MUL[:blocks]).reshape(n_words, -1)


def _pcg64_words(seed_words: np.ndarray) -> np.ndarray:
    """The (k, 4) uint64 words PCG64 reads from ``SeedSequence(s)``, for the
    derived seeds ``s`` given as the columns of their (4, k) uint32 words."""
    state = _seed_state(seed_words, 8)
    # SeedSequence's uint64 state: little-endian pairs of uint32 words.
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


def _stream_words(rows: list) -> np.ndarray:
    """The (k, 4) uint64 words ``np.random.default_rng(derived_seed(*row))``
    seeds its PCG64 with, for k rows of 4 non-negative integers: both
    SeedSequence stages run over all rows at once. Entropy words of 2^32 and
    above make a longer entropy, which SeedSequence mixes in a further loop,
    so rows holding one take the scalar route."""
    if max(map(max, rows)) >= 2**32:
        seeds = (np.random.SeedSequence(derived_seed(*row)) for row in rows)
        return np.array([s.generate_state(4, np.uint64) for s in seeds])
    return _pcg64_words(_seed_state(np.array(rows, dtype=np.uint32).T, 4))


@functools.cache
def _given_state_sequence():
    """The class of an ``ISeedSequence`` whose uint64 state is given, its
    four words: ``PCG64`` seeds from ``generate_state(4, np.uint64)``. Built
    on first use, so importing fidur loads no ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (4, np.uint64):
                raise NotImplementedError("only PCG64's 4 uint64 words are known")
            return self.words

    return Words


def _generators(words: np.ndarray) -> list:
    """A PCG64 ``Generator`` per row of the (k, 4) uint64 ``words``, each
    bitwise the one SeedSequence state of those words seeds."""
    words_of = _given_state_sequence()
    return [np.random.Generator(np.random.PCG64(words_of(w))) for w in words]


def _members(seed: tuple) -> list:
    """The generators of a tuple of seeds, member i that of seed i alone,
    seeded in one pass unless a member is 2^128 or more."""
    if not seed:
        raise ValidationError("a tuple of seeds must not be empty")
    ints = [_integer("seed", s) for s in seed]
    if min(ints) < 0:
        raise ValidationError("seed must be non-negative")
    if max(ints) >= 2**128:
        return [_generator(s) for s in ints]
    words = np.frombuffer(b"".join(s.to_bytes(16, "little") for s in ints), dtype="<u4")
    return _generators(_pcg64_words(words.reshape(-1, 4).T))


def _streams(seed: Seed):
    """The generator of a seed, or for a tuple of seeds their list."""
    return _members(seed) if isinstance(seed, tuple) else _generator(seed)


_SQRT_HALF = 1.0 / np.sqrt(2.0)  # numpy divides a complex z by sqrt(2) as z * _SQRT_HALF


def _gaussian(stream, shape: tuple) -> np.ndarray:
    """Standard complex Gaussian entries (E|z|^2 = 1) of the given shape: the
    bits of ``(x[0] + 1j * x[1]) / np.sqrt(2.0)`` for a generator's ``x =
    standard_normal((2, *shape))``, with no complex temporary, and a leading
    member per generator when ``stream`` is a list."""
    if isinstance(stream, list):
        x = np.empty((len(stream), 2, *shape))
        for g, out in zip(stream, x):
            g.standard_normal(out=out)
        re, im = x[:, 0], x[:, 1]
    else:
        re, im = x = stream.standard_normal((2, *shape))
    x *= _SQRT_HALF
    z = np.empty(re.shape, dtype=np.complex128)
    z.real, z.imag = re, im
    return z


def _phased(q: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``q`` with column j times the phase of ``d[j]``, in place, for the Q
    factor of a Ginibre matrix and its R's diagonal ``d`` (or stacks of them):
    the Haar unitary. A zero diagonal entry takes phase 1."""
    r = np.abs(d)
    ph = np.divide(d, r, out=np.ones_like(d), where=r > 0)
    q *= ph[..., None, :]  # in place: the stack is the sampler's peak memory
    return q


def _unitary(stream, shape: tuple) -> np.ndarray:
    """``sample_haar_unitary``'s unitaries of ``shape`` drawn from ``stream``
    (see ``_gaussian``)."""
    return _phased(*linalg.qr_unitary(_gaussian(stream, shape)))


def _pure(stream, shape: tuple) -> PureState:
    """Haar pure states of ``shape`` drawn from ``stream`` (see ``_gaussian``):
    normalized complex Gaussian vectors, of unit norm to O(N eps), far inside
    TOL.unit_norm, so they are kept unjudged."""
    z = _gaussian(stream, shape)
    z /= _norm(z)[..., None]
    return PureState._made(z)


def _stack_shape(count, *shape: int) -> tuple:
    if count is not None:
        count = _integer("count", count)
        if count < 1:
            raise ValidationError("count must be at least 1")
        shape = (count, *shape)
    return linalg.array_shape(*shape)


def sample_haar_unitary(dim: int, seed: Seed, count: int | None = None) -> np.ndarray:
    """Haar-distributed unitary: the Q factor of a Ginibre matrix, with the
    phases of R's diagonal made real positive, which makes the law Haar
    rather than merely unitary (Mezzadri, Notices AMS 54, 2007)."""
    if _integer("dim", dim) < 1:
        raise DimensionMismatch("dimension must be at least 1")
    shape = _stack_shape(count, dim, dim)
    return _unitary(_streams(seed), shape)


def sample_pure(dim: int, seed: Seed, count: int | None = None) -> PureState:
    """Haar-random pure state: a normalized complex Gaussian vector.

    The Gaussian measure is unitarily invariant, so its direction is
    uniform on the unit sphere, which is the Haar measure on pure states.
    """
    if _integer("dim", dim) < 1:
        raise DimensionMismatch("dimension must be at least 1")
    shape = _stack_shape(count, dim)
    return _pure(_streams(seed), shape)


def sample_mixed(
    dim: int, aux_dim: int, seed: Seed, count: int | None = None
) -> DensityMatrix:
    """Random mixed state from the induced measure: the partial trace of a
    Haar pure state on dim*aux_dim (Zyczkowski & Sommers, J. Phys. A 34,
    7111, 2001).

    aux_dim=1 yields pure states; aux_dim >= dim yields generic full-rank
    states. Bitwise ``partial_trace_aux(sample_pure(dim * aux_dim, ...))``.
    """
    dim, aux_dim = _integer("dim", dim), _integer("aux_dim", aux_dim)
    if dim < 1 or aux_dim < 1:
        raise DimensionMismatch("dimensions must be positive")
    z = _pure(_streams(seed), _stack_shape(count, dim * aux_dim)).amplitudes
    m = z.reshape(*z.shape[:-1], dim, aux_dim)
    return _gram_state(m @ linalg.adjoint(m))


def sample_observable(
    dim: int, seed: Seed, count: int | None = None
) -> ProjectiveObservable:
    """Random projective observable: eigenbasis = Haar unitary columns,
    orthonormal to O(N eps), far inside TOL.orthonormal."""
    return ProjectiveObservable._made(sample_haar_unitary(dim, seed, count))


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
