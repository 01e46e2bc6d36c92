"""Seeded Monte Carlo verification sweeps over the uncertainty relation.

One trial of dimension d draws a Haar observable B and, depending on
``mixedness``, a Haar pure state and/or a generic full-rank mixed state
(auxiliary dimension = d), then evaluates the slack of the relation
U(A;rho) + U(B;rho) >= f(c^2) per requested metric kind and state variant,
on the complements 1 - P_A, 1 - P_B, 1 - c^2 (see ``fidur.uncertainty``)
of the drawn amplitudes alone: each variant draws a Haar pure state of
dimension N*K, read as an N x K matrix M (rho = M M^dag), K = 1 if pure
and K = N if mixed. The complements are read from the raw draws, before
the samplers scale, normalize and phase-fix them, which changes them by
round-off only. A chunk keeps only its complements: the minimum-slack
witness is drawn again at the end of the run, from its block's streams
through the samplers' own recipes, and only it becomes a state.

A is the computational basis: p_i and c are unchanged by (A, B, rho) ->
(A^dag A, A^dag B, A^dag rho A), whose law for a Haar A independent of B
and rho is that of (I, B, rho), so each slack has the law a Haar A gives.

Trials run in blocks of ``BLOCK``: block j of dimension d holds trials
[j*BLOCK, (j+1)*BLOCK), and each of its random objects is drawn as one
stack from the seed derived_seed(seed, d, j, role) of its role, 1 to 3.
The streams of a window of chunks, up to ``_WINDOW``, are derived in one
vectorized pass, bitwise those of derived_seed and np.random.default_rng.
``BLOCK`` is a constant, so the chunk plan, and with it every sample,
depends only on the configuration. The chunks run in this process in plan
order, a window at a time: its chunks' complements are laid side by side
and go through one slack stage, so a run holds one chunk's draws and one
window's complements at a time. Violations and totals are sums, and the
minimum-slack witness is selected by a total order, so neither depends on
the window.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from .config import TOL
from .errors import ValidationError
from .linalg import _integer, _real, array_shape, qr_unitary
from .metrics import MetricKind, metric_kind
from .states import (
    ProjectiveObservable,
    PureState,
    _gaussian,
    _generators,
    _phased,
    _pure,
    _stream_words,
    computational_observable,
    partial_trace_aux,
)
from .uncertainty import _complement, _slacks

__all__ = ["BLOCK", "SweepConfig", "SweepResult", "run_sweep"]

_MIXEDNESS = ("pure", "mixed", "both")

# Trials per chunk. Changing it changes every sampled stream.
BLOCK = 64

# Chunks whose streams are derived, and whose slacks are evaluated, in one
# pass; any window gives the same bytes.
_WINDOW = 16

_ROLES = (_ROLE_B, _ROLE_PURE, _ROLE_MIXED) = (1, 2, 3)  # per-block sampler roles; 0 (A) is unused


@dataclass(frozen=True)
class SweepConfig:
    dims: tuple[int, ...]
    trials_per_dim: int
    seed: int
    kinds: tuple[MetricKind, ...]
    mixedness: str
    tolerance: float = TOL.ur_slack

    def __post_init__(self):
        try:
            dims, kinds = tuple(self.dims), tuple(self.kinds)
        except TypeError:
            raise ValidationError("dims and kinds must be lists") from None
        dims = tuple(_integer("dims entry", d) for d in dims)
        if not dims or any(d < 2 for d in dims):
            raise ValidationError("dims must be a nonempty list of integers >= 2")
        if not kinds or not all(isinstance(k, MetricKind) for k in kinds):
            raise ValidationError("kinds must be a nonempty list of MetricKind members")
        # Streams are keyed by (seed, dim, block, role): a repeated entry would
        # evaluate the same trials again and count them twice.
        for name, entries in (("dims", dims), ("kinds", [k.value for k in kinds])):
            repeated = [e for e, n in collections.Counter(entries).items() if n > 1]
            if repeated:
                raise ValidationError(f"{name} entry {repeated[0]!r} is given more than once")
        if _integer("trials_per_dim", self.trials_per_dim) < 1:
            raise ValidationError("trials_per_dim must be at least 1")
        if _integer("seed", self.seed) < 0:
            raise ValidationError("seed must be non-negative")
        if self.mixedness not in _MIXEDNESS:
            raise ValidationError(f"mixedness must be one of {_MIXEDNESS}")
        if not 0 < _real("tolerance", self.tolerance) < math.inf:
            raise ValidationError("tolerance must be a positive finite number")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "trials_per_dim", int(self.trials_per_dim))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @property
    def variants(self) -> tuple[str, ...]:
        return ("pure", "mixed") if self.mixedness == "both" else (self.mixedness,)

    def to_payload(self) -> dict:
        return {**asdict(self), "dims": list(self.dims), "kinds": [k.value for k in self.kinds]}

    @classmethod
    def from_payload(cls, payload: dict) -> "SweepConfig":
        if not isinstance(payload, dict):
            raise ValidationError("sweep config must be a JSON object")
        required = {"dims", "trials_per_dim", "seed", "kinds", "mixedness"}
        missing = required - payload.keys()
        if missing:
            raise ValidationError(f"sweep config missing keys: {sorted(missing)}")
        unknown = payload.keys() - (required | {"tolerance"})
        if unknown:
            raise ValidationError(f"sweep config has unknown keys: {sorted(unknown)}")
        if not isinstance(payload["kinds"], list):
            raise ValidationError("kinds must be a list of metric names")
        return cls(**{**payload, "kinds": tuple(metric_kind(k) for k in payload["kinds"])})


@dataclass(frozen=True)
class SweepResult:
    """total_trials counts relation evaluations (dims x trials x variants x kinds)."""

    total_trials: int
    violations: int
    min_slack: float
    min_slack_witness: dict

    def to_payload(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True)


def _run_chunk(config: SweepConfig, dim: int, block: int, words: np.ndarray) -> np.ndarray:
    """The complements of the trials of one block of one dimension, drawn
    from ``words``, the (3, 4) uint64 PCG64 words of the block's streams by role.

    Returns y with y[:, trial, variant] = (1 - P_A, 1 - P_B, 1 - c^2); the
    draws die with the call. y comes from the raw draws: the states'
    standard normals before ``_gaussian`` scales them and ``_pure``
    normalizes them (1 - P does not change with a state's scale), and B's Q
    factor before ``_unitary``'s phase fix (|b_ij|^2 and |B^dag M|^2 do not
    change with unit phases on B's columns).

    x[trial] holds the rows of M^T (each variant's state, its amplitudes read
    as an N x K matrix M), of (Q^dag M)^T = M^T conj(Q) and of Q^T: one
    product for both variants, one |.|^2 pass and one grouping of rows give
    every distribution of the trial along the last axis, and one
    ``_complement`` call gives their 1 - P.
    """
    n = min(BLOCK, config.trials_per_dim - block * BLOCK)
    # Where each variant's rows of M^T start in x, and where the last one
    # ends: a pure variant has K = 1 row, a mixed one K = N.
    rows = list(itertools.accumulate((dim if v == "mixed" else 1 for v in config.variants),
                                     initial=0))
    k = rows[-1]
    x = np.empty(array_shape(n, 2 * k + dim, dim), dtype=np.complex128)
    streams = dict(zip(_ROLES, _generators(words)))
    q, _ = qr_unitary(_gaussian(streams[_ROLE_B], (n, dim, dim)))  # as _unitary draws it
    for variant, start, stop in zip(config.variants, rows, rows[1:]):
        role = _ROLE_MIXED if variant == "mixed" else _ROLE_PURE
        m = x[:, start:stop]  # M^T, with K = stop - start
        m.real, m.imag = streams[role].standard_normal((2, n, dim, stop - start)).swapaxes(-1, -2)
    x[:, k:2 * k] = x[:, :k] @ q.conj()
    x[:, 2 * k:] = q.swapaxes(-1, -2)
    groups = [*rows[:-1], *(k + i for i in rows[:-1]), *range(2 * k, 2 * k + dim)]
    # y_all[trial] = 1 - P of A, then of B, under each variant, then of |b_j> under A for each j
    y_all = _complement(np.add.reduceat(x.real * x.real + x.imag * x.imag, groups, axis=1))
    v = len(config.variants)
    y = np.empty((3, n, v))
    y[:2] = y_all[:, :2 * v].reshape(n, 2, v).swapaxes(0, 1)
    y[2] = y_all[:, 2 * v:].min(axis=-1)[:, None]
    return y


def _run_window(config: SweepConfig, window: list):
    """Evaluate a window of chunks, each a (dim, block, words) of ``_plan``,
    with one slack stage over all their trials.

    Returns (count, violations, best) with best = (key, words): the key
    (slack, dim, trial, variant, kind) orders first by slack, then by trial
    coordinates, so the merged minimum is unique and order-free, and
    ``words`` are the stream words of the witness's chunk, from which
    ``_witness`` draws it again.
    """
    ys = [_run_chunk(config, *chunk) for chunk in window]
    firsts = np.cumsum([0] + [y.shape[1] for y in ys])  # each chunk's first row
    # slack[row, variant, kind] over the window's trials in plan order.
    slack = _slacks(config.kinds, np.concatenate(ys, axis=1))[-1]
    keys = []
    for i, v, k in zip(*np.unravel_index(np.flatnonzero(slack == slack.min()), slack.shape)):
        c = int(np.searchsorted(firsts, i, side="right")) - 1
        dim, block, _ = window[c]
        keys.append((float(slack[i, v, k]), dim, block * BLOCK + int(i - firsts[c]), int(v),
                     int(k), c))
    *key, c = min(keys)
    best = (tuple(key), window[c][2])
    return slack.size, int(np.count_nonzero(slack < -config.tolerance)), best


def _plan(config: SweepConfig, blocks: int):
    """The chunks in plan order, a window at a time: lists of (dim, block,
    words) of at most ``_WINDOW`` chunks, their stream words derived one
    window at a time, so a huge plan is never built."""
    chunks = ((d, j) for d in config.dims for j in range(blocks))
    while window := list(itertools.islice(chunks, _WINDOW)):
        rows = [(config.seed, d, j, role) for d, j in window for role in _ROLES]
        words = _stream_words(rows).reshape(len(window), len(_ROLES), 4)
        yield [(d, j, w) for (d, j), w in zip(window, words)]


def _witness(config: SweepConfig, key: tuple, words: np.ndarray) -> dict:
    """The record of the trial ``key`` = (slack, dim, trial, variant, kind),
    its rho and b drawn again from ``words``, the stream words of its block,
    through the samplers' own recipes. The whole block is drawn, as the
    streams' order requires, and member trial % BLOCK is taken: rho has the
    bits of sample_pure(...).density() or sample_mixed's. Only that member's
    B is factored, and LAPACK factors each member of a stack on its own, so
    b has the bits of sample_observable's."""
    slack, dim, trial, v_idx, k_idx = key
    block, t = divmod(trial, BLOCK)
    n = min(BLOCK, config.trials_per_dim - block * BLOCK)
    streams = dict(zip(_ROLES, _generators(words)))
    mixed = config.variants[v_idx] == "mixed"
    psi = _pure(streams[_ROLE_MIXED if mixed else _ROLE_PURE], (n, dim * (dim if mixed else 1)))
    psi = PureState._made(psi.amplitudes[t])
    rho = partial_trace_aux(psi, dim, dim) if mixed else psi.density()
    g = _gaussian(streams[_ROLE_B], (n, dim, dim))
    b = _phased(*qr_unitary(g[t:t + 1]))[0]
    return {
        "dim": dim,
        "trial": trial,
        "mixedness": config.variants[v_idx],
        "kind": config.kinds[k_idx].value,
        "slack": slack,
        "rho": rho.to_payload(),
        "a": computational_observable(dim).to_payload(),
        "b": ProjectiveObservable._made(b).to_payload(),
        "seed": config.seed,
    }


def run_sweep(
    config: SweepConfig,
    workers: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Run the full sweep in this process, a window of chunks at a time in
    plan order, and report progress per chunk.

    The chunk plan is generated as the run goes and a chunk keeps only its
    complements, so memory does not grow with the trial count; the witness
    is drawn again once, from the stream words of its block. ``workers`` is
    checked and otherwise ignored; it stays only because perfbench's sweep
    workloads still pass it.
    """
    if _integer("workers", workers) < 1:
        raise ValidationError("workers must be at least 1")
    blocks = -(-config.trials_per_dim // BLOCK)
    n_chunks = len(config.dims) * blocks

    total = 0
    violations = 0
    done = 0
    best = None
    for window in _plan(config, blocks):
        count, bad, cand = _run_window(config, window)
        total += count
        violations += bad
        if best is None or cand[0] < best[0]:
            best = cand
        for _ in window:
            done += 1
            if progress is not None:
                progress(f"{done}/{n_chunks} chunks done")

    key, words = best
    return SweepResult(
        total_trials=total,
        violations=violations,
        min_slack=key[0],
        min_slack_witness=_witness(config, key, words),
    )
