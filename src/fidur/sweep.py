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
round-off only; only the minimum-slack witness is finished as the
samplers finish it, and only it becomes a state.

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
and go through one slack stage. Violations and totals are sums, and the
minimum-slack witness is selected by a total order, so neither depends on
the window.
"""

from __future__ import annotations

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
    _gaussian,
    _generators,
    _normalized,
    _phased,
    _scaled,
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

# A window's chunks keep their draws until its slack stage, so a window also
# ends before its draws would pass this many bytes; it always takes one chunk.
_WINDOW_BYTES = 8 * 2**20

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


def _run_chunk(config: SweepConfig, dim: int, block: int, words: np.ndarray):
    """The complements of the trials of one block of one dimension, drawn
    from ``words``, the (3, 4) uint64 PCG64 words of the block's streams by role.

    Returns (y, draws) with y[:, trial, variant] = (1 - P_A, 1 - P_B, 1 - c^2)
    and ``draws`` = (x, q, r), from which ``_run_window`` takes a witness.
    y comes from the raw draws: the states' standard normals before ``_pure``
    scales and normalizes them (1 - P does not change with a state's scale),
    and B's Q factor and R diagonal before ``_unitary``'s phase fix (|b_ij|^2
    and |B^dag M|^2 do not change with unit phases on B's columns).

    x[trial] holds the rows of M^T (each variant's state, its amplitudes read
    as an N x K matrix M), of (Q^dag M)^T = M^T conj(Q) and of Q^T: one
    product for both variants, one |.|^2 pass and one grouping of rows give
    every distribution of the trial along the last axis, and one
    ``_complement`` call gives their 1 - P.
    """
    n = min(BLOCK, config.trials_per_dim - block * BLOCK)
    rows = _variant_rows(config, dim)
    k = rows[-1]
    x = np.empty(array_shape(n, 2 * k + dim, dim), dtype=np.complex128)
    streams = dict(zip(_ROLES, _generators(words)))
    q, r = qr_unitary(_gaussian(streams[_ROLE_B], (n, dim, dim)))  # as _unitary draws it
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
    return y, (x, q, r.copy())  # r views the R factor; the copy lets it go


def _variant_rows(config: SweepConfig, dim: int) -> list:
    """Where each variant's rows of M^T start in a chunk's x, and where the
    last one ends: a pure variant has K = 1 row, a mixed one K = N."""
    rows = [0]
    for variant in config.variants:
        rows.append(rows[-1] + (dim if variant == "mixed" else 1))
    return rows


def _run_window(config: SweepConfig, window: list):
    """Evaluate a window of chunks, each a (dim, block, words) of ``_plan``,
    with one slack stage over all their trials.

    Returns (count, violations, best) with best = (sort_key, draws): the
    key orders first by slack, then by trial coordinates, so the merged
    minimum is unique and order-free, and ``draws`` are copies of the
    witness's raw amplitudes, flat with index n*K + k, and of its B's Q
    factor and R diagonal.
    """
    chunks = [_run_chunk(config, *chunk) for chunk in window]
    ys = [y for y, _ in chunks]
    firsts = np.cumsum([0] + [y.shape[1] for y in ys])  # each chunk's first row
    # slack[row, variant, kind] over the window's trials in plan order.
    slack = _slacks(config.kinds, np.concatenate(ys, axis=1))[-1]
    keys = []
    for i, v, k in zip(*np.unravel_index(np.flatnonzero(slack == slack.min()), slack.shape)):
        c = int(np.searchsorted(firsts, i, side="right")) - 1
        dim, block, _ = window[c]
        t = int(i - firsts[c])
        keys.append((float(slack[i, v, k]), dim, block * BLOCK + t, int(v), int(k), c, t))
    *key, c, t = min(keys)
    x, q, r = chunks[c][1]
    start, stop = _variant_rows(config, window[c][0])[key[3]:key[3] + 2]
    best = (tuple(key), (x[t, start:stop].T.flatten(), q[t].copy(), r[t].copy()))
    return slack.size, int(np.count_nonzero(slack < -config.tolerance)), best


def _plan(config: SweepConfig, blocks: int):
    """The chunks in plan order, a window at a time: lists of (dim, block,
    words) of at most ``_WINDOW`` chunks and ``_WINDOW_BYTES`` of kept draws,
    their stream words derived one window at a time, so a huge plan is never
    built."""

    def with_words(window):
        rows = [(config.seed, d, j, role) for d, j in window for role in _ROLES]
        words = _stream_words(rows).reshape(len(window), len(_ROLES), 4)
        return [(d, j, w) for (d, j), w in zip(window, words)]

    window, size = [], 0
    for d in config.dims:
        for j in range(blocks):
            # The x and q a chunk keeps: n N (2K + N) and n N^2 complex entries.
            n = min(BLOCK, config.trials_per_dim - j * BLOCK)
            kept = 16 * n * d * (2 * _variant_rows(config, d)[-1] + 2 * d)
            if window and (len(window) == _WINDOW or size + kept > _WINDOW_BYTES):
                yield with_words(window)
                window, size = [], 0
            window.append((d, j))
            size += kept
    yield with_words(window)


def _witness(config: SweepConfig, best) -> dict:
    (slack, dim, trial, v_idx, k_idx), (psi, q, r) = best
    # Scaled, normalized and phase-fixed as the samplers do it, elementwise:
    # rho has the bits of sample_pure(...).density() or sample_mixed's, b of
    # sample_observable's.
    psi = _normalized(_scaled(psi))
    rho = psi.density() if psi.dim == dim else partial_trace_aux(psi, dim, dim)
    return {
        "dim": dim,
        "trial": trial,
        "mixedness": config.variants[v_idx],
        "kind": config.kinds[k_idx].value,
        "slack": slack,
        "rho": rho.to_payload(),
        "a": computational_observable(dim).to_payload(),
        "b": ProjectiveObservable._made(_phased(q, r)).to_payload(),
        "seed": config.seed,
    }


def run_sweep(
    config: SweepConfig,
    workers: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Run the full sweep in this process, a window of chunks at a time in
    plan order, and report progress per chunk.

    The chunk plan is generated as the run goes, so memory does not grow
    with the trial count. ``workers`` is checked and otherwise ignored; it
    stays only because perfbench's sweep workloads still pass it.
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

    return SweepResult(
        total_trials=total,
        violations=violations,
        min_slack=best[0][0],
        min_slack_witness=_witness(config, best),
    )
