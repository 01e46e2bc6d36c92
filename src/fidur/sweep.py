"""Seeded Monte Carlo verification sweeps over the uncertainty relation.

One trial of dimension d draws a Haar observable B and, depending on
``mixedness``, a Haar pure state and/or a generic full-rank mixed state
(auxiliary dimension = d), then evaluates the slack of the relation
U(A;rho) + U(B;rho) >= f(c^2) per requested metric kind and state variant,
on the complements 1 - P_A, 1 - P_B, 1 - c^2 (see ``fidur.uncertainty``)
of the drawn amplitudes alone: each variant draws a Haar pure state of
dimension N*K, read as an N x K matrix M (rho = M M^dag), K = 1 if pure
and K = N if mixed. Only the minimum-slack witness becomes a state.

A is the computational basis: p_i and c are unchanged by (A, B, rho) ->
(A^dag A, A^dag B, A^dag rho A), whose law for a Haar A independent of B
and rho is that of (I, B, rho), so each slack has the law a Haar A gives.

Trials run in blocks of ``BLOCK``: block j of dimension d holds trials
[j*BLOCK, (j+1)*BLOCK), and each of its random objects is drawn as one
stack from the seed derived_seed(seed, d, j, role) of its role, 1 to 3.
The streams of ``_WINDOW`` chunks at a time are derived in one vectorized
pass, bitwise those of derived_seed and np.random.default_rng.
``BLOCK`` is a constant, so the chunk plan, and with it every sample,
depends only on the configuration. The chunks run in this process in plan
order; violations and totals are sums, and the minimum-slack witness is
selected by a total order.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from .config import TOL
from .errors import ValidationError
from .linalg import _integer, _real, adjoint, array_shape
from .metrics import MetricKind, metric_kind
from .states import (
    ProjectiveObservable,
    PureState,
    _generators,
    _pure,
    _stream_words,
    _unitary,
    computational_observable,
    partial_trace_aux,
)
from .uncertainty import _complement, _overlap_complement, _probabilities, _slacks

__all__ = ["BLOCK", "SweepConfig", "SweepResult", "run_sweep"]

_MIXEDNESS = ("pure", "mixed", "both")

# Trials per chunk. Changing it changes every sampled stream.
BLOCK = 64

# Chunks whose streams are derived in one pass; any window gives the same bytes.
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
    """Evaluate the trials of one block of one dimension, drawn from
    ``words``, the (3, 4) uint64 PCG64 words of the block's streams by role.

    Returns (count, violations, best) with best = (sort_key, psi, b):
    the key orders first by slack, then by trial coordinates, so the
    merged minimum is unique and order-free, and the arrays are the
    witness's drawn amplitudes and the basis of B.
    """
    t0 = block * BLOCK
    n = min(BLOCK, config.trials_per_dim - t0)
    streams = dict(zip(_ROLES, _generators(words)))
    b = _unitary(streams[_ROLE_B], array_shape(n, dim, dim))  # as sample_observable draws it
    b_adj = adjoint(b)
    draws = {"pure": (_ROLE_PURE, 1), "mixed": (_ROLE_MIXED, dim)}  # (role, aux dim)
    amplitudes = []
    p = np.empty((2, n, len(config.variants), dim))  # p[observable, trial, variant]
    for v, variant in enumerate(config.variants):
        role, aux = draws[variant]
        psi = _pure(streams[role], (n, dim * aux)).amplitudes  # as sample_pure draws it
        amplitudes.append(psi)
        m = psi.reshape(n, dim, aux)
        p[0, :, v] = (m.real * m.real + m.imag * m.imag).sum(axis=-1)  # A = I
        p[1, :, v] = _probabilities(b_adj, m)
    # y[:, trial, variant] = (1 - P_A, 1 - P_B, 1 - c^2)
    y = np.empty((3, n, len(config.variants)))
    y[:2] = _complement(p)
    y[2] = _overlap_complement(b)[:, None]
    # slack[trial, variant, kind]: the first minimum in C order is the
    # smallest (trial, variant, kind), the witness key's tie-break.
    slack = _slacks(config.kinds, y)[-1]
    t, v, k = map(int, np.unravel_index(np.argmin(slack), slack.shape))
    key = (float(slack[t, v, k]), dim, t0 + t, v, k)
    best = (key, amplitudes[v][t], b[t])
    return slack.size, int(np.count_nonzero(slack < -config.tolerance)), best


def _plan(config: SweepConfig, blocks: int):
    """The chunks' ``_run_chunk`` arguments in plan order, their stream words
    derived ``_WINDOW`` chunks at a time, so a huge plan is never built."""
    chunks = ((d, j) for d in config.dims for j in range(blocks))
    while window := list(itertools.islice(chunks, _WINDOW)):
        rows = [(config.seed, d, j, role) for d, j in window for role in _ROLES]
        words = _stream_words(rows).reshape(len(window), len(_ROLES), 4)
        yield from ((config, d, j, w) for (d, j), w in zip(window, words))


def _witness(config: SweepConfig, best) -> dict:
    (slack, dim, trial, v_idx, k_idx), psi, b = best
    psi = PureState(psi)  # rho has the bits of sample_pure(...).density() or sample_mixed's
    rho = psi.density() if psi.dim == dim else partial_trace_aux(psi, dim, dim)
    return {
        "dim": dim,
        "trial": trial,
        "mixedness": config.variants[v_idx],
        "kind": config.kinds[k_idx].value,
        "slack": slack,
        "rho": rho.to_payload(),
        "a": computational_observable(dim).to_payload(),
        "b": ProjectiveObservable(b).to_payload(),
        "seed": config.seed,
    }


def run_sweep(
    config: SweepConfig,
    workers: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Run the full sweep in this process, chunk by chunk in plan order.

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
    best = None
    results = itertools.starmap(_run_chunk, _plan(config, blocks))
    for done, (count, bad, cand) in enumerate(results, start=1):
        total += count
        violations += bad
        if best is None or cand[0] < best[0]:
            best = cand
        if progress is not None:
            progress(f"{done}/{n_chunks} chunks done")

    return SweepResult(
        total_trials=total,
        violations=violations,
        min_slack=best[0][0],
        min_slack_witness=_witness(config, best),
    )
