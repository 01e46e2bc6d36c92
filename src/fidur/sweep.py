"""Seeded Monte Carlo verification sweeps over the uncertainty relation.

One trial of dimension d draws two Haar observables and, depending on
``mixedness``, a Haar pure state and/or a generic full-rank mixed state
(auxiliary dimension = d), then evaluates one URReport per requested
metric kind and state variant.

Trials run in blocks of ``BLOCK``: block j of dimension d holds trials
[j*BLOCK, (j+1)*BLOCK), and each of its random objects is drawn as one
stack from the seed derived_seed(seed, d, j, role). ``BLOCK`` is a
constant, so the chunk plan, and with it every sample, depends only on
the configuration, not on the worker count or the execution order;
results from any assignment of chunks to workers merge into the same
SweepResult (violations and totals are sums, the minimum-slack witness
is selected by a total order).
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .config import TOL
from .errors import ValidationError
from .metrics import MetricKind, metric_kind
from .states import (
    DensityMatrix,
    ProjectiveObservable,
    _integer,
    derived_seed,
    sample_mixed,
    sample_observable,
    sample_pure,
)
from .uncertainty import overlap, max_probability, report_from_probabilities

__all__ = ["BLOCK", "SweepConfig", "SweepResult", "run_sweep"]

_MIXEDNESS = ("pure", "mixed", "both")

# Trials per chunk. Changing it changes every sampled stream.
BLOCK = 64

# per-block sampler roles
_ROLE_A = 0
_ROLE_B = 1
_ROLE_PURE = 2
_ROLE_MIXED = 3


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
            dims = tuple(self.dims)
        except TypeError:
            raise ValidationError("dims must be a list of integers") from None
        dims = tuple(_integer("dims entry", d) for d in dims)
        if not dims or any(d < 2 for d in dims):
            raise ValidationError("dims must be a nonempty list of integers >= 2")
        kinds = tuple(self.kinds)
        if not kinds:
            raise ValidationError("at least one metric kind is required")
        if _integer("trials_per_dim", self.trials_per_dim) < 1:
            raise ValidationError("trials_per_dim must be at least 1")
        if _integer("seed", self.seed) < 0:
            raise ValidationError("seed must be non-negative")
        if self.mixedness not in _MIXEDNESS:
            raise ValidationError(f"mixedness must be one of {_MIXEDNESS}")
        if (
            isinstance(self.tolerance, bool)
            or not isinstance(self.tolerance, numbers.Real)
            or not 0 < self.tolerance < math.inf
        ):
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
        return {
            "dims": list(self.dims),
            "trials_per_dim": self.trials_per_dim,
            "seed": self.seed,
            "kinds": [k.value for k in self.kinds],
            "mixedness": self.mixedness,
            "tolerance": self.tolerance,
        }

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
        return cls(
            dims=payload["dims"],
            trials_per_dim=payload["trials_per_dim"],
            seed=payload["seed"],
            kinds=tuple(metric_kind(k) for k in payload["kinds"]),
            mixedness=payload["mixedness"],
            tolerance=payload.get("tolerance", TOL.ur_slack),
        )


@dataclass(frozen=True)
class SweepResult:
    """total_trials counts URReport evaluations (dims x trials x variants x kinds)."""

    total_trials: int
    violations: int
    min_slack: float
    min_slack_witness: dict

    def to_payload(self) -> dict:
        return {
            "total_trials": self.total_trials,
            "violations": self.violations,
            "min_slack": self.min_slack,
            "min_slack_witness": self.min_slack_witness,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True)


def _run_chunk(config: SweepConfig, dim: int, block: int):
    """Evaluate the trials of one block of one dimension.

    Returns (count, violations, best) with best = (sort_key, rho, a, b):
    the key orders first by slack, then by trial coordinates, so the
    merged minimum is unique and order-free, and the matrices are the
    witness's state and observable bases.
    """
    t0 = block * BLOCK
    n = min(BLOCK, config.trials_per_dim - t0)

    def seed(role: int) -> int:
        return derived_seed(config.seed, dim, block, role)

    a = sample_observable(dim, seed(_ROLE_A), n)
    b = sample_observable(dim, seed(_ROLE_B), n)
    c = overlap(a, b)
    count = 0
    violations = 0
    best = None
    for v_idx, variant in enumerate(config.variants):
        if variant == "pure":
            rho = sample_pure(dim, seed(_ROLE_PURE), n).density()
        else:
            rho = sample_mixed(dim, dim, seed(_ROLE_MIXED), n)
        p_a, _ = max_probability(a, rho)
        p_b, _ = max_probability(b, rho)
        for k_idx, kind in enumerate(config.kinds):
            report = report_from_probabilities(kind, p_a, p_b, c)
            slack = np.broadcast_to(np.asarray(report.slack, dtype=np.float64), (n,))
            count += n
            violations += int(np.count_nonzero(slack < -config.tolerance))
            i = int(np.argmin(slack))
            key = (float(slack[i]), dim, t0 + i, v_idx, k_idx)
            if best is None or key < best[0]:
                best = (key, rho.matrix[i], a.eigenbasis[i], b.eigenbasis[i])
    return count, violations, best


def _chunk_worker(args):
    return _run_chunk(*args)


def _witness(config: SweepConfig, best) -> dict:
    (slack, dim, trial, v_idx, k_idx), rho, a, b = best
    return {
        "dim": dim,
        "trial": trial,
        "mixedness": config.variants[v_idx],
        "kind": config.kinds[k_idx].value,
        "slack": slack,
        "rho": DensityMatrix(rho).to_payload(),
        "a": ProjectiveObservable(a).to_payload(),
        "b": ProjectiveObservable(b).to_payload(),
        "seed": config.seed,
    }


def run_sweep(
    config: SweepConfig,
    workers: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Run the full sweep; identical output for any worker count.

    At most min(workers, chunks, CPUs) worker processes are started; with
    one, the chunks run in this process.
    """
    if workers < 1:
        raise ValidationError("workers must be at least 1")
    blocks = -(-config.trials_per_dim // BLOCK)
    chunks = [(config, d, j) for d in config.dims for j in range(blocks)]
    workers = min(workers, len(chunks), os.cpu_count() or 1)

    total = 0
    violations = 0
    best = None
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    with pool or contextlib.nullcontext():
        results = (pool.map if pool else map)(_chunk_worker, chunks)
        for done, (count, bad, cand) in enumerate(results, start=1):
            total += count
            violations += bad
            if best is None or cand[0] < best[0]:
                best = cand
            if progress is not None:
                progress(f"{done}/{len(chunks)} chunks done")

    return SweepResult(
        total_trials=total,
        violations=violations,
        min_slack=best[0][0],
        min_slack_witness=_witness(config, best),
    )
