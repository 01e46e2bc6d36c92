"""Benchmark workloads: inputs made from a seed, timed units, correctness checks.

Each workload runs one fixed-size *unit* of work again and again. A unit is
timed from outside the program; the checks on its output run after the
timer has stopped. Operation counts per unit:

* sweep, sweep-pool: one URReport each (9 dims x 20 trials x 2 variants x
  3 kinds = 1080 per ``run_sweep`` call);
* triangle: one (rho, sigma, tau) triple checked under all three kinds
  (7 dims x 2 triples = 14 per unit);
* region: one exported (p, g(p)) point (9 CSVs x 1001 points per unit).

Importing this module puts the checkout's ``src/`` first on ``sys.path``
so that the benchmark always measures the sources next to it.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import random
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "fidur" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: fidur sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from fidur import cli, domains, metrics, states, sweep  # noqa: E402
from fidur.domains import DomainSpec  # noqa: E402
from fidur.metrics import MetricKind  # noqa: E402
from fidur.sweep import SweepConfig  # noqa: E402

# The package attribute fidur.fidelity is the function, not the module.
fidelity = importlib.import_module("fidur.fidelity")

KINDS = tuple(MetricKind)

SWEEP_DIMS = tuple(range(2, 11))
SWEEP_TRIALS = 20
POOL_WORKERS = 2

TRIANGLE_DIMS = tuple(range(2, 9))
TRIANGLE_TRIALS = 2  # triples per dimension in one unit
TRIANGLE_SLACK = -1e-9
ORACLE_TOL = 1e-9

REGION_DIM = 20
REGION_POINTS = 1001
REGION_OVERLAPS = (1.0 / math.sqrt(20.0), math.sqrt(0.2), math.sqrt(0.4))
BOUNDARY_TOL = 1e-10


def sweep_config(seed: int) -> SweepConfig:
    """The c04-shaped sweep: dims 2..10, both state variants, all kinds."""
    return SweepConfig(
        dims=SWEEP_DIMS,
        trials_per_dim=SWEEP_TRIALS,
        seed=seed,
        kinds=KINDS,
        mixedness="both",
    )


def region_specs(seed: int) -> list:
    """The c08-shaped domains, 3 kinds x 3 overlaps at dim 20, in seed order."""
    specs = [DomainSpec(kind, c, REGION_DIM) for c in REGION_OVERLAPS for kind in KINDS]
    random.Random(seed).shuffle(specs)
    return specs


def build_inputs(name: str, seed: int):
    """Everything the program receives for one run of workload ``name``."""
    if name in ("sweep", "sweep-pool"):
        return sweep_config(seed)
    if name == "triangle":
        return (seed, TRIANGLE_DIMS, TRIANGLE_TRIALS)
    if name == "region":
        return region_specs(seed)
    raise ValueError(f"unknown workload {name!r}")


def report_exception(where: str) -> None:
    print(f"perfbench: {where} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Workload:
    """One workload. ``unit`` is timed; ``check`` and ``final_check`` are not.

    ``check(output)`` returns the number of failed operations of one unit
    (``output`` is None when the unit raised); ``final_check`` returns the
    number found by the checks that run once, after the last unit.
    """

    name = ""
    ops_per_unit = 0
    tracer = None  # set while a traced phase runs

    def unit(self, index: int):
        raise NotImplementedError

    def check(self, output) -> int:
        raise NotImplementedError

    def final_check(self) -> int:
        return 0

    def close(self) -> None:
        pass


class Sweep(Workload):
    """``run_sweep`` on the c04 shape; every unit repeats the same config."""

    ops_per_unit = len(SWEEP_DIMS) * SWEEP_TRIALS * 2 * len(KINDS)

    def __init__(self, seed: int, workers: int):
        self.name = "sweep" if workers == 1 else "sweep-pool"
        self.config = sweep_config(seed)
        self.workers = workers
        self.first_json = None

    def _progress(self, message: str) -> None:
        if self.tracer is not None:
            self.tracer.add("sweep.chunks")

    def unit(self, index: int):
        return sweep.run_sweep(self.config, workers=self.workers, progress=self._progress)

    def check(self, output) -> int:
        if output is None:
            return self.ops_per_unit
        text = output.to_json()
        if self.first_json is None:
            self.first_json = text
        if text != self.first_json or output.total_trials != self.ops_per_unit:
            print(f"perfbench: {self.name} result differs between repeats", file=sys.stderr)
            return self.ops_per_unit
        return output.violations

    def final_check(self) -> int:
        if self.workers == 1 or self.first_json is None:
            return 0
        # The README determinism contract: any worker count, same bytes.
        serial = sweep.run_sweep(self.config, workers=1).to_json()
        if serial != self.first_json:
            print("perfbench: sweep-pool result differs from the serial sweep", file=sys.stderr)
            return self.ops_per_unit
        return 0


class Triangle(Workload):
    """The c03 shape: three sampled mixed states, 3 pairs x 3 kinds per triple."""

    name = "triangle"
    ops_per_unit = len(TRIANGLE_DIMS) * TRIANGLE_TRIALS

    def __init__(self, seed: int):
        self.seed = seed
        self.samples = []  # one triple per unit, for the oracle cross-check

    def _triple(self, dim: int, trial: int) -> tuple:
        if self.tracer is not None:
            self.tracer.begin_op()
        rho, sigma, tau = (
            states.sample_mixed(dim, dim, states.derived_seed(self.seed, dim, trial, k))
            for k in range(3)
        )
        worst = math.inf
        for kind in KINDS:
            slack = (
                metrics.metric_distance(kind, sigma, rho)
                + metrics.metric_distance(kind, tau, rho)
                - metrics.metric_distance(kind, sigma, tau)
            )
            worst = min(worst, slack)
        return worst, (rho, sigma, tau)

    def unit(self, index: int):
        out = []
        for dim in TRIANGLE_DIMS:
            for j in range(TRIANGLE_TRIALS):
                try:
                    out.append(self._triple(dim, index * TRIANGLE_TRIALS + j))
                except Exception:
                    report_exception(f"triangle dim {dim}")
                    out.append(None)
        return out

    def check(self, output) -> int:
        if output is None:
            return self.ops_per_unit
        failed = sum(1 for r in output if r is None or not r[0] >= TRIANGLE_SLACK)
        sampled = output[len(self.samples) % len(output)]
        if sampled is not None:
            self.samples.append(sampled[1])
        return failed

    def final_check(self) -> int:
        failed = 0
        for rho, sigma, tau in self.samples:
            for a, b in ((sigma, rho), (tau, rho), (sigma, tau)):
                f = fidelity.fidelity(a, b)
                g = fidelity.fidelity_oracle(a, b)
                if not abs(f - g) <= ORACLE_TOL:
                    print(f"perfbench: fidelity {f!r} vs oracle {g!r}", file=sys.stderr)
                    failed += 1
                    break
        return failed


class Region(Workload):
    """The c08 shape: ``cmd_region`` for 9 domains, CSVs into a scratch dir."""

    name = "region"

    def __init__(self, seed: int, workdir: Path):
        self.specs = region_specs(seed)
        self.ops_per_unit = len(self.specs) * REGION_POINTS
        self.paths = [workdir / f"region_{i}.csv" for i in range(len(self.specs))]
        self.first_texts = None

    def unit(self, index: int):
        with contextlib.redirect_stdout(io.StringIO()):
            for spec, path in zip(self.specs, self.paths):
                cli.cmd_region(spec.kind, spec.overlap_c, spec.dim, REGION_POINTS, str(path))
        return True

    def check(self, output) -> int:
        if output is None:
            return self.ops_per_unit
        texts = [p.read_text(encoding="utf-8") for p in self.paths]
        if self.first_texts is None:
            self.first_texts = texts
        failed = 0
        for text, first in zip(texts, self.first_texts):
            lines = text.splitlines()
            if text != first or lines[0] != "p,g" or len(lines) != REGION_POINTS + 1:
                failed += REGION_POINTS
        return failed

    def final_check(self) -> int:
        """Curved-branch rows against the quadratic route, flat rows equal 1."""
        failed = 0
        for spec, text in zip(self.specs, self.first_texts or []):
            c = spec.overlap_c
            for line in text.splitlines()[1:]:
                p, g = (float(x) for x in line.split(","))
                if p > c * c:
                    ref = domains.boundary_from_quadratic(spec.kind, c, p)
                    h = domains.h_boundary(spec.kind, c, p)
                    ok = abs(g - ref) <= BOUNDARY_TOL and abs(h - ref) <= BOUNDARY_TOL
                else:
                    ok = g == 1.0
                failed += not ok
        return failed

    def close(self) -> None:
        for path in self.paths:
            path.unlink(missing_ok=True)


WORKLOADS = ("sweep", "sweep-pool", "triangle", "region")


def make_workload(name: str, seed: int, workdir: Path) -> Workload:
    if name == "sweep":
        return Sweep(seed, workers=1)
    if name == "sweep-pool":
        return Sweep(seed, workers=POOL_WORKERS)
    if name == "triangle":
        return Triangle(seed)
    if name == "region":
        return Region(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
