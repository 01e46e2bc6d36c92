"""Run fidur benchmark workloads and print their metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

``--workload all`` runs every workload, one after another, in this process.
With ``--trace 0`` a run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer metrics of a traced run. Human-readable lines come
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit status is
0 only when every correctness check passed.

The benchmark never sets a BLAS or OpenMP thread variable: it measures the
program as a user's shell runs it and records the variables as found.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import workloads  # first of the local modules: puts the checkout's src/ on sys.path
import tracing

HERE = Path(__file__).resolve().parent
SETUP_PROBE = HERE / "setup_probe.py"
SETUP_REPEATS = 7
# Units in a traced phase: fixed, so that call counts repeat exactly.
TRACED_UNITS = {"sweep": 3, "sweep-pool": 2, "triangle": 20, "region": 3}
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
POOL_NOTE = (
    "note: sweep-pool runs its trials in forked workers whose spans are lost; "
    "its per-layer numbers are parent-side only (sweep.run_sweep, sweep.chunks, process.*)"
)


def provenance() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def cpu_now() -> float:
    """CPU seconds of this process (all threads) plus its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def children_cpu() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def host_ticks():
    """(steal, total) CPU ticks of the whole guest from /proc/stat, or None.

    Steal is time the hypervisor ran something else on our virtual CPUs;
    it inflates wall time, not CPU time.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (Linux: KiB)."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024.0


class Phase:
    """Timed units of one workload; checks run between units, untimed."""

    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.rates = []  # ops per wall second, one per unit, for the spread
        self.wall = 0.0
        self.cpu = 0.0
        self.child_cpu = 0.0
        self.attempted = 0
        self.failed = 0

    def run(self, seconds: float | None = None, units: int | None = None) -> "Phase":
        wl = self.wl
        start = time.perf_counter()
        i = 0
        while i < units if units is not None else time.perf_counter() - start < seconds:
            k0, c0, t0 = children_cpu(), cpu_now(), time.perf_counter()
            try:
                out = wl.unit(i)
            except Exception:
                workloads.report_exception(f"{wl.name} unit {i}")
                out = None
            t1, c1, k1 = time.perf_counter(), cpu_now(), children_cpu()
            with _untraced(wl.tracer):
                self.failed += wl.check(out)
            self.attempted += wl.ops_per_unit
            self.rates.append(wl.ops_per_unit / (t1 - t0))
            self.wall += t1 - t0
            self.cpu += c1 - c0
            self.child_cpu += k1 - k0
            i += 1
        with _untraced(wl.tracer):
            self.failed += wl.final_check()
        return self

    @property
    def ops_per_s(self) -> float:
        return self.attempted / self.wall

    @property
    def cpu_s_per_kop(self) -> float:
        return self.cpu * 1000.0 / self.attempted


@contextlib.contextmanager
def _untraced(tracer):
    """Checks call fidur too; those calls must not count as the workload's."""
    if tracer is None:
        yield
        return
    tracer.paused = True
    try:
        yield
    finally:
        tracer.paused = False


def measure_setup(name: str, seed: int) -> list:
    """Wall seconds from spawning a fresh interpreter until it has imported
    fidur and built the workload's inputs, SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(SETUP_PROBE), name, str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, output {line!r})")
        times.append(elapsed)
    return times


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q = statistics.quantiles(values, n=4)
    return (q[0], statistics.median(values), q[2])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload: the metric table plus attempted/failed."""
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=workloads.ROOT))
    try:
        wl = workloads.make_workload(name, seed, workdir)
        try:
            ticks0 = host_ticks()
            plain = Phase(wl).run(seconds=seconds)
            ticks1 = host_ticks()
            rss = peak_rss_mb()
            traced = tracer = None
            if trace:
                tracer = tracing.Tracer()
                undo = tracing.install(tracer)
                wl.tracer = tracer
                try:
                    traced = Phase(wl).run(units=TRACED_UNITS[name])
                finally:
                    wl.tracer = None
                    tracing.restore(undo)
        finally:
            wl.close()
        setup = [] if trace else measure_setup(name, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = plain.attempted + (traced.attempted if traced else 0)
    failed = plain.failed + (traced.failed if traced else 0)
    lines = [
        f"  unit ops_per_s quartiles {' / '.join(f'{x:.6g}' for x in _quartiles(plain.rates))}"
        f" over {len(plain.rates)} units of {wl.ops_per_unit} ops",
        f"  fail_ratio = {failed / attempted:.6g} ratio ({failed}/{attempted})",
    ]
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        steal = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
        lines.append(f"  host steal = {steal:.1%} of all CPU time during the timed units")
    if trace:
        metrics = tracing.layer_metrics(tracer)
        metrics.update(tracer.counter_metrics())
        untraced_rate = plain.ops_per_s
        traced_rate = traced.ops_per_s
        metrics["process.cpu_per_wall"] = (plain.cpu / plain.wall, "s/s")
        metrics["process.children_cpu_s_per_kop"] = (
            plain.child_cpu * 1000.0 / plain.attempted,
            "s",
        )
        metrics["trace.ops_per_s_untraced"] = (untraced_rate, "1/s")
        metrics["trace.ops_per_s_traced"] = (traced_rate, "1/s")
        metrics["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")
        if name == "sweep-pool":
            lines.append("  " + POOL_NOTE)
    else:
        # Totals over the run, not medians of units: on a shared VM, host
        # contention comes and goes over seconds, and whole-run totals vary
        # least between runs.
        metrics = {
            "ops_per_s": (plain.ops_per_s, "1/s"),
            "cpu_s_per_kop": (plain.cpu_s_per_kop, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        lines.append(f"  setup_s samples {' '.join(f'{x:.4f}' for x in setup)}")
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "lines": lines}


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def _seconds(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("seconds must be positive")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=_seconds, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"perfbench seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    total = {}
    attempted = failed = 0
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"workload {name}")
        for key, (value, unit) in result["metrics"].items():
            print(f"  {key} = {value:.6g} {unit}")
            total[key if len(names) == 1 else f"{name}.{key}"] = {"value": value, "unit": unit}
        for line in result["lines"]:
            print(line)
    correct = failed == 0
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": total}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
