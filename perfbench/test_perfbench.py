"""Self-tests of the benchmark harness: python3 -m pytest -q perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads  # first: puts the checkout's src/ on sys.path
import run
import tracing

import fidur.cli
import fidur.linalg
import fidur.metrics
import fidur.states
import fidur.sweep
import fidur.uncertainty

FIDELITY = sys.modules["fidur.fidelity"]


def test_self_time_on_nested_tree():
    S = tracing.Span
    spans = [
        S("root", -1, 0.0, 10.0),
        S("a", 0, 1.0, 4.0),
        S("a1", 1, 2.0, 3.0),
        S("b", 0, 5.0, 9.0),
        S("b1", 3, 5.5, 6.0),
        S("b2", 3, 7.0, 8.5),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 0.5, 1.5])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(name):
    assert workloads.build_inputs(name, 11) == workloads.build_inputs(name, 11)
    assert workloads.build_inputs(name, 11) != workloads.build_inputs(name, 12)


def _values(result):
    return {k: v for k, (v, _unit) in result["metrics"].items()}


def test_traced_triangle_counters_and_restore():
    result = run.run_workload("triangle", seed=5, seconds=0.2, trace=True)
    m = _values(result)
    assert result["failed"] == 0
    # 3 ordered pairs x 3 kinds per triple; each psd_sqrt input recurs per kind.
    assert m["fidelity.fidelity.repeat_ratio"] == 6 / 9
    assert m["linalg.psd_sqrt.repeat_ratio"] == 13 / 18
    assert m["fidelity.fidelity.calls"] == 9 * m["states.sample_mixed.calls"] / 3
    for name in ("sweep.run_sweep", "uncertainty.report_from_probabilities",
                 "uncertainty.max_probability", "states.sample_observable"):
        assert m[f"{name}.calls"] == 0
    assert tracing.leftover_wrappers() == []
    assert fidur.sweep.sample_mixed is fidur.states.sample_mixed
    assert fidur.metrics.fidelity is FIDELITY.fidelity
    assert not hasattr(fidur.states.DensityMatrix.__post_init__, "__wrapped__")
    assert not hasattr(fidur.linalg.psd_sqrt, "__wrapped__")


def test_traced_region_makes_no_sampler_or_linalg_call():
    m = _values(run.run_workload("region", seed=5, seconds=0.2, trace=True))
    assert m["domains.g_boundary.calls"] == 3 * 9 * workloads.REGION_POINTS
    for name in ("states.derived_seed", "states.sample_haar_unitary", "states.sample_mixed",
                 "linalg.psd_sqrt", "linalg.hermitian_eig", "fidelity.fidelity"):
        assert m[f"{name}.calls"] == 0


def _broken_oracle(rho, sigma):
    return 0.5


def _short_csv(samples):
    return "p,g\n"


def _violating_report(kind, p_a, p_b, c):
    return fidur.uncertainty.URReport(p_a, p_b, 0.0, 0.0, c, 1.0, -1.0)


@pytest.mark.parametrize(
    "workload, owner, attr, fake",
    [
        ("triangle", FIDELITY, "fidelity_oracle", _broken_oracle),
        ("region", fidur.cli, "region_csv_text", _short_csv),
        ("sweep", fidur.sweep, "report_from_probabilities", _violating_report),
    ],
)
def test_broken_check_fails_the_run(monkeypatch, capsys, workload, owner, attr, fake):
    monkeypatch.setattr(owner, attr, fake)
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0.2"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert last["correct"] is False and last["failed"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
