"""The program names the benchmark's tracer hooks into still exist and still
take the parameters its counters read, so that deleting or renaming an API
cannot break ``perfbench/run.py --trace 1`` unnoticed; and a short traced
triangle run passes its own checks."""

import importlib
import importlib.util
import inspect
import json
import pathlib
import subprocess
import sys

import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_PATH = _ROOT / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

# The leading parameters each counter hook reads from the bound call.
HOOKED_PARAMETERS = {
    "linalg.psd_sqrt": ("m",),
    "fidelity.fidelity": ("rho", "sigma"),
    "states.sample_mixed": ("dim", "aux_dim"),
    "states.sample_haar_unitary": ("dim",),
}


def _traced(name):
    layer, attr = name.split(".")
    return getattr(importlib.import_module(f"fidur.{layer}"), attr)


@pytest.mark.parametrize("module, attr", tracing.TRACED)
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("cls", tracing.VALIDATED)
def test_validated_class_has_post_init(cls):
    assert callable(getattr(importlib.import_module("fidur.states"), cls).__post_init__)


def test_every_hook_is_covered():
    assert set(tracing._HOOKS) == set(HOOKED_PARAMETERS)


@pytest.mark.parametrize("name", sorted(HOOKED_PARAMETERS))
def test_hooked_parameters_bind(name):
    params = HOOKED_PARAMETERS[name]
    bound = inspect.signature(_traced(name)).bind_partial(*params)
    assert tuple(bound.arguments) == params


def test_short_traced_triangle_run_is_correct():
    # Traced and untraced phases, then the fidelity-versus-oracle check.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "triangle", "--seed", "1",
         "--seconds", "0.2", "--trace", "1"],
        cwd=_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
