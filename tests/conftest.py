"""Fixtures shared by the test modules."""

import collections
import ctypes
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import fidur.linalg


@pytest.fixture
def solver_calls(monkeypatch) -> collections.Counter:
    """Count the calls of the one LAPACK seam, as "eigh" (with eigenvectors)
    and "eigvalsh" (eigenvalues only), from the start of the test."""
    counts = collections.Counter()
    solve = fidur.linalg.eigensolve

    def counted(h, vectors=False):
        counts["eigh" if vectors else "eigvalsh"] += 1
        return solve(h, vectors)

    monkeypatch.setattr(fidur.linalg, "eigensolve", counted)
    return counts


def openblas_core() -> str:
    """The kernel ("SkylakeX", "Haswell", ...) that the OpenBLAS bundled with
    numpy chose at run time, or "unknown"."""
    libs = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode("ascii", "replace")
    return "unknown"


@pytest.fixture(scope="session")
def pinned():
    """``pinned(pins)``: the value that ``pins``, a dict keyed by (numpy
    version, OpenBLAS kernel), holds for this run's key. The bits of QR,
    matmul and eigh depend on both, so a byte pin holds for one key only; on
    a key with no pin the test skips, naming the key, and the value-level
    tests across kernels still hold what every kernel must keep."""
    key = (np.__version__, openblas_core())

    def pin(pins: dict):
        if key not in pins:
            pytest.skip(f"no pin for numpy {key[0]} under the OpenBLAS kernel {key[1]}")
        return pins[key]

    return pin


# A fresh interpreter, with fidur's sources and this directory on its path,
# that prints its OpenBLAS kernel, then the output of the code that follows.
_CHILD = f"""
import importlib, json, sys
sys.path[:0] = [{str(pathlib.Path(fidur.linalg.__file__).resolve().parents[1])!r},
                {str(pathlib.Path(__file__).resolve().parent)!r}]
from conftest import openblas_core
print(openblas_core())
"""
# ... the JSON of run_sweep on the config payload given as its first argument.
_CHILD_SWEEP = _CHILD + """
from fidur.sweep import SweepConfig, run_sweep
print(run_sweep(SweepConfig.from_payload(json.loads(sys.argv[1]))).to_json())
"""
# ... json.dumps of what the function "module:name" of this directory,
# given as its first argument, returns.
_CHILD_CALL = _CHILD + """
module, name = sys.argv[1].split(":")
print(json.dumps(getattr(importlib.import_module(module), name)()))
"""


def _in_child(code: str, arg: str, env: dict) -> tuple[str, str]:
    """Run ``code`` with ``arg`` in a fresh interpreter, ``env`` added to the
    environment of that child only; its OpenBLAS kernel and output line."""
    proc = subprocess.run(
        [sys.executable, "-c", code, arg],
        env={**os.environ, **env}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    core, text = proc.stdout.splitlines()
    return core, text


@pytest.fixture(scope="session")
def sweep_in_child():
    """``run(config, **env)`` runs ``run_sweep(config)`` in a fresh interpreter,
    with ``env`` added to the environment of that child only, and returns
    the child's OpenBLAS kernel, read as ``openblas_core`` reads it, and its
    result JSON."""

    def run(config, **env) -> tuple[str, str]:
        return _in_child(_CHILD_SWEEP, json.dumps(config.to_payload()), env)

    return run


@pytest.fixture(scope="session")
def call_in_child():
    """``run("module:name", **env)`` calls the function ``name`` of the test
    module ``module`` in a fresh interpreter, with ``env`` added to the
    environment of that child only, and returns the child's OpenBLAS kernel
    and the function's JSON-able result, read back."""

    def run(target: str, **env) -> tuple[str, object]:
        core, text = _in_child(_CHILD_CALL, target, env)
        return core, json.loads(text)

    return run
