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
def blas_core() -> str:
    """This run's OpenBLAS kernel (``openblas_core``). The bits of QR, matmul
    and eigh depend on it, so every pinned digest holds for one kernel only,
    and its failure message names the kernel of the run."""
    return openblas_core()


# A fresh interpreter that prints its OpenBLAS kernel, then the JSON of
# run_sweep on the config payload given as its first argument.
_CHILD_SWEEP = f"""
import json, sys
sys.path[:0] = [{str(pathlib.Path(fidur.linalg.__file__).resolve().parents[1])!r},
                {str(pathlib.Path(__file__).resolve().parent)!r}]
from conftest import openblas_core
from fidur.sweep import SweepConfig, run_sweep
print(openblas_core())
print(run_sweep(SweepConfig.from_payload(json.loads(sys.argv[1]))).to_json())
"""


@pytest.fixture(scope="session")
def sweep_in_child():
    """``run(config, **env)`` runs ``run_sweep(config)`` in a fresh interpreter,
    with ``env`` added to the environment of that child only, and returns
    the child's OpenBLAS kernel, read as ``blas_core`` reads it, and its
    result JSON."""

    def run(config, **env) -> tuple[str, str]:
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD_SWEEP, json.dumps(config.to_payload())],
            env={**os.environ, **env}, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        core, text = proc.stdout.splitlines()
        return core, text

    return run
