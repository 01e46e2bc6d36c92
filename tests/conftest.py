"""Fixtures shared by the test modules."""

import collections
import ctypes
import pathlib

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


@pytest.fixture(scope="session")
def blas_core() -> str:
    """The kernel ("SkylakeX", "Haswell", ...) that the OpenBLAS bundled with
    numpy chose at run time, or "unknown". The bits of QR, matmul and eigh
    depend on it, so every pinned digest holds for one kernel only, and its
    failure message names the kernel of the run."""
    libs = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode("ascii", "replace")
    return "unknown"
