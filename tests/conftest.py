"""Fixtures shared by the test modules."""

import collections

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
