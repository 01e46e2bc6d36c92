"""The tolerance record and the one guard-band clamp that reads it."""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from fidur.config import TOL, Tolerances, clamp
from fidur.errors import DomainError, ValidationError
from fidur.fidelity import fidelity, fidelity_oracle, fidelity_pure_mixed
from fidur.states import (
    DensityMatrix,
    ProjectiveObservable,
    PureState,
    derived_seed,
    sample_haar_unitary,
)
from fidur.uncertainty import outcome_probabilities, overlap

SRC = Path(__file__).resolve().parents[1] / "src" / "fidur"
GUARDS = ("fidelity_guard", "probability_clamp", "overlap_guard", "metric_domain_guard",
          "domain_guard")


class TestClamp:
    @pytest.mark.parametrize("x", [0.25, np.float64(0.25)], ids=["float", "np.float64"])
    def test_float_in_float_out(self, x):
        y = clamp(x, "domain_guard")
        assert type(y) is np.float64 and y == 0.25

    def test_array_in_array_out(self):
        for x, shape in (([0.25, 0.5], (2,)), (np.full((2, 3), 0.5), (2, 3))):
            y = clamp(x, "domain_guard")
            assert type(y) is np.ndarray and y.dtype == np.float64 and y.shape == shape
        assert type(clamp(1, "domain_guard")) is np.float64

    @pytest.mark.parametrize("guard", GUARDS)
    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.25, 1.0)])
    def test_just_inside_the_band_clamps_to_the_edge(self, guard, lo, hi):
        band = getattr(TOL, guard)
        for x, edge in ((lo - band / 2, lo), (hi + band / 2, hi)):
            assert clamp(x, guard, lo, hi) == edge
            assert np.array_equal(clamp(np.array([x, 0.5]), guard, lo, hi), [edge, 0.5])

    @pytest.mark.parametrize("guard", GUARDS)
    def test_outside_the_band_raises(self, guard):
        band = getattr(TOL, guard)
        for x in (-2 * band, 1.0 + 2 * band, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                clamp(x, guard)
            with pytest.raises(DomainError):
                clamp(np.array([0.5, x]), guard)


def _names_read(path: Path):
    """Tolerance names read in ``path``: ``TOL.<name>`` and ``clamp(x, "<name>", ...)``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "TOL":
            yield node.attr
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "clamp"
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
            yield node.args[1].value


def test_every_tolerance_is_read():
    read = {name for path in SRC.glob("*.py") if path.name != "config.py"
            for name in _names_read(path)}
    assert [f.name for f in dataclasses.fields(Tolerances) if f.name not in read] == []


def _edge(dim: int, seed: int, spectrum):
    """rho = U diag(spectrum) U^dag and the basis U with its first vector
    scaled until the Gram matrix is off by ``TOL.orthonormal``, for a Haar
    U; None where round-off puts either just beyond its constructor's edge."""
    u = sample_haar_unitary(dim, seed)
    e = u.copy()
    e[:, 0] *= math.sqrt(1.0 + TOL.orthonormal)
    try:
        return DensityMatrix((u * spectrum) @ u.conj().T), ProjectiveObservable(e), u
    except ValidationError:
        return None


@pytest.mark.parametrize("dim", [2, 3, 5, 11, 16])
def test_edge_states_and_observables_pass_every_guard(dim):
    """States and observables the constructors accept at their edges, in
    Haar-rotated bases, pass every guard downstream. The PSD edge is
    rho = U diag(1 + w, -w, 0, ...) U^dag, the spread edge puts w of
    negative weight over all N - 1 lower eigenvalues and the trace tr above
    1, so lambda_max is as large as a valid state allows, and the trace edge
    is rho = U diag(1 + trace_one, 0, ...) U^dag. With w = 0.99 psd_clamp
    and tr = 0.99 trace_one every state is accepted; with w and tr exactly at
    the tolerances, round-off decides which are. With the outcome basis U,
    p_0 lies up to ~3e-10 above 1 and c ~1e-10 above 1. A state is judged
    once, so every accepted one has a root, and F and the oracle in either
    order against the top and bottom eigenvectors of U."""
    spectra = []  # (spectrum, least number of the 200 states accepted)
    for scale, least in ((0.99, 20), (1.0, 0)):
        w, tr = scale * TOL.psd_clamp, scale * TOL.trace_one
        psd_edge = np.zeros(dim)
        psd_edge[:2] = 1.0 + w, -w
        spread_edge = np.full(dim, -w / (dim - 1))
        spread_edge[0] = 1.0 + tr + w
        spectra += [(psd_edge, least), (spread_edge, least)]
    trace_edge = np.zeros(dim)
    trace_edge[0] = 1.0 + TOL.trace_one
    for spectrum, least in (*spectra, (trace_edge, 20)):
        cases = [_edge(dim, derived_seed(808, dim, t), spectrum) for t in range(200)]
        cases = [case for case in cases if case is not None]
        assert len(cases) >= least
        for rho, obs, u in cases:
            top, bottom = PureState(u[:, 0]), PureState(u[:, 1])
            p = outcome_probabilities(obs, rho)
            assert p[0] == 1.0 and 0.0 <= p[1] < 1e-9
            assert overlap(obs, obs) == 1.0
            assert np.abs(rho.sqrt @ rho.sqrt - rho.matrix).max() < 1e-9
            for pure, lo, hi in ((top, 1.0 - 1e-9, 1.0), (bottom, 0.0, 1e-9)):
                other = pure.density()
                for f in (fidelity_pure_mixed(pure, rho), fidelity(other, rho),
                          fidelity(rho, other), fidelity_oracle(other, rho),
                          fidelity_oracle(rho, other)):
                    assert lo <= f <= hi
