"""End-to-end acceptance gate.

Each criterion prints one [PASS]/[FAIL] line with its measured figure
(visible under ``pytest -s`` or on failure), then asserts. Criteria are
numbered test_c01 .. test_c11 and run in definition order; the random
pair sets for the fidelity criteria are shared through a module fixture
so both criteria exercise exactly the same states. Seeded states are
drawn as tuple-seeded stacks, member i bitwise the state of seed i alone,
and evaluated in array passes.
"""

import contextlib
import io
import json
import math
import time

import numpy as np
import pytest

from fidur.cli import cmd_region
from fidur.domains import boundary_from_quadratic, g_boundary, h_boundary, in_domain, region_filename
from fidur.fidelity import (
    fidelity,
    fidelity_oracle,
    purification_overlap_search,
)
from fidur.metrics import MetricKind, f_of, metric_distance
from fidur.states import (
    DensityMatrix,
    ProjectiveObservable,
    _seed_state,
    computational_observable,
    derived_seed,
    partial_trace_aux,
    purify,
    sample_mixed,
    sample_observable,
    sample_pure,
)
from fidur.sweep import SweepConfig, run_sweep
from fidur.uncertainty import check_ur, max_probability, overlap

ALL_KINDS = (MetricKind.ANGLE, MetricKind.BURES, MetricKind.ROOT_INFIDELITY)
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def report(label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def seeds(prefix, trials, role):
    """The tuple of ``derived_seed(*prefix, t, role)`` over ``trials``: the
    128-bit output of one SeedSequence hash pass over all the rows."""
    rows = np.array([(*prefix, t, role) for t in trials], dtype=np.uint32)
    data = np.ascontiguousarray(_seed_state(rows.T, 4).T, dtype="<u4").tobytes()
    return tuple(int.from_bytes(data[i : i + 16], "little") for i in range(0, len(data), 16))


def members(stack):
    """The single states of a stacked DensityMatrix, bitwise its members."""
    return [DensityMatrix(m) for m in stack.matrix]


def spectral_copy(rho):
    """Numerically equal but bitwise distinct, to defeat fast paths."""
    w, v = np.linalg.eigh(rho.matrix)
    m = (v * np.clip(w, 0.0, None)) @ v.conj().T
    m = (m + m.conj().T) / 2
    return DensityMatrix(m / np.trace(m).real)


@pytest.fixture(scope="module")
def mixed_pairs():
    """Per dim, the stacks (rho, sigma) of 1000 seeded pairs."""
    return {
        dim: tuple(sample_mixed(dim, dim, seeds((1001, dim), range(1000), role)) for role in (0, 1))
        for dim in range(2, 9)
    }


def test_c01_fidelity_path_equivalence(mixed_pairs):
    start = time.perf_counter()
    worst = 0.0
    count = 0
    mismatches = 0
    for rho, sigma in mixed_pairs.values():
        f = fidelity(rho, sigma)
        pairs = list(zip(members(rho), members(sigma)))
        mismatches += np.count_nonzero(f != [fidelity(r, s) for r, s in pairs])
        oracle = [fidelity_oracle(r, s) for r, s in pairs]
        worst = max(worst, float(np.abs(f - oracle).max()))
        count += len(oracle)
    elapsed = time.perf_counter() - start
    report(
        "criterion 1, fidelity path equivalence",
        worst < 1e-9 and mismatches == 0 and elapsed < 30.0,
        f"max |fidelity - fidelity_oracle| = {worst:.3e} over {count} pairs "
        f"(dims 2-8), {mismatches} stacked values off the single-pair bits, in {elapsed:.1f}s",
    )


def test_c02_fidelity_properties(mixed_pairs):
    failures = 0
    self_worst = 0.0
    sym_worst = 0.0
    for rho, sigma in mixed_pairs.values():
        f = fidelity(rho, sigma)
        asymmetry = np.abs(f - fidelity(sigma, rho))
        distinct = np.abs(rho.matrix - sigma.matrix).max(axis=(-2, -1)) >= 1e-6
        failures += np.count_nonzero(~((f >= 0.0) & (f <= 1.0)))
        failures += np.count_nonzero(~(asymmetry < 1e-10))
        failures += np.count_nonzero((f >= 1.0 - 1e-9) & distinct)
        sym_worst = max(sym_worst, float(asymmetry.max()))
        # identity of indiscernibles, forward: F(rho, rho) = 1 within 1e-10,
        # on a bitwise-distinct copy so the full numerical path runs
        first = DensityMatrix(rho.matrix[0])
        copy = spectral_copy(first)
        self_worst = max(self_worst, abs(fidelity(first, copy) - 1.0))
        if abs(fidelity(first, copy) - 1.0) >= 1e-10:
            failures += 1
        if np.abs(first.matrix - copy.matrix).max() >= 1e-6:
            failures += 1
    report(
        "criterion 2, fidelity properties 1-3",
        failures == 0,
        f"{failures} failures; worst |F(rho,rho)-1| = {self_worst:.3e}, "
        f"worst asymmetry = {sym_worst:.3e}",
    )


def test_c03_triangle_inequality():
    start = time.perf_counter()
    min_slack = math.inf
    failures = 0
    count = 0
    mismatches = 0
    for dim in range(2, 9):
        triple_seeds = [seeds((3003, dim), range(10_000), role) for role in range(3)]
        rho, sigma, tau = (sample_mixed(dim, dim, s) for s in triple_seeds)
        # d = f(F): one F per pair serves all three kinds.
        fidelities = [fidelity(a, b) for a, b in ((sigma, rho), (tau, rho), (sigma, tau))]
        distances = {kind: [f_of(kind, f) for f in fidelities] for kind in ALL_KINDS}
        for d_sr, d_tr, d_st in distances.values():
            slack = d_sr + d_tr - d_st
            min_slack = min(min_slack, float(slack.min()))
            failures += np.count_nonzero(~(slack >= -1e-9))
        # The scalar, cached path must give the same bits on a fixed subset.
        for t in range(0, 10_000, 500):
            rho_t, sigma_t, tau_t = (sample_mixed(dim, dim, s[t]) for s in triple_seeds)
            for kind, stacked in distances.items():
                for (a, b), d in zip(((sigma_t, rho_t), (tau_t, rho_t), (sigma_t, tau_t)), stacked):
                    mismatches += metric_distance(kind, a, b) != d[t]
        count += 10_000
    elapsed = time.perf_counter() - start
    report(
        "criterion 3, triangle inequality",
        failures == 0 and mismatches == 0,
        f"{failures} failures over {count} triples x 3 kinds, "
        f"min slack = {min_slack:.3e}, {mismatches} scalar mismatches, {elapsed:.0f}s",
    )


def test_c04_uncertainty_relation_sweep():
    config = SweepConfig(
        dims=tuple(range(2, 11)),
        trials_per_dim=5556,
        seed=4004,
        kinds=ALL_KINDS,
        mixedness="both",
        tolerance=1e-9,
    )
    start = time.perf_counter()
    result = run_sweep(config)
    elapsed = time.perf_counter() - start
    per_kind = len(config.dims) * config.trials_per_dim * 2
    witness = result.min_slack_witness
    report(
        "criterion 4, uncertainty relation sweep",
        result.violations == 0 and per_kind >= 100_000 and elapsed < 600.0,
        f"{result.total_trials} reports ({per_kind} per kind), "
        f"violations = {result.violations}, min slack = {result.min_slack:.3e} "
        f"(dim {witness['dim']}, {witness['mixedness']}, {witness['kind']}), "
        f"{elapsed:.0f}s",
    )


def test_c05_certainty_case_equality():
    a = computational_observable(2)
    b = ProjectiveObservable(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    rho = DensityMatrix(np.diag([1.0, 0.0]))
    rep = check_ur(MetricKind.ANGLE, a, b, rho)
    ok = (
        abs(rep.slack) <= 1e-12
        and rep.u_a == 0.0
        and abs(rep.bound - math.pi / 4) <= 1e-12
    )
    report(
        "criterion 5, certainty-case equality",
        ok,
        f"slack = {rep.slack!r}, u_a = {rep.u_a!r}, bound = {rep.bound!r}",
    )


def test_c06_boundary_cross_derivation():
    worst = 0.0
    count = 0
    for c in (0.2, INV_SQRT2, 0.95):
        for kind in ALL_KINDS:
            grid = np.append(np.arange(c * c, 1.0, 1e-3), 1.0)
            for p in grid:
                p = float(p)
                worst = max(
                    worst,
                    abs(boundary_from_quadratic(kind, c, p) - h_boundary(kind, c, p)),
                )
                count += 1
    report(
        "criterion 6, boundary cross-derivation",
        worst < 1e-10,
        f"max |quadratic route - closed form| = {worst:.3e} over {count} grid points",
    )


def test_c07_domain_ordering_and_endpoints():
    cases = ((0.2, 25), (INV_SQRT2, 2), (0.95, 2))
    order_worst = 0.0
    endpoint_worst = 0.0
    for c, dim in cases:
        grid = np.append(np.arange(1.0 / dim, 1.0, 1e-3), 1.0)
        for p in grid:
            p = float(p)
            g_a = g_boundary(MetricKind.ANGLE, c, p, dim)
            g_b = g_boundary(MetricKind.BURES, c, p, dim)
            g_r = g_boundary(MetricKind.ROOT_INFIDELITY, c, p, dim)
            order_worst = max(order_worst, g_a - g_b, g_b - g_r)
        for kind in ALL_KINDS:
            endpoint_worst = max(
                endpoint_worst,
                abs(g_boundary(kind, c, 1.0, dim) - c * c),
                abs(g_boundary(kind, c, c * c, dim) - 1.0),
            )
    report(
        "criterion 7, domain ordering and endpoints",
        order_worst <= 1e-9 and endpoint_worst <= 1e-10,
        f"worst ordering excess = {order_worst:.3e}, "
        f"worst endpoint error = {endpoint_worst:.3e}",
    )


def test_c08_region_csv_reproduction(tmp_path):
    overlaps = (1.0 / math.sqrt(20.0), math.sqrt(0.2), math.sqrt(0.4))
    n_points = 1001
    columns = {}
    for c in overlaps:
        for kind in ALL_KINDS:
            path = tmp_path / region_filename(kind, c)
            with contextlib.redirect_stdout(io.StringIO()):
                assert cmd_region(kind, c, 20, n_points, str(path)) == 0
            lines = path.read_text().strip().splitlines()
            assert lines[0] == "p,g"
            rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
            assert rows.shape == (n_points, 2)
            columns[(kind, c)] = rows

    nest_worst = 0.0
    for c in overlaps:
        p_a = columns[(MetricKind.ANGLE, c)][:, 0]
        assert np.array_equal(p_a, columns[(MetricKind.BURES, c)][:, 0])
        assert np.array_equal(p_a, columns[(MetricKind.ROOT_INFIDELITY, c)][:, 0])
        g_a = columns[(MetricKind.ANGLE, c)][:, 1]
        g_b = columns[(MetricKind.BURES, c)][:, 1]
        g_r = columns[(MetricKind.ROOT_INFIDELITY, c)][:, 1]
        nest_worst = max(nest_worst, float((g_a - g_b).max()), float((g_b - g_r).max()))

    def flat_count(kind, c):
        return int((columns[(kind, c)][:, 1] >= 1.0 - 1e-12).sum())

    degenerate_ok = all(flat_count(kind, overlaps[0]) == 1 for kind in ALL_KINDS)
    widening_ok = all(
        flat_count(kind, overlaps[1]) > 1 and flat_count(kind, overlaps[2]) > flat_count(kind, overlaps[1])
        for kind in ALL_KINDS
    )
    report(
        "criterion 8, region data reproduction",
        nest_worst <= 1e-9 and degenerate_ok and widening_ok,
        f"9 CSVs x {n_points} rows, worst nesting excess = {nest_worst:.3e}, "
        f"flat-branch rows at c = 1/sqrt(20): "
        f"{[flat_count(kind, overlaps[0]) for kind in ALL_KINDS]}",
    )


def test_c09_physical_realizability():
    dims = tuple(range(2, 11))
    exclusions = 0
    count = 0
    # Trial t has dim dims[t % 9] and a pure state for even t, a mixed one for odd t.
    for k, dim in enumerate(dims):
        for parity in (0, 1):
            trials = [t for t in range(k, 10_000, len(dims)) if t % 2 == parity]
            a, b = (sample_observable(dim, seeds((9009,), trials, role)) for role in (0, 1))
            if parity == 0:
                rho = sample_pure(dim, seeds((9009,), trials, 2)).density()
            else:
                rho = sample_mixed(dim, dim, seeds((9009,), trials, 3))
            c = overlap(a, b)
            p_a, _ = max_probability(a, rho)
            p_b, _ = max_probability(b, rho)
            for c_t, p_a_t, p_b_t in zip(c.tolist(), p_a.tolist(), p_b.tolist()):
                for kind in ALL_KINDS:
                    if not in_domain(kind, c_t, dim, p_a_t, p_b_t):
                        exclusions += 1
            count += len(trials)
    report(
        "criterion 9, physical realizability",
        exclusions == 0,
        f"{exclusions} exclusions over {count} measured (rho, A, B) triples x 3 kinds",
    )


def test_c10_purification_contracts():
    round_worst = 0.0
    overshoot_worst = -math.inf
    count = 0
    for dim in range(2, 7):
        for t in range(100):
            rho = sample_mixed(dim, dim, seed=derived_seed(1010, dim, t, 0))
            sigma = sample_mixed(dim, dim, seed=derived_seed(1010, dim, t, 1))
            for state in (rho, sigma):
                psi = purify(state)
                back = partial_trace_aux(psi, dim, psi.dim // dim)
                round_worst = max(
                    round_worst, float(np.abs(back.matrix - state.matrix).max())
                )
            best = purification_overlap_search(
                rho, sigma, trials=40, seed=derived_seed(1010, dim, t, 2)
            )
            overshoot_worst = max(overshoot_worst, best - fidelity(rho, sigma))
            count += 1
    report(
        "criterion 10, purification contracts",
        round_worst < 1e-10 and overshoot_worst <= 1e-9,
        f"worst round-trip error = {round_worst:.3e}, "
        f"worst search overshoot = {overshoot_worst:.3e} over {count} pairs",
    )


def test_c11_sweep_determinism(sweep_in_child):
    config = SweepConfig(
        dims=(2, 3, 4),
        trials_per_dim=200,
        seed=1111,
        kinds=ALL_KINDS,
        mixedness="both",
    )
    sequential_a = run_sweep(config).to_json()
    sequential_b = run_sweep(config).to_json()
    _, fresh = sweep_in_child(config)
    ok = sequential_a == sequential_b == fresh
    report(
        "criterion 11, sweep determinism",
        ok,
        "repeat and fresh-interpreter run byte-identical"
        if ok
        else "results differ between runs",
    )
    payload = json.loads(sequential_a)
    assert payload["violations"] == 0
