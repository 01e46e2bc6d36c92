import hashlib
import math

import numpy as np
import pytest

from fidur.domains import (
    DomainSpec,
    QuadraticForm,
    boundary_from_quadratic,
    g_boundary,
    h_boundary,
    in_domain,
    quadratic_form,
    region_csv_text,
    region_filename,
    region_samples,
)
from fidur.errors import DomainError, ValidationError
from fidur.metrics import MetricKind, f_of
from fidur.states import derived_seed, sample_mixed, sample_observable
from fidur.uncertainty import max_probability, overlap

ALL_KINDS = (MetricKind.ANGLE, MetricKind.BURES, MetricKind.ROOT_INFIDELITY)
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def boundary_by_bisection(kind, c, p):
    """Solve f(p) + f(q) = f(c^2) for q by bisection, with no use of the
    closed forms under test. f is strictly decreasing, so the residual
    f(q) - (f(c^2) - f(p)) changes sign exactly once on [0, 1]."""
    target = f_of(kind, c * c) - f_of(kind, p)
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if f_of(kind, mid) > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


class TestHBoundary:
    def test_angle_named_point(self):
        assert h_boundary(MetricKind.ANGLE, INV_SQRT2, 0.9) == pytest.approx(0.8, abs=1e-12)

    def test_root_infidelity_named_point(self):
        # 0.9 + 2 sqrt(0.1) sqrt(0.5) + 0.5 - 1 = 0.4 + sqrt(0.2)
        assert h_boundary(MetricKind.ROOT_INFIDELITY, INV_SQRT2, 0.9) == pytest.approx(
            0.8472135954999579, abs=1e-12
        )

    def test_matches_bisection_oracle(self):
        for c in (0.3, INV_SQRT2, 0.9):
            for kind in ALL_KINDS:
                for p in (c * c, (c * c + 1.0) / 2.0, 0.97, 1.0):
                    assert h_boundary(kind, c, p) == pytest.approx(
                        boundary_by_bisection(kind, c, p), abs=1e-10
                    )

    def test_endpoints(self):
        for c in (0.25, 0.6, INV_SQRT2, 0.95):
            for kind in ALL_KINDS:
                assert h_boundary(kind, c, c * c) == pytest.approx(1.0, abs=1e-10)
                assert h_boundary(kind, c, 1.0) == pytest.approx(c * c, abs=1e-10)

    def test_decreasing_in_p(self):
        for kind in ALL_KINDS:
            grid = np.linspace(0.36, 1.0, 200)
            vals = [h_boundary(kind, 0.6, float(p)) for p in grid]
            assert np.all(np.diff(vals) <= 1e-12)

    def test_rejects_p_below_curved_branch(self):
        with pytest.raises(DomainError):
            h_boundary(MetricKind.ANGLE, 0.6, 0.2)

    def test_rejects_p_above_one(self):
        with pytest.raises(DomainError):
            h_boundary(MetricKind.ANGLE, 0.6, 1.1)

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_p(self, p):
        with pytest.raises(DomainError):
            h_boundary(MetricKind.ANGLE, 0.5, p)


class TestGBoundary:
    def test_flat_branch_is_one(self):
        assert g_boundary(MetricKind.ANGLE, 0.6, 0.2, 5) == 1.0
        assert g_boundary(MetricKind.BURES, 0.6, 0.36, 5) == 1.0

    def test_shared_eigenvector_makes_everything_flat(self):
        for kind in ALL_KINDS:
            for p in np.linspace(0.25, 1.0, 7):
                assert g_boundary(kind, 1.0, float(p), 4) == 1.0

    def test_continuous_at_branch_point(self):
        for kind in ALL_KINDS:
            for c in (0.5, INV_SQRT2, 0.9):
                below = g_boundary(kind, c, c * c - 1e-12, 8)
                above = g_boundary(kind, c, c * c + 1e-12, 8)
                assert abs(below - above) < 1e-9

    def test_named_curved_point(self):
        assert g_boundary(MetricKind.ANGLE, INV_SQRT2, 0.9, 2) == pytest.approx(0.8, abs=1e-12)

    def test_rejects_p_outside_box(self):
        with pytest.raises(DomainError):
            g_boundary(MetricKind.ANGLE, 0.6, 0.1, 4)

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_p(self, p):
        with pytest.raises(DomainError):
            g_boundary(MetricKind.ANGLE, 0.6, p, 4)

    def test_rejects_dimension_one(self):
        with pytest.raises(DomainError, match="dimension must be at least 2"):
            g_boundary(MetricKind.ANGLE, 0.6, 0.5, 1)


def boundary_grids(dim, c):
    """A g-grid over [1/N, 1] and an h-grid over [c^2, 1], each with the
    branch point and its neighbouring floats."""
    c2 = c * c
    edges = [c2, math.nextafter(c2, 0.0), math.nextafter(c2, 1.0), 1.0 / dim, 1.0]
    g_grid = np.append(np.linspace(1.0 / dim, 1.0, 97), edges)
    g_grid = g_grid[(g_grid >= 1.0 / dim) & (g_grid <= 1.0)]
    return g_grid, g_grid[g_grid >= c2]


ARRAY_CASES = [
    (dim, c, kind)
    for dim in range(2, 11)
    for c in (1.0 / math.sqrt(dim), 0.6, INV_SQRT2, 1.0)
    for kind in ALL_KINDS
]


class TestArrayRoutes:
    """A scalar call is a batch of one through the same kernel."""

    @pytest.mark.parametrize("dim,c,kind", ARRAY_CASES)
    def test_array_equals_scalar_calls_bitwise(self, dim, c, kind):
        g_grid, h_grid = boundary_grids(dim, c)
        g_scalar = [g_boundary(kind, c, float(p), dim) for p in g_grid]
        h_scalar = [h_boundary(kind, c, float(p)) for p in h_grid]
        assert all(type(v) is float for v in g_scalar + h_scalar)
        assert np.array_equal(g_boundary(kind, c, g_grid, dim), np.array(g_scalar))
        assert np.array_equal(h_boundary(kind, c, h_grid), np.array(h_scalar))

    @pytest.mark.parametrize("dim,c,kind", ARRAY_CASES)
    def test_one_bad_element_rejects_the_array(self, dim, c, kind):
        g_grid, h_grid = boundary_grids(dim, c)
        g_bad = (math.nan, math.inf, -math.inf, 1.0 / dim - 1e-6, 1.0 + 1e-6)
        h_bad = (math.nan, math.inf, -math.inf, c * c - 1e-6, 1.0 + 1e-6)
        for grid, bad_values, call in (
            (g_grid, g_bad, lambda p: g_boundary(kind, c, p, dim)),
            (h_grid, h_bad, lambda p: h_boundary(kind, c, p)),
        ):
            for bad in bad_values:
                p = grid.copy()
                p[len(p) // 2] = bad
                with pytest.raises(DomainError):
                    call(p)

    def test_shapes_are_kept(self):
        p = np.linspace(0.25, 1.0, 12).reshape(3, 4)
        assert g_boundary(MetricKind.BURES, 0.6, p, 4).shape == (3, 4)
        assert h_boundary(MetricKind.BURES, 0.6, p[1:]).shape == (2, 4)
        assert type(g_boundary(MetricKind.BURES, 0.6, np.float64(0.5), 4)) is float

    def test_flat_points_never_reach_the_curved_check(self):
        # every point but the last sits below c^2, where h alone would raise
        p = np.array([0.25, 0.3, 0.35, 0.9])
        with pytest.raises(DomainError):
            h_boundary(MetricKind.ANGLE, 0.6, p)
        g = g_boundary(MetricKind.ANGLE, 0.6, p, 4)
        assert np.array_equal(g[:3], np.ones(3))
        assert g[3] == h_boundary(MetricKind.ANGLE, 0.6, 0.9)


class TestInDomain:
    def test_certain_corner(self):
        for kind in ALL_KINDS:
            assert in_domain(kind, 0.6, 4, 1.0, 0.36)
            assert not in_domain(kind, 0.6, 4, 1.0, 0.37)

    def test_flat_corner(self):
        for kind in ALL_KINDS:
            assert in_domain(kind, 0.6, 4, 0.25, 1.0)

    def test_guard_band(self):
        g = g_boundary(MetricKind.ANGLE, 0.6, 0.9, 4)
        assert in_domain(MetricKind.ANGLE, 0.6, 4, 0.9, g + 5e-10)
        assert not in_domain(MetricKind.ANGLE, 0.6, 4, 0.9, g + 5e-9)

    def test_box_violations_are_false_not_errors(self):
        assert not in_domain(MetricKind.ANGLE, 0.6, 4, 0.1, 0.5)
        assert not in_domain(MetricKind.ANGLE, 0.6, 4, 0.5, 1.2)
        for dim in (-1, 0, 1):  # no D_c below dimension 2
            assert not in_domain(MetricKind.ANGLE, 0.6, dim, 0.5, 0.5)

    def test_measured_pairs_land_inside(self):
        for dim in (2, 3, 4):
            for t in range(40):
                a = sample_observable(dim, seed=derived_seed(90, dim, t, 0))
                b = sample_observable(dim, seed=derived_seed(90, dim, t, 1))
                rho = sample_mixed(dim, dim, seed=derived_seed(90, dim, t, 2))
                c = overlap(a, b)
                p_a, _ = max_probability(a, rho)
                p_b, _ = max_probability(b, rho)
                for kind in ALL_KINDS:
                    assert in_domain(kind, c, dim, p_a, p_b)


class TestQuadraticForm:
    def test_angle_coefficients_at_named_point(self):
        q = quadratic_form(MetricKind.ANGLE, INV_SQRT2, 0.9, 0.8)
        assert q.a1 == pytest.approx(0.4472135954999579, abs=1e-12)
        assert q.a0 == pytest.approx(-0.4, abs=1e-12)
        assert q.xi == pytest.approx(math.sqrt(0.2), abs=1e-12)
        # (0.9, 0.8) sits on the boundary, so the quadratic vanishes there
        assert q.xi * q.xi + q.a1 * q.xi + q.a0 == pytest.approx(0.0, abs=1e-12)

    def test_roots_at_named_point(self):
        q = quadratic_form(MetricKind.ANGLE, INV_SQRT2, 0.9, 0.8)
        xi_minus, xi_plus = q.roots()
        assert xi_minus == pytest.approx(-0.8944271909999159, abs=1e-12)
        assert xi_plus == pytest.approx(0.4472135954999579, abs=1e-12)

    def test_discriminant_closed_forms(self):
        """disc is 4 p_a (1-c^2), 4 (1-c^2), and 8 (1-c) for the three
        kinds, hence never negative for any inputs in the unit box."""
        for c in (0.3, 0.7, 0.95, 1.0):
            for p_a in np.linspace(0.0, 1.0, 21):
                p_a = float(p_a)
                d_angle = quadratic_form(MetricKind.ANGLE, c, p_a, 0.5).discriminant()
                assert d_angle == pytest.approx(4.0 * p_a * (1.0 - c * c), abs=1e-12)
                d_ri = quadratic_form(MetricKind.ROOT_INFIDELITY, c, p_a, 0.5).discriminant()
                assert d_ri == pytest.approx(4.0 * (1.0 - c * c), abs=1e-12)
                d_b = quadratic_form(MetricKind.BURES, c, p_a, 0.5).discriminant()
                assert d_b == pytest.approx(8.0 * (1.0 - c), abs=1e-12)

    def test_lower_root_never_positive(self):
        for kind in ALL_KINDS:
            for c in (0.4, 0.8):
                for p_a in np.linspace(0.0, 1.0, 11):
                    xi_minus, _ = quadratic_form(kind, c, float(p_a), 0.5).roots()
                    assert xi_minus <= 1e-15

    def test_roots_reject_a_negative_discriminant(self):
        with pytest.raises(DomainError, match="negative discriminant"):
            QuadraticForm(a1=0.0, a0=1.0, xi=0.0).roots()

    def test_flat_branch_root_is_nonpositive(self):
        # below p_a = c^2 the cap on xi degenerates and no constraint remains
        q = quadratic_form(MetricKind.ANGLE, 0.8, 0.3, 0.5)
        _, xi_plus = q.roots()
        assert xi_plus <= 0.0

    def test_nonnegative_on_measured_pairs(self):
        for t in range(30):
            a = sample_observable(3, seed=derived_seed(91, t, 0))
            b = sample_observable(3, seed=derived_seed(91, t, 1))
            rho = sample_mixed(3, 3, seed=derived_seed(91, t, 2))
            c = overlap(a, b)
            p_a, _ = max_probability(a, rho)
            p_b, _ = max_probability(b, rho)
            for kind in ALL_KINDS:
                q = quadratic_form(kind, c, p_a, p_b)
                assert q.xi * q.xi + q.a1 * q.xi + q.a0 >= -1e-9

    def test_rejects_inputs_outside_unit_box(self):
        with pytest.raises(DomainError):
            quadratic_form(MetricKind.ANGLE, 0.6, 1.5, 0.5)


class TestBoundaryFromQuadratic:
    def test_named_point(self):
        assert boundary_from_quadratic(MetricKind.ANGLE, INV_SQRT2, 0.9) == pytest.approx(
            0.8, abs=1e-12
        )

    def test_endpoints(self):
        for kind in ALL_KINDS:
            for c in (0.3, 0.6, INV_SQRT2, 0.95):
                assert boundary_from_quadratic(kind, c, 1.0) == pytest.approx(c * c, abs=1e-10)
                assert boundary_from_quadratic(kind, c, c * c) == pytest.approx(1.0, abs=1e-10)

    def test_agrees_with_h_on_coarse_grid(self):
        for kind in ALL_KINDS:
            for c in (0.2, INV_SQRT2, 0.95):
                for p in np.arange(c * c, 1.0, 1e-2):
                    p = float(p)
                    assert boundary_from_quadratic(kind, c, p) == pytest.approx(
                        h_boundary(kind, c, p), abs=1e-10
                    )

    def test_rejects_flat_branch_input(self):
        with pytest.raises(DomainError):
            boundary_from_quadratic(MetricKind.ANGLE, 0.8, 0.3)


class TestDomainOrdering:
    def test_pointwise_nesting(self):
        for c, dim in ((0.2, 26), (0.4, 7), (0.6, 4), (0.8, 2), (INV_SQRT2, 2), (0.95, 2)):
            grid = np.append(np.arange(1.0 / dim, 1.0, 1e-2), 1.0)
            for p in grid:
                p = float(p)
                g_a = g_boundary(MetricKind.ANGLE, c, p, dim)
                g_b = g_boundary(MetricKind.BURES, c, p, dim)
                g_r = g_boundary(MetricKind.ROOT_INFIDELITY, c, p, dim)
                assert g_a <= g_b + 1e-9
                assert g_b <= g_r + 1e-9


class TestDomainSpec:
    def test_rejects_overlap_below_floor(self):
        with pytest.raises(ValidationError):
            DomainSpec(MetricKind.ANGLE, 0.1, 4)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValidationError):
            DomainSpec(MetricKind.ANGLE, 0.9, 1)

    def test_rejects_plain_string_kind(self):
        with pytest.raises(ValidationError):
            DomainSpec("angle", 0.9, 4)


OVERLAP_CALLS = {
    "DomainSpec": lambda kind, c: DomainSpec(kind, c, 2),
    "g_boundary": lambda kind, c: g_boundary(kind, c, 0.5, 2),
    "h_boundary": lambda kind, c: h_boundary(kind, c, 1.0),
    "in_domain": lambda kind, c: in_domain(kind, c, 2, 0.6, 0.6),
    "quadratic_form": lambda kind, c: quadratic_form(kind, c, 0.5, 0.5),
    "boundary_from_quadratic": lambda kind, c: boundary_from_quadratic(kind, c, 1.0),
}


class TestOverlapType:
    """The overlap is a real number everywhere: a str, None or bool is a
    ValidationError, never numpy's or float's own error nor a silent 1.0."""

    @pytest.mark.parametrize("c", ["x", "0.8", None, True, False, [0.8], 0.8j],
                             ids=repr)
    @pytest.mark.parametrize("call", sorted(OVERLAP_CALLS))
    def test_non_real_overlap_is_a_validation_error(self, call, c):
        for kind in ALL_KINDS:
            with pytest.raises(ValidationError):
                OVERLAP_CALLS[call](kind, c)

    @pytest.mark.parametrize("call", sorted(OVERLAP_CALLS))
    def test_real_overlap_types_agree(self, call):
        for kind in ALL_KINDS:
            ref = OVERLAP_CALLS[call](kind, 0.75)
            assert OVERLAP_CALLS[call](kind, np.float64(0.75)) == ref
            assert OVERLAP_CALLS[call](kind, 1) == OVERLAP_CALLS[call](kind, 1.0)

    @pytest.mark.parametrize("c", [10**400, -(10**400)], ids=["huge", "huge-negative"])
    def test_an_int_beyond_float_range_is_out_of_range(self, c):
        with pytest.raises(ValidationError):
            DomainSpec(MetricKind.ANGLE, c, 2)
        with pytest.raises(DomainError):
            g_boundary(MetricKind.ANGLE, c, 0.5, 2)
        assert not in_domain(MetricKind.ANGLE, c, 2, 0.6, 0.6)


PROBABILITY_CALLS = {
    "g_boundary": lambda kind, p: g_boundary(kind, 0.6, p, 2),
    "h_boundary": lambda kind, p: h_boundary(kind, 0.6, p),
    "in_domain-p_a": lambda kind, p: in_domain(kind, 0.6, 2, p, 0.6),
    "in_domain-p_b": lambda kind, p: in_domain(kind, 0.6, 2, 0.6, p),
    "quadratic_form-p_a": lambda kind, p: quadratic_form(kind, 0.8, p, 0.5),
    "quadratic_form-p_b": lambda kind, p: quadratic_form(kind, 0.8, 0.5, p),
    "boundary_from_quadratic": lambda kind, p: boundary_from_quadratic(kind, 0.8, p),
}


class TestProbabilityType:
    """A probability argument is a real number, or for g and h an array of
    them: "0.9" used to read as 0.9, None as nan (DomainError) and "x" as a
    bare TypeError."""

    @pytest.mark.parametrize("p", ["0.9", None, "x", True, 0.9j], ids=repr)
    @pytest.mark.parametrize("call", sorted(PROBABILITY_CALLS))
    def test_non_real_probability_is_a_validation_error(self, call, p):
        for kind in ALL_KINDS:
            with pytest.raises(ValidationError):
                PROBABILITY_CALLS[call](kind, p)

    @pytest.mark.parametrize(
        "p", [np.array(["0.9"]), np.array([True, False]), [0.5, None], np.array([0.9j])],
        ids=["str-array", "bool-array", "none-in-list", "complex-array"])
    @pytest.mark.parametrize("boundary", [g_boundary, h_boundary], ids=["g", "h"])
    def test_non_real_array_is_a_validation_error(self, boundary, p):
        args = (0.6, p, 2) if boundary is g_boundary else (0.6, p)
        with pytest.raises(ValidationError):
            boundary(MetricKind.ANGLE, *args)

    @pytest.mark.parametrize("call", sorted(PROBABILITY_CALLS))
    def test_real_probability_types_agree(self, call):
        for kind in ALL_KINDS:
            ref = PROBABILITY_CALLS[call](kind, 0.75)
            assert PROBABILITY_CALLS[call](kind, np.float64(0.75)) == ref
            assert PROBABILITY_CALLS[call](kind, 1) == PROBABILITY_CALLS[call](kind, 1.0)
        assert g_boundary(MetricKind.ANGLE, 0.6, [0.5, 1], 2).tolist() == [
            g_boundary(MetricKind.ANGLE, 0.6, 0.5, 2), g_boundary(MetricKind.ANGLE, 0.6, 1.0, 2)]


class TestRegionSampling:
    def test_grid_endpoints_and_shape(self):
        spec = DomainSpec(MetricKind.ANGLE, INV_SQRT2, 2)
        samples = region_samples(spec, 11)
        assert samples.shape == (11, 2)
        assert samples[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert samples[-1, 0] == 1.0
        assert samples[-1, 1] == pytest.approx(0.5, abs=1e-10)

    def test_boundary_nonincreasing(self):
        spec = DomainSpec(MetricKind.BURES, 0.6, 5)
        samples = region_samples(spec, 201)
        assert np.all(np.diff(samples[:, 1]) <= 1e-12)

    def test_rejects_tiny_grid(self):
        spec = DomainSpec(MetricKind.ANGLE, 0.9, 2)
        with pytest.raises(DomainError):
            region_samples(spec, 1)

    def test_csv_text_round_trips(self):
        spec = DomainSpec(MetricKind.ANGLE, 0.75, 3)
        samples = region_samples(spec, 5)
        text = region_csv_text(samples)
        lines = text.strip().split("\n")
        assert lines[0] == "p,g"
        assert len(lines) == 6
        parsed = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert np.array_equal(parsed, samples)

    def test_pinned_bytes_of_the_c08_csvs(self):
        """sha256 of the nine dim-20, 1001-point CSVs as written by the
        per-point loop that preceded the array kernel."""
        expected = {
            (MetricKind.ANGLE, 0): "e44c7d1b117000dc5bfe2f34199df7ae5162038ff4c5cf995c1b02722a6ab878",
            (MetricKind.BURES, 0): "f8db037481901f896bb493acbf9d8d85d734ed93fcb30ebfefbd705abb999d8f",
            (MetricKind.ROOT_INFIDELITY, 0): "63d40176b4b3fb05bcfe8f5c5486b16c93cd51ae73a844adbd6f95e8161a28d5",
            (MetricKind.ANGLE, 1): "e659019d77c0cf3e9f9d8a80658ce1fc76ee83614dc9854b74231c2fc0d25ae6",
            (MetricKind.BURES, 1): "012a1f749b3ddead564fc2db313734eafeeeee3c327be4ad34e408993249fb79",
            (MetricKind.ROOT_INFIDELITY, 1): "f4ae76f5e57c29924caaeed161031da4b96231daca80aa5b441f4bb41831735c",
            (MetricKind.ANGLE, 2): "9872296b3db88815e8c104ac947ea15df8d20990ac5655a2c0514d93ede5735a",
            (MetricKind.BURES, 2): "48c903b1894156e3c14f4b855c80702c28f3eecf9ea07d14ae1797fd8f9ca638",
            (MetricKind.ROOT_INFIDELITY, 2): "f1c5a39b71161c58b96c0ec82d98636092d7e00c4d5881388836ab3d56ef3c1a",
        }
        overlaps = (1.0 / math.sqrt(20.0), math.sqrt(0.2), math.sqrt(0.4))
        for (kind, i), digest in expected.items():
            text = region_csv_text(region_samples(DomainSpec(kind, overlaps[i], 20), 1001))
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, (kind, i)

    def test_filenames(self):
        assert region_filename(MetricKind.ANGLE, 0.6) == "region_angle_0.6.csv"
        assert region_filename(MetricKind.ROOT_INFIDELITY, 0.6) == (
            "region_root-infidelity_0.6.csv"
        )
        assert region_filename(MetricKind.BURES, 0.7071067811865476) == (
            "region_bures_0.7071067811865476.csv"
        )


class TestGuardBand:
    """p within the guard band of its branch's lower end is clamped to it."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_p_just_below_the_branch_is_clamped_to_it(self, kind):
        c, dim = 0.3, 4  # c^2 < 1/N: g is h over all of [1/N, 1]
        below = 0.25 - 5e-10
        assert g_boundary(kind, c, below, dim) == g_boundary(kind, c, 0.25, dim)
        assert h_boundary(kind, c, c * c - 5e-10) == h_boundary(kind, c, c * c)
        assert boundary_from_quadratic(kind, c, c * c - 5e-10) == boundary_from_quadratic(
            kind, c, c * c
        )
        assert in_domain(kind, c, dim, below, g_boundary(kind, c, 0.25, dim))
