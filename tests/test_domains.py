import json
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
    region_json_text,
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
        assert q.value() == pytest.approx(0.0, abs=1e-12)

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
                assert quadratic_form(kind, c, p_a, p_b).value() >= -1e-9

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

    def test_json_text_round_trips(self):
        spec = DomainSpec(MetricKind.ROOT_INFIDELITY, 0.75, 3)
        samples = region_samples(spec, 4)
        assert np.array_equal(np.array(json.loads(region_json_text(samples))), samples)

    def test_filenames(self):
        assert region_filename(MetricKind.ANGLE, 0.6) == "region_angle_0.6.csv"
        assert region_filename(MetricKind.ROOT_INFIDELITY, 0.6) == (
            "region_root-infidelity_0.6.csv"
        )
        assert region_filename(MetricKind.BURES, 0.7071067811865476) == (
            "region_bures_0.7071067811865476.csv"
        )
