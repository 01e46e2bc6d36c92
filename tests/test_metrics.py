import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fidur.errors import DomainError, ValidationError
from fidur.metrics import (
    MetricKind,
    f_of,
    metric_distance,
    metric_kind,
)
from fidur.states import DensityMatrix, PureState, derived_seed, sample_mixed, sample_pure

ALL_KINDS = (MetricKind.ANGLE, MetricKind.BURES, MetricKind.ROOT_INFIDELITY)

PLUS = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
ZERO = PureState(np.array([1.0, 0.0]))
ONE = PureState(np.array([0.0, 1.0]))


class TestMetricKind:
    def test_parses_all_names(self):
        assert metric_kind("angle") is MetricKind.ANGLE
        assert metric_kind("bures") is MetricKind.BURES
        assert metric_kind("root-infidelity") is MetricKind.ROOT_INFIDELITY

    def test_rejects_unknown_name(self):
        with pytest.raises(ValidationError):
            metric_kind("trace")


class TestFOf:
    def test_perfect_overlap_gives_zero(self):
        for kind in ALL_KINDS:
            assert f_of(kind, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_zero_overlap_endpoints(self):
        assert f_of(MetricKind.ANGLE, 0.0) == pytest.approx(math.pi / 2, abs=1e-15)
        assert f_of(MetricKind.BURES, 0.0) == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert f_of(MetricKind.ROOT_INFIDELITY, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_half_overlap_angle(self):
        assert f_of(MetricKind.ANGLE, 0.5) == pytest.approx(math.pi / 4, abs=1e-15)

    def test_closed_forms(self):
        for x in np.linspace(0.0, 1.0, 101):
            assert f_of(MetricKind.ANGLE, x) == pytest.approx(math.acos(math.sqrt(x)), abs=1e-14)
            assert f_of(MetricKind.BURES, x) == pytest.approx(
                math.sqrt(2.0 - 2.0 * math.sqrt(x)), abs=1e-14
            )
            assert f_of(MetricKind.ROOT_INFIDELITY, x) == pytest.approx(
                math.sqrt(1.0 - x), abs=1e-14
            )

    def test_guard_band_clamps(self):
        for kind in ALL_KINDS:
            assert f_of(kind, 1.0 + 5e-10) == 0.0
            assert f_of(kind, -5e-10) == pytest.approx(f_of(kind, 0.0), abs=1e-12)

    def test_rejects_far_out_of_range(self):
        with pytest.raises(DomainError):
            f_of(MetricKind.ANGLE, 1.1)
        with pytest.raises(DomainError):
            f_of(MetricKind.BURES, -0.1)

    @pytest.mark.parametrize("kind", ["angle", None, lambda x: 1.0 - x], ids=["name", "none", "callable"])
    def test_rejects_anything_but_a_kind(self, kind):
        with pytest.raises(ValidationError):
            f_of(kind, 0.25)
        with pytest.raises(ValidationError):
            f_of(kind, np.array([0.25, 1.0]))

    @pytest.mark.parametrize("kind", [MetricKind.ANGLE, MetricKind.BURES])
    def test_one_ulp_below_one_keeps_relative_accuracy(self, kind):
        """At x = 1 - 2^-53 both kinds are ~1.0537e-8. Their x forms round
        sqrt(x) to 1 - 2^-53 and read 2^-26 ~ 1.49e-8."""
        x = 1.0 - 2.0**-53
        with mpmath.workdps(50):
            s = mpmath.sqrt(mpmath.mpf(x))
            exact = float(mpmath.acos(s) if kind is MetricKind.ANGLE else mpmath.sqrt(2 - 2 * s))
        assert exact == 1.0536712127723509e-08
        assert abs(f_of(kind, x) - exact) <= 4 * math.ulp(exact)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_complement_form_moves_only_last_bits_away_from_one(self, kind):
        """Written in y = 1 - x, each f agrees with its x form to 1e-13
        relative wherever that form does not cancel (x <= 1 - 1e-3)."""
        x = np.linspace(0.0, 1.0 - 1e-3, 2001)
        x_form = {
            MetricKind.ANGLE: np.arccos(np.sqrt(x)),
            MetricKind.BURES: np.sqrt(2.0 - 2.0 * np.sqrt(x)),
            MetricKind.ROOT_INFIDELITY: np.sqrt(1.0 - x),
        }[kind]
        np.testing.assert_allclose(f_of(kind, x), x_form, rtol=1e-13, atol=0.0)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_strictly_monotone_decreasing(self, x, y):
        lo, hi = sorted((x, y))
        for kind in ALL_KINDS:
            assert f_of(kind, hi) <= f_of(kind, lo) + 1e-12


# Floats at and around the edges of [0, 1] and its guard band, subnormals
# included, and a few interior points.
SCALAR_GRID = [
    0.0, -0.0, 1.0, 1e-9, -1e-9, 1.0 + 1e-9, 1.0 - 1e-9, 5e-324, -5e-324, 1e-310,
    2.2250738585072014e-308, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0),
    0.25, 0.5, 1.0 / 3.0, 0.999999999999, 1e-300,
] + np.linspace(0.0, 1.0, 41).tolist()


class TestScalarFOf:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_float_is_bitwise_the_array_element(self, kind):
        array = f_of(kind, np.array(SCALAR_GRID))
        for x, expected in zip(SCALAR_GRID, array):
            y = f_of(kind, x)
            assert type(y) is float
            assert np.float64(y).tobytes() == expected.tobytes(), x

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, -2e-9, 1.0 + 2e-9])
    def test_float_outside_the_guard_band_raises(self, kind, x):
        with pytest.raises(DomainError):
            f_of(kind, x)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_numpy_float_and_int_inputs(self, kind):
        for x in (0.0, 0.25, 1.0):
            assert f_of(kind, np.float64(x)) == f_of(kind, x)
            assert type(f_of(kind, np.float64(x))) is float
        assert f_of(kind, 0) == f_of(kind, 0.0)
        assert f_of(kind, 1) == f_of(kind, 1.0) == 0.0
        with pytest.raises(DomainError):
            f_of(kind, 2)


class TestMetricDistance:
    def test_zero_for_identical_states(self):
        rho = sample_mixed(3, 3, seed=3)
        for kind in ALL_KINDS:
            assert metric_distance(kind, rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_endpoints(self):
        a, b = ZERO.density(), ONE.density()
        assert metric_distance(MetricKind.ANGLE, a, b) == pytest.approx(math.pi / 2, abs=1e-7)
        assert metric_distance(MetricKind.BURES, a, b) == pytest.approx(math.sqrt(2.0), abs=1e-7)
        assert metric_distance(MetricKind.ROOT_INFIDELITY, a, b) == pytest.approx(1.0, abs=1e-7)

    def test_qubit_against_maximally_mixed(self):
        half = DensityMatrix(np.eye(2) / 2)
        assert metric_distance(MetricKind.ANGLE, ZERO.density(), half) == pytest.approx(
            math.pi / 4, abs=1e-10
        )

    def test_symmetry_and_nonnegativity(self):
        for t in range(20):
            rho = sample_mixed(3, 3, seed=derived_seed(70, t, 0))
            sigma = sample_mixed(3, 3, seed=derived_seed(70, t, 1))
            for kind in ALL_KINDS:
                d = metric_distance(kind, rho, sigma)
                assert d >= 0.0
                assert d == pytest.approx(metric_distance(kind, sigma, rho), abs=1e-9)

    def test_triangle_inequality_sample(self):
        worst = 0.0
        for dim in (2, 3, 4):
            for t in range(70):
                rho = sample_mixed(dim, dim, seed=derived_seed(71, dim, t, 0))
                sigma = sample_mixed(dim, dim, seed=derived_seed(71, dim, t, 1))
                tau = sample_mixed(dim, dim, seed=derived_seed(71, dim, t, 2))
                for kind in ALL_KINDS:
                    slack = (
                        metric_distance(kind, sigma, rho)
                        + metric_distance(kind, tau, rho)
                        - metric_distance(kind, sigma, tau)
                    )
                    worst = min(worst, slack)
        assert worst >= -1e-9

    def test_kinds_are_consistent_transforms_of_one_overlap(self):
        """All three distances must be deterministic functions of the same
        fidelity value, so recomputing from f_of has to match exactly."""
        from fidur.fidelity import fidelity

        rho = sample_mixed(4, 4, seed=derived_seed(72, 0))
        sigma = sample_mixed(4, 4, seed=derived_seed(72, 1))
        f = fidelity(rho, sigma)
        for kind in ALL_KINDS:
            assert metric_distance(kind, rho, sigma) == pytest.approx(f_of(kind, f), abs=1e-12)


class TestAngleOnPureStates:
    def test_plus_against_zero(self):
        d = metric_distance(MetricKind.ANGLE, ZERO.density(), PLUS.density())
        assert d == pytest.approx(math.pi / 4, abs=1e-7)

    def test_matches_arccos_of_the_overlap(self):
        # The angle metric on pure states is arccos |<psi|phi>|.
        for t in range(25):
            psi = sample_pure(4, seed=derived_seed(73, t, 0))
            phi = sample_pure(4, seed=derived_seed(73, t, 1))
            overlap = abs(np.vdot(psi.amplitudes, phi.amplitudes))
            assert math.acos(min(overlap, 1.0)) == pytest.approx(
                metric_distance(MetricKind.ANGLE, psi.density(), phi.density()), abs=1e-7
            )
