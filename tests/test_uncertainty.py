import json
import math

import numpy as np
import pytest

from fidur.errors import DimensionMismatch, DomainError
from fidur.metrics import MetricKind, f_of
from fidur.states import (
    DensityMatrix,
    ProjectiveObservable,
    PureState,
    computational_observable,
    derived_seed,
    fourier_observable,
    projector,
    sample_mixed,
    sample_observable,
    sample_pure,
)
from fidur.uncertainty import (
    URReport,
    _probabilities,
    _slacks,
    check_ur,
    max_probability,
    outcome_probabilities,
    overlap,
    report_from_probabilities,
)

ALL_KINDS = (MetricKind.ANGLE, MetricKind.BURES, MetricKind.ROOT_INFIDELITY)
HADAMARD = ProjectiveObservable(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))


class TestOutcomeProbabilities:
    def test_eigenstate_concentrates(self):
        a = computational_observable(3)
        rho = projector(a, 1)
        p = outcome_probabilities(a, rho)
        assert p == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)

    def test_maximally_mixed_is_uniform(self):
        b = sample_observable(4, seed=1)
        p = outcome_probabilities(b, DensityMatrix(np.eye(4) / 4))
        assert p == pytest.approx(np.full(4, 0.25), abs=1e-12)

    def test_hadamard_split(self):
        rho = PureState(np.array([1.0, 0.0])).density()
        p = outcome_probabilities(HADAMARD, rho)
        assert p == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_sums_to_one_and_stays_in_range(self):
        for t in range(30):
            rho = sample_mixed(5, 5, seed=derived_seed(80, t, 0))
            b = sample_observable(5, seed=derived_seed(80, t, 1))
            p = outcome_probabilities(b, rho)
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(p >= 0.0) and np.all(p <= 1.0)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            outcome_probabilities(computational_observable(3), DensityMatrix(np.eye(2) / 2))


class TestMaxProbability:
    def test_eigenstate(self):
        a = computational_observable(4)
        p, idx = max_probability(a, projector(a, 2))
        assert p == pytest.approx(1.0, abs=1e-12)
        assert idx == 2

    def test_tie_breaks_to_first_index(self):
        p, idx = max_probability(computational_observable(3), DensityMatrix(np.eye(3) / 3))
        assert p == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert idx == 0

    def test_plain_diagonal(self):
        p, idx = max_probability(computational_observable(2), DensityMatrix(np.diag([0.3, 0.7])))
        assert p == pytest.approx(0.7, abs=1e-15)
        assert idx == 1


class TestOverlap:
    def test_same_basis(self):
        a = computational_observable(3)
        assert overlap(a, a) == pytest.approx(1.0, abs=1e-15)

    def test_computational_vs_hadamard(self):
        assert overlap(computational_observable(2), HADAMARD) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-15
        )

    def test_computational_vs_fourier(self):
        assert overlap(computational_observable(4), fourier_observable(4)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_range_bounds(self):
        for dim in range(2, 7):
            for t in range(15):
                a = sample_observable(dim, seed=derived_seed(81, dim, t, 0))
                b = sample_observable(dim, seed=derived_seed(81, dim, t, 1))
                c = overlap(a, b)
                assert 1.0 / math.sqrt(dim) - 1e-9 <= c <= 1.0

    def test_matches_projector_form(self):
        """max_ij |<a_i|b_j>| must equal max_ij sqrt(tr(P_i Q_j))."""
        a = sample_observable(3, seed=5)
        b = sample_observable(3, seed=6)
        best = 0.0
        for i in range(3):
            for j in range(3):
                t = np.trace(projector(a, i).matrix @ projector(b, j).matrix).real
                best = max(best, math.sqrt(max(t, 0.0)))
        assert overlap(a, b) == pytest.approx(best, abs=1e-10)


class TestUncertaintyMeasure:
    """U(A; rho) = f(max_i p_i), as the reports compute it."""

    def test_eigenstate_is_certain(self):
        a = computational_observable(3)
        rho = projector(a, 0)
        for kind in ALL_KINDS:
            assert f_of(kind, max_probability(a, rho)[0]) == pytest.approx(0.0, abs=1e-7)

    def test_maximally_mixed_saturates(self):
        rho = DensityMatrix(np.eye(4) / 4)
        b = sample_observable(4, seed=2)
        for kind in ALL_KINDS:
            assert f_of(kind, max_probability(b, rho)[0]) == pytest.approx(
                f_of(kind, 0.25), abs=1e-10
            )


class TestCheckUR:
    def certainty_case(self):
        a = computational_observable(2)
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        return a, HADAMARD, rho

    def test_certainty_case_is_tight_for_angle(self):
        a, b, rho = self.certainty_case()
        report = check_ur(MetricKind.ANGLE, a, b, rho)
        assert report.u_a == 0.0
        assert report.p_max_a == pytest.approx(1.0, abs=1e-12)
        assert report.p_max_b == pytest.approx(0.5, abs=1e-12)
        assert report.overlap_c == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
        assert report.bound == pytest.approx(math.pi / 4, abs=1e-12)
        assert abs(report.slack) <= 1e-12

    def test_certainty_case_all_kinds_nonnegative(self):
        a, b, rho = self.certainty_case()
        for kind in ALL_KINDS:
            assert check_ur(kind, a, b, rho).slack >= -1e-12

    def test_same_observable_gives_zero_bound(self):
        a = sample_observable(3, seed=3)
        rho = sample_mixed(3, 3, seed=4)
        report = check_ur(MetricKind.ANGLE, a, a, rho)
        assert report.overlap_c == pytest.approx(1.0, abs=1e-12)
        assert report.bound == pytest.approx(0.0, abs=1e-7)
        assert report.slack >= -1e-9

    def test_root_infidelity_closed_form(self):
        a, b, rho = self.certainty_case()
        report = check_ur(MetricKind.ROOT_INFIDELITY, a, b, rho)
        assert report.u_a == pytest.approx(math.sqrt(1.0 - report.p_max_a), abs=1e-12)
        assert report.u_b == pytest.approx(math.sqrt(1.0 - report.p_max_b), abs=1e-12)
        assert report.bound == pytest.approx(
            math.sqrt(1.0 - report.overlap_c**2), abs=1e-12
        )

    def test_random_states_never_violate(self):
        for dim in (2, 3, 5):
            for t in range(40):
                a = sample_observable(dim, seed=derived_seed(82, dim, t, 0))
                b = sample_observable(dim, seed=derived_seed(82, dim, t, 1))
                rho = sample_mixed(dim, dim, seed=derived_seed(82, dim, t, 2))
                for kind in ALL_KINDS:
                    assert check_ur(kind, a, b, rho).slack >= -1e-9

    def test_eigenstate_inputs_never_violate(self):
        """States aligned with a basis vector of A probe the boundary."""
        for dim in (2, 4):
            for t in range(25):
                a = sample_observable(dim, seed=derived_seed(83, dim, t, 0))
                b = sample_observable(dim, seed=derived_seed(83, dim, t, 1))
                rho = projector(a, t % dim)
                for kind in ALL_KINDS:
                    report = check_ur(kind, a, b, rho)
                    assert report.p_max_a == pytest.approx(1.0, abs=1e-12)
                    assert report.slack >= -1e-9

    def test_bures_paired_normalization(self):
        """Dividing the Bures report by sqrt(2) turns each term into
        sqrt(1 - sqrt(P)) and the bound into sqrt(1 - c)."""
        a = sample_observable(3, seed=11)
        b = sample_observable(3, seed=12)
        rho = sample_mixed(3, 3, seed=13)
        report = check_ur(MetricKind.BURES, a, b, rho)
        r2 = math.sqrt(2.0)
        assert report.u_a / r2 == pytest.approx(
            math.sqrt(1.0 - math.sqrt(report.p_max_a)), abs=1e-12
        )
        assert report.u_b / r2 == pytest.approx(
            math.sqrt(1.0 - math.sqrt(report.p_max_b)), abs=1e-12
        )
        assert report.bound / r2 == pytest.approx(math.sqrt(1.0 - report.overlap_c), abs=1e-12)
        assert report.slack >= -1e-9

    def test_angle_slack_matches_arccos_identity(self):
        """The angle bound evaluates f at c^2, which collapses to arccos(c)."""
        psi = sample_pure(3, seed=14)
        a = sample_observable(3, seed=15)
        b = sample_observable(3, seed=16)
        report = check_ur(MetricKind.ANGLE, a, b, psi.density())
        expected = (
            math.acos(math.sqrt(report.p_max_a))
            + math.acos(math.sqrt(report.p_max_b))
            - math.acos(report.overlap_c)
        )
        assert report.slack == pytest.approx(expected, abs=1e-12)


class TestComplementaryObservables:
    def test_certainty_in_one_forces_uniformity_in_other(self):
        for dim in (2, 3, 4, 5):
            a = computational_observable(dim)
            b = fourier_observable(dim)
            assert overlap(a, b) == pytest.approx(1.0 / math.sqrt(dim), abs=1e-12)
            rho = projector(a, 0)
            p_b, _ = max_probability(b, rho)
            assert p_b == pytest.approx(1.0 / dim, abs=1e-12)
            for kind in ALL_KINDS:
                report = check_ur(kind, a, b, rho)
                assert report.slack == pytest.approx(0.0, abs=1e-9)


class TestURReport:
    def test_json_field_names(self):
        a = computational_observable(2)
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        report = check_ur(MetricKind.ANGLE, a, HADAMARD, rho)
        payload = json.loads(report.to_json())
        assert set(payload) == {
            "p_max_a",
            "p_max_b",
            "u_a",
            "u_b",
            "overlap_c",
            "bound",
            "slack",
        }
        assert payload["slack"] == report.slack

    def test_slack_field_closes_the_identity(self):
        a = computational_observable(2)
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        for kind in ALL_KINDS:
            report = check_ur(kind, a, HADAMARD, rho)
            assert report.slack == pytest.approx(
                report.u_a + report.u_b - report.bound, abs=1e-15
            )


FIELDS = ("p_max_a", "p_max_b", "u_a", "u_b", "overlap_c", "bound", "slack")


class TestStackedKernels:
    """A stack is evaluated element by element exactly as single calls are."""

    @pytest.mark.parametrize("dim", [2, 3, 7, 10])
    def test_stack_equals_scalar_calls_bitwise(self, dim):
        n = 9
        a = sample_observable(dim, seed=derived_seed(90, dim, 0), count=n)
        b = sample_observable(dim, seed=derived_seed(90, dim, 1), count=n)
        rho = sample_mixed(dim, dim, seed=derived_seed(90, dim, 2), count=n)
        p = outcome_probabilities(a, rho)
        p_a, i_a = max_probability(a, rho)
        p_b, _ = max_probability(b, rho)
        c = overlap(a, b)
        for kind in ALL_KINDS:
            stacked = report_from_probabilities(kind, p_a, p_b, c)
            for t in range(n):
                a_t = ProjectiveObservable(a.eigenbasis[t])
                b_t = ProjectiveObservable(b.eigenbasis[t])
                rho_t = DensityMatrix(rho.matrix[t])
                assert np.array_equal(p[t], outcome_probabilities(a_t, rho_t))
                assert (p_a[t], i_a[t]) == max_probability(a_t, rho_t)
                single = check_ur(kind, a_t, b_t, rho_t)
                assert URReport(*(float(getattr(stacked, f)[t]) for f in FIELDS)) == single

    @pytest.mark.parametrize("dim", [2, 3, 7, 10])
    def test_sweep_chunk_kernels_equal_the_library_calls_bitwise(self, dim):
        """One probability pass over both variants, and the slacks of every
        kind from one stack, are the per-variant and per-kind library calls."""
        n = 9
        ab = sample_observable(dim, (derived_seed(91, dim, 0), derived_seed(91, dim, 1)), n)
        pure = sample_pure(dim, seed=derived_seed(91, dim, 2), count=n).density()
        mixed = sample_mixed(dim, dim, seed=derived_seed(91, dim, 3), count=n)
        rho = np.stack([pure.matrix, mixed.matrix], axis=1)
        p = _probabilities(ab.eigenbasis[:, :, None], rho)
        c = overlap(ProjectiveObservable(ab.eigenbasis[0]), ProjectiveObservable(ab.eigenbasis[1]))
        p_max = p.max(axis=-1)
        slack = _slacks(ALL_KINDS, p_max[0], p_max[1], c[:, None])
        assert slack.shape == (n, 2, len(ALL_KINDS))
        for v, state in enumerate((pure, mixed)):
            assert np.array_equal(p[:, :, v], outcome_probabilities(ab, state))
            p_a, p_b = max_probability(ab, state)[0]
            for k, kind in enumerate(ALL_KINDS):
                report = report_from_probabilities(kind, p_a, p_b, c)
                assert slack[:, v, k].tobytes() == report.slack.tobytes()

    def test_the_probability_pass_keeps_its_guards(self):
        e = np.eye(2, dtype=complex)[None]
        with pytest.raises(DomainError, match="imaginary part"):
            _probabilities(e, np.diag([0.5 + 1e-6j, 0.5])[None])
        with pytest.raises(DomainError, match="probability_clamp"):
            _probabilities(e, np.diag([1.5, -0.5]).astype(complex)[None])
        assert _probabilities(e, np.diag([1.0 + 1e-12, -1e-12]).astype(complex)).tolist() == [
            [1.0, 0.0]]

    def test_scalar_calls_return_floats(self):
        rep = report_from_probabilities(MetricKind.ANGLE, 0.75, 0.5, 0.8)
        assert all(type(getattr(rep, f)) is float for f in FIELDS)

    def test_guards_apply_to_every_member(self):
        with pytest.raises(DomainError):
            report_from_probabilities(MetricKind.BURES, np.array([0.5, 1.1, 0.7]), 0.5, 0.8)

    def test_shapes_that_do_not_broadcast_are_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match=r"shapes \(2,\), \(3,\), \(\) do not broadcast"):
            report_from_probabilities(MetricKind.ANGLE, np.full(2, 0.5), np.full(3, 0.5), 0.8)

    @pytest.mark.parametrize(
        "call",
        [
            outcome_probabilities,
            max_probability,
            lambda a, rho: check_ur(MetricKind.ANGLE, a, a, rho),
            lambda a, rho: check_ur(MetricKind.ANGLE, computational_observable(3), a, rho),
        ],
        ids=["outcome_probabilities", "max_probability", "check_ur", "check_ur_single_a"],
    )
    def test_stacks_that_do_not_broadcast_are_a_dimension_mismatch(self, call):
        a = sample_observable(3, (1, 2))
        with pytest.raises(DimensionMismatch, match="do not broadcast"):
            call(a, sample_mixed(3, 3, (1, 2, 3)))
        call(a, sample_mixed(3, 3, (1, 2), count=1))  # (2,) against (2, 1) broadcasts
