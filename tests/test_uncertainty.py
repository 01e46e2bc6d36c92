import json
import math
from functools import lru_cache

import mpmath
import numpy as np
import pytest

import fidur.sweep
import fidur.uncertainty
from fidur.errors import DimensionMismatch, DomainError, ValidationError
from fidur.metrics import MetricKind, f_of
from fidur.states import (
    DensityMatrix,
    ProjectiveObservable,
    PureState,
    computational_observable,
    derived_seed,
    fourier_observable,
    projector,
    sample_haar_unitary,
    sample_mixed,
    sample_observable,
    sample_pure,
)
from fidur.linalg import adjoint
from fidur.sweep import SweepConfig, _plan, _run_window
from fidur.uncertainty import (
    URReport,
    _maxima,
    _probabilities,
    check_ur,
    max_probability,
    outcome_probabilities,
    overlap,
    report_from_probabilities,
)

ALL_KINDS = (MetricKind.ANGLE, MetricKind.BURES, MetricKind.ROOT_INFIDELITY)
EPS = float(np.finfo(np.float64).eps)
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

    def test_forms_c_alone(self, monkeypatch):
        """overlap reports c only, so it never computes 1 - c^2."""
        def unused(x):
            raise AssertionError("overlap computed 1 - c^2")

        monkeypatch.setattr(fidur.uncertainty, "_overlap_complement", unused)
        assert overlap(computational_observable(2), HADAMARD) == 1.0 / math.sqrt(2.0)

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


class TestAccuracyNearCertainty:
    """The relation is evaluated on complements, so an eigenstate reads
    certain to round-off, not to sqrt(eps) ~ 1.5e-8."""

    @pytest.mark.parametrize("dim", range(2, 11))
    def test_an_eigenprojector_is_certain_to_round_off(self, dim):
        a = sample_observable(dim, seed=derived_seed(84, dim, 0))
        b = sample_observable(dim, seed=derived_seed(84, dim, 1))
        for i in range(dim):
            for kind in ALL_KINDS:
                report = check_ur(kind, a, b, projector(a, i))
                assert 0.0 <= report.u_a <= 16 * dim * EPS


def _mp_f(kind, y):
    """f of ``kind`` at the complement y = 1 - P (or 1 - c^2), in mpmath."""
    if kind is MetricKind.ANGLE:
        return mpmath.asin(mpmath.sqrt(y))
    if kind is MetricKind.BURES:
        return mpmath.sqrt(2 - 2 * mpmath.sqrt(1 - y))
    return mpmath.sqrt(y)


def _mp_slack(kind, y_a, y_b, y_c) -> float:
    return float(_mp_f(kind, y_a) + _mp_f(kind, y_b) - _mp_f(kind, y_c))


@lru_cache(maxsize=None)
def _exact_slack(kind, theta, alpha):
    """The slack of the equality family below, in 50-digit arithmetic:
    1 - P_A = sin^2(theta), 1 - P_B = sin^2(alpha - theta), 1 - c^2 = sin^2(alpha)."""
    with mpmath.workdps(50):
        theta, alpha = mpmath.mpf(theta), mpmath.mpf(alpha)
        return _mp_slack(kind, *(mpmath.sin(t) ** 2 for t in (theta, alpha - theta, alpha)))


def _mp_complement(amplitudes) -> mpmath.mpf:
    """1 - max p / sum p of p = |amplitudes|^2, as ``uncertainty._complement``
    defines it, in mpmath."""
    p = [abs(z) ** 2 for z in amplitudes]
    return (mpmath.fsum(p) - max(p)) / mpmath.fsum(p)


class TestEqualityFamily:
    """A = U, B = U R with R a block rotation by alpha, and rho = s psi psi^dag
    for psi = U (cos theta, sin theta, 0, ...), 0 <= theta <= alpha: the angle
    relation holds with equality, theta + (alpha - theta) = alpha, and the
    other kinds hold strictly. Near theta = 0 (P_A -> 1), theta = alpha
    (P_B -> 1) and alpha -> 0 (c -> 1) a rounding of P or c^2 moved U by
    up to sqrt(eps), and a trace s within tolerance by up to sqrt(s - 1)."""

    @pytest.mark.parametrize("haar", [False, True], ids=["plain", "haar"])
    @pytest.mark.parametrize("dim", [2, 4, 6, 8, 10])
    def test_slacks_are_exact_to_round_off(self, dim, haar):
        u = sample_haar_unitary(dim, derived_seed(85, dim)) if haar else np.eye(dim)
        for alpha in (0.7, 0.3, 1e-3, 1e-6):
            r = np.zeros((dim, dim))
            for j in range(0, dim, 2):
                r[j:j + 2, j:j + 2] = [[math.cos(alpha), -math.sin(alpha)],
                                       [math.sin(alpha), math.cos(alpha)]]
            a, b = ProjectiveObservable(u), ProjectiveObservable(u @ r)
            for theta in (0.0, 1e-8 * alpha, 1e-4 * alpha, 0.5 * alpha, alpha):
                psi = np.zeros(dim)
                psi[:2] = math.cos(theta), math.sin(theta)
                psi = u @ psi
                for scale in (1.0, 1.0 + 9e-11, 1.0 - 9e-11):
                    rho = DensityMatrix(scale * np.outer(psi, psi.conj()))
                    for kind in ALL_KINDS:
                        slack = check_ur(kind, a, b, rho).slack
                        if kind is MetricKind.ANGLE:
                            assert slack >= -16 * EPS, (alpha, theta, scale)
                        else:
                            exact = _exact_slack(kind, theta, alpha)
                            assert abs(slack - exact) <= 16 * EPS, (kind, alpha, theta, scale)

    @pytest.mark.parametrize("dim", range(2, 11))
    def test_great_circle_of_a_haar_pair_at_any_dim(self, dim):
        """Independent Haar A and B at any N, odd N included. The overlap
        c = |<a|b>| = cos(alpha) is attained at a = a_i*, b = b_j*, and
        psi = cos(theta) a + sin(theta) e runs on the great circle from a to b
        (e the unit part of b orthogonal to a, b's phase set so <a|b> = c):
        there P_A = cos^2(theta) and P_B = cos^2(alpha - theta), the
        Landau-Pollak equality set, so the angle slack is 0 to 16 eps. Bures
        and root-infidelity hold within 16 eps of the 50-digit slack of the
        same float psi, A and B. The reference reads psi, not the rounded
        entries of psi psi^dag: those lie about eps off rank one, which puts
        a complement of about eps, and so a slack of about sqrt(eps), into
        the reference."""
        u = sample_haar_unitary(dim, (derived_seed(86, dim, 0), derived_seed(86, dim, 1)))
        a, b = ProjectiveObservable(u[0]), ProjectiveObservable(u[1])
        x = adjoint(u[0]) @ u[1]
        i, j = np.unravel_index(np.argmax(np.abs(x)), x.shape)
        c = abs(x[i, j])
        top = u[0][:, i]
        e = u[1][:, j] * (x[i, j].conjugate() / c) - c * top
        e /= np.linalg.norm(e)
        alpha = math.acos(c)
        with mpmath.workdps(50):
            a_cols, b_cols = ([[mpmath.mpc(z) for z in col] for col in m.T] for m in u)
            y_c = min(_mp_complement([mpmath.fdot(bc, ac, conjugate=True) for ac in a_cols])
                      for bc in b_cols)
        for theta in (0.0, 1e-8 * alpha, 1e-4 * alpha, 0.5 * alpha, (1 - 1e-4) * alpha,
                      (1 - 1e-8) * alpha, alpha):
            psi = math.cos(theta) * top + math.sin(theta) * e
            rho = PureState(psi).density()
            with mpmath.workdps(50):
                psi_mp = [mpmath.mpc(z) for z in psi]
                y_a, y_b = (_mp_complement([mpmath.fdot(psi_mp, col, conjugate=True)
                                            for col in cols]) for cols in (a_cols, b_cols))
                exact = {kind: _mp_slack(kind, y_a, y_b, y_c) for kind in ALL_KINDS}
            for kind in ALL_KINDS:
                slack = check_ur(kind, a, b, rho).slack
                reference = 0.0 if kind is MetricKind.ANGLE else exact[kind]
                assert abs(slack - reference) <= 16 * EPS, (kind, theta / alpha)


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

    @pytest.mark.parametrize("c", [[[0.5], [0.5, 0.6]], "0.7", None, True], ids=repr)
    def test_a_non_real_overlap_is_a_validation_error(self, c):
        """c is checked before it is squared, as p_max_a and p_max_b are:
        numpy would raise a bare error for the first three and read True as 1.0."""
        with pytest.raises(ValidationError):
            report_from_probabilities(MetricKind.ANGLE, 0.6, 0.6, c)


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
            stacked = check_ur(kind, a, b, rho)
            from_p = report_from_probabilities(kind, p_a, p_b, c)
            for t in range(n):
                a_t = ProjectiveObservable(a.eigenbasis[t])
                b_t = ProjectiveObservable(b.eigenbasis[t])
                rho_t = DensityMatrix(rho.matrix[t])
                assert np.array_equal(p[t], outcome_probabilities(a_t, rho_t))
                assert (p_a[t], i_a[t]) == max_probability(a_t, rho_t)
                single = check_ur(kind, a_t, b_t, rho_t)
                assert URReport(*(float(getattr(stacked, f)[t]) for f in FIELDS)) == single
                assert (single.p_max_a, single.p_max_b, single.overlap_c) == (p_a[t], p_b[t], c[t])
                floats = report_from_probabilities(kind, float(p_a[t]), float(p_b[t]), float(c[t]))
                assert URReport(*(float(getattr(from_p, f)[t]) for f in FIELDS)) == floats

    @pytest.mark.parametrize("dim", [2, 3, 7, 10])
    def test_sweep_chunk_slacks_are_check_ur_of_each_trial(self, dim, monkeypatch):
        """The chunk factors its states by the drawn amplitudes and sets A to
        the computational basis, check_ur factors rho by V sqrt(w): the two
        routes agree to round-off on every slack."""
        config = SweepConfig(dims=(dim,), trials_per_dim=9, seed=91, kinds=ALL_KINDS,
                             mixedness="both")
        seen = []
        slacks = fidur.sweep._slacks

        def recording(kinds, y):
            seen.append(slacks(kinds, y))
            return seen[-1]

        monkeypatch.setattr(fidur.sweep, "_slacks", recording)
        _run_window(config, next(_plan(config, 1)))  # one chunk, one window
        slack = seen[0][-1]
        assert slack.shape == (9, 2, len(ALL_KINDS))

        def seed(role):
            return derived_seed(config.seed, dim, 0, role)

        a = computational_observable(dim)  # the chunk's A
        b = sample_observable(dim, seed(fidur.sweep._ROLE_B), 9)
        states = (sample_pure(dim, seed(fidur.sweep._ROLE_PURE), 9).density(),
                  sample_mixed(dim, dim, seed(fidur.sweep._ROLE_MIXED), 9))
        for v, rho in enumerate(states):
            for k, kind in enumerate(ALL_KINDS):
                gap = np.abs(check_ur(kind, a, b, rho).slack - slack[:, v, k])
                assert gap.max() <= 16 * dim * EPS

    def test_the_probability_kernel_keeps_its_clamp_and_divides_out_the_trace(self):
        e = np.eye(2, dtype=complex)[None]
        with pytest.raises(DomainError, match="probability_clamp"):
            _maxima(_probabilities(adjoint(e), np.diag([1.5 ** 0.5, 0.0]).astype(complex)[None]))
        # P = 1 + 2e-11 is clamped to 1; its complement is that of the normalized state.
        p, y = _maxima(_probabilities(adjoint(e), np.diag([1.0 + 1e-11, 1e-9]).astype(complex)))
        assert p == 1.0
        assert y == pytest.approx(1e-18 / (1.0 + 2e-11), rel=1e-15)

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
