import importlib
from functools import partial

import numpy as np
import pytest

from fidur import states
from fidur.errors import DimensionMismatch, DomainError
from fidur.fidelity import (
    _fidelity,
    fidelity,
    fidelity_oracle,
    fidelity_pure_mixed,
    fidelity_pure_pure,
    purification_overlap_search,
)
from fidur.linalg import psd_sqrt
from fidur.metrics import MetricKind, metric_distance
from fidur.states import (
    DensityMatrix,
    PureState,
    derived_seed,
    purify,
    sample_mixed,
    sample_pure,
)

PLUS = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
ZERO = PureState(np.array([1.0, 0.0]))
ONE = PureState(np.array([0.0, 1.0]))


def bit_distinct_copy(rho):
    """Rebuild a state from its spectral decomposition so the matrix is
    numerically equal but not bitwise identical, forcing the full code path."""
    w, v = np.linalg.eigh(rho.matrix)
    m = (v * np.clip(w, 0.0, None)) @ v.conj().T
    m = (m + m.conj().T) / 2
    return DensityMatrix(m / np.trace(m).real)


class TestFidelity:
    def test_identical_objects_give_exactly_one(self):
        rho = sample_mixed(4, 4, seed=1)
        assert fidelity(rho, rho) == 1.0

    def test_numerically_equal_states(self):
        for dim in range(2, 7):
            rho = sample_mixed(dim, dim, seed=dim)
            assert fidelity(rho, bit_distinct_copy(rho)) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_pure_states(self):
        assert fidelity(ZERO.density(), ONE.density()) == pytest.approx(0.0, abs=1e-12)

    def test_commuting_states_match_classical_overlap(self):
        """For simultaneously diagonal states the value reduces to the squared
        Bhattacharyya coefficient of the eigenvalue distributions."""
        rho = DensityMatrix(np.diag([0.6, 0.4]))
        sigma = DensityMatrix(np.diag([0.5, 0.5]))
        oracle = float((np.sqrt(0.6 * 0.5) + np.sqrt(0.4 * 0.5)) ** 2)
        assert oracle == pytest.approx(0.9898979485566356, abs=1e-15)
        assert fidelity(rho, sigma) == pytest.approx(oracle, abs=1e-12)

    def test_symmetry(self):
        for t in range(20):
            rho = sample_mixed(3, 3, seed=derived_seed(50, t, 0))
            sigma = sample_mixed(3, 3, seed=derived_seed(50, t, 1))
            assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho), abs=1e-10)

    def test_range(self):
        for t in range(50):
            rho = sample_mixed(4, 4, seed=derived_seed(51, t, 0))
            sigma = sample_mixed(4, 4, seed=derived_seed(51, t, 1))
            f = fidelity(rho, sigma)
            assert 0.0 <= f <= 1.0

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fidelity(DensityMatrix(np.eye(2) / 2), DensityMatrix(np.eye(3) / 3))


def nested_root_fidelity(rho, sigma):
    """The textbook route: (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 with both
    roots built in full, the inner one with an absolute 4*N*eps floor."""
    s = psd_sqrt(rho.matrix)
    m = s @ sigma.matrix @ s
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    w = np.where(w < 4 * rho.dim * np.finfo(np.float64).eps, 0.0, w)
    root = (v * np.sqrt(w)) @ v.conj().T
    return float(np.trace(root).real) ** 2


class TestFidelityCaching:
    def test_matches_nested_root_route(self):
        for dim in range(2, 11):
            for t in range(20):
                rho = sample_mixed(dim, dim, seed=derived_seed(70, dim, t, 0))
                sigma = sample_mixed(dim, dim, seed=derived_seed(70, dim, t, 1))
                assert abs(fidelity(rho, sigma) - nested_root_fidelity(rho, sigma)) <= 1e-13

    def test_repeated_call_returns_the_identical_float(self):
        rho = sample_mixed(4, 4, seed=1)
        sigma = sample_mixed(4, 4, seed=2)
        first = fidelity(rho, sigma)
        assert fidelity(rho, sigma) is first

    def test_cache_hit_skips_the_equality_test(self, monkeypatch):
        rho = sample_mixed(4, 4, seed=1)
        sigma = sample_mixed(4, 4, seed=2)
        first = fidelity(rho, sigma)

        def refuse(*args, **kwargs):
            raise AssertionError("matrices compared on a cache hit")

        monkeypatch.setattr(importlib.import_module("fidur.fidelity"), "_same_matrix", refuse)
        assert fidelity(rho, sigma) is first

    def test_identical_inputs_give_exactly_one_on_every_call(self):
        rho = sample_mixed(4, 4, seed=1)
        twin = DensityMatrix(rho.matrix.copy())
        for sigma in (rho, twin):
            assert fidelity(rho, sigma) == 1.0
            assert fidelity(rho, sigma) == 1.0

    def test_only_recent_pairs_keep_their_value(self):
        assert _fidelity.cache_info().maxsize == 64
        rho = sample_mixed(3, 3, seed=1)
        partners = [sample_mixed(3, 3, seed=derived_seed(2, t)) for t in range(65)]
        values = [fidelity(rho, sigma) for sigma in partners]
        assert _fidelity.cache_info().currsize == 64
        assert fidelity(rho, partners[-1]) is values[-1]
        again = fidelity(rho, partners[0])  # least recently used, so it was evicted
        assert again is not values[0] and again == values[0]

    def test_a_new_state_never_reads_a_dropped_state_value(self):
        # Each sigma is dropped when the next is drawn. The cache holds its
        # states, so no new state can take a cached state's identity.
        rho = sample_mixed(3, 3, seed=1)
        for t in range(20):
            sigma = sample_mixed(3, 3, seed=derived_seed(4, t))
            assert fidelity(rho, sigma) == pytest.approx(fidelity_oracle(rho, sigma), abs=1e-9)

    def test_oracle_ignores_the_cached_root(self, monkeypatch):
        rho = sample_mixed(4, 4, seed=1)
        sigma = sample_mixed(4, 4, seed=2)
        expected = fidelity_oracle(rho, sigma)
        monkeypatch.setattr(states, "_root", lambda state: np.zeros((4, 4), dtype=complex))
        assert fidelity(rho, sample_mixed(4, 4, seed=3)) == 0.0  # fidelity does read it
        assert fidelity_oracle(rho, sigma) == expected

    @pytest.mark.parametrize("stacked", ["sigma", "rho", "both", "same"])
    @pytest.mark.parametrize("kind", [None, *MetricKind], ids=lambda k: getattr(k, "value", "F"))
    def test_rejects_a_stacked_state(self, stacked, kind):
        stack = sample_mixed(3, 3, seed=1, count=2)
        rho, sigma = {
            "sigma": (sample_mixed(3, 3, seed=2), stack),
            "rho": (stack, sample_mixed(3, 3, seed=2)),
            "both": (stack, sample_mixed(3, 3, seed=2, count=2)),
            "same": (stack, stack),
        }[stacked]
        f = fidelity if kind is None else partial(metric_distance, kind)
        _fidelity.cache_clear()
        for _ in range(2):
            with pytest.raises(DimensionMismatch):
                f(rho, sigma)
        assert _fidelity.cache_info().currsize == 0


PURE, MIXED = sample_pure(3, seed=3), sample_mixed(3, 3, seed=4)
PURES, MIXEDS = sample_pure(3, seed=1, count=3), sample_mixed(3, 3, seed=2, count=3)


@pytest.mark.parametrize(
    "call, args",
    [
        (fidelity_pure_pure, (PURES, PURE)),
        (fidelity_pure_pure, (PURE, PURES)),
        (fidelity_pure_pure, (PURES, sample_pure(3, seed=5, count=3))),
        (fidelity_pure_mixed, (PURES, MIXED)),
        (fidelity_pure_mixed, (PURE, MIXEDS)),
        (fidelity_oracle, (MIXEDS, MIXEDS)),
        (purify, (MIXEDS,)),
        (purification_overlap_search, (MIXEDS, MIXED, 2, 0)),
        (purification_overlap_search, (MIXED, MIXEDS, 2, 0)),
    ],
    ids=lambda x: getattr(x, "__name__", "args"),
)
def test_single_state_apis_reject_a_stack(call, args):
    with pytest.raises(DimensionMismatch):
        call(*args)


class TestPurePaths:
    def test_pure_pure_basics(self):
        assert fidelity_pure_pure(ZERO, ZERO) == 1.0
        assert fidelity_pure_pure(ZERO, ONE) == 0.0
        assert fidelity_pure_pure(ZERO, PLUS) == pytest.approx(0.5, abs=1e-15)

    def test_pure_pure_matches_general(self):
        for t in range(25):
            psi = sample_pure(3, seed=derived_seed(60, t, 0))
            phi = sample_pure(3, seed=derived_seed(60, t, 1))
            assert fidelity_pure_pure(psi, phi) == pytest.approx(
                fidelity(psi.density(), phi.density()), abs=1e-9
            )

    def test_pure_mixed_basics(self):
        half = DensityMatrix(np.eye(2) / 2)
        assert fidelity_pure_mixed(ZERO, half) == pytest.approx(0.5, abs=1e-15)
        assert fidelity_pure_mixed(ZERO, ZERO.density()) == pytest.approx(1.0, abs=1e-12)

    def test_pure_mixed_matches_general(self):
        for t in range(25):
            psi = sample_pure(4, seed=derived_seed(61, t, 0))
            sigma = sample_mixed(4, 4, seed=derived_seed(61, t, 1))
            assert fidelity_pure_mixed(psi, sigma) == pytest.approx(
                fidelity(psi.density(), sigma), abs=1e-9
            )

    def test_projector_probability_identity(self):
        """Against a rank-one projector, fidelity equals the outcome
        probability tr(P rho)."""
        for dim in range(2, 11):
            psi = sample_pure(dim, seed=derived_seed(62, dim, 0))
            rho = sample_mixed(dim, dim, seed=derived_seed(62, dim, 1))
            expected = float(np.real(psi.amplitudes.conj() @ rho.matrix @ psi.amplitudes))
            assert fidelity(psi.density(), rho) == pytest.approx(expected, abs=1e-10)


class TestFidelityOracle:
    def test_agrees_on_named_examples(self):
        pairs = [
            (DensityMatrix(np.diag([0.6, 0.4])), DensityMatrix(np.diag([0.5, 0.5]))),
            (ZERO.density(), PLUS.density()),
            (DensityMatrix(np.eye(3) / 3), sample_mixed(3, 3, seed=4)),
        ]
        for rho, sigma in pairs:
            assert fidelity_oracle(rho, sigma) == pytest.approx(fidelity(rho, sigma), abs=1e-12)

    def test_maximally_mixed_self(self):
        rho = DensityMatrix(np.eye(5) / 5)
        assert fidelity_oracle(rho, bit_distinct_copy(rho)) == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_primary_on_random_pairs(self):
        for dim in range(2, 7):
            for t in range(40):
                rho = sample_mixed(dim, dim, seed=derived_seed(63, dim, t, 0))
                sigma = sample_mixed(dim, dim, seed=derived_seed(63, dim, t, 1))
                assert fidelity_oracle(rho, sigma) == pytest.approx(
                    fidelity(rho, sigma), abs=1e-9
                )

    def test_agrees_on_rank_deficient_pairs(self):
        for t in range(20):
            rho = sample_pure(4, seed=derived_seed(64, t, 0)).density()
            sigma = sample_mixed(4, 2, seed=derived_seed(64, t, 1))
            assert fidelity_oracle(rho, sigma) == pytest.approx(fidelity(rho, sigma), abs=1e-9)


class TestPurificationOverlapSearch:
    def test_equal_pure_states_reach_one(self):
        rho = ZERO.density()
        assert purification_overlap_search(rho, bit_distinct_copy(rho), trials=1, seed=0) == (
            pytest.approx(1.0, abs=1e-12)
        )

    def test_never_exceeds_fidelity(self):
        for t in range(30):
            rho = sample_mixed(3, 3, seed=derived_seed(65, t, 0))
            sigma = sample_mixed(3, 3, seed=derived_seed(65, t, 1))
            best = purification_overlap_search(rho, sigma, trials=25, seed=t)
            assert best <= fidelity(rho, sigma) + 1e-9

    def test_qubit_search_comes_close(self):
        rho = sample_mixed(2, 2, seed=derived_seed(66, 0))
        sigma = sample_mixed(2, 2, seed=derived_seed(66, 1))
        best = purification_overlap_search(rho, sigma, trials=2000, seed=7)
        assert best >= fidelity(rho, sigma) - 0.05

    def test_deterministic(self):
        rho = sample_mixed(3, 3, seed=1)
        sigma = sample_mixed(3, 3, seed=2)
        a = purification_overlap_search(rho, sigma, trials=10, seed=5)
        b = purification_overlap_search(rho, sigma, trials=10, seed=5)
        assert a == b

    def test_rejects_non_positive_trials(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(DomainError):
            purification_overlap_search(rho, rho, trials=0, seed=0)
