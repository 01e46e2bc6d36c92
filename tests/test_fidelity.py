import importlib
import math
from functools import partial

import numpy as np
import pytest

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
    sample_haar_unitary,
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
        # Rank-deficient first arguments give the eigen-factor of rho floored
        # zero columns: traced-out states of rank r < N and pure projectors.
        for dim in range(2, 11):
            for t in range(20):
                sigma = sample_mixed(dim, dim, seed=derived_seed(70, dim, t, 1))
                firsts = [
                    sample_mixed(dim, dim, seed=derived_seed(70, dim, t, 0)),
                    sample_pure(dim, seed=derived_seed(70, dim, t, 2)).density(),
                    *(sample_mixed(dim, r, seed=derived_seed(70, dim, t, 3, r))
                      for r in range(1, dim)),
                ]
                for rho in firsts:
                    assert abs(fidelity(rho, sigma) - nested_root_fidelity(rho, sigma)) <= 1e-13

    def test_repeated_call_returns_the_identical_float(self):
        rho = sample_mixed(4, 4, seed=1)
        sigma = sample_mixed(4, 4, seed=2)
        first = fidelity(rho, sigma)
        assert fidelity(rho, sigma) is first

    def test_cache_hit_skips_the_kernel(self, monkeypatch):
        rho = sample_mixed(4, 4, seed=1)
        sigma = sample_mixed(4, 4, seed=2)
        first = fidelity(rho, sigma)

        def refuse(*args, **kwargs):
            raise AssertionError("kernel run on a cache hit")

        monkeypatch.setattr(importlib.import_module("fidur.fidelity"), "_fidelity_kernel", refuse)
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

    @pytest.mark.parametrize("stacked", ["sigma", "rho", "both", "same"])
    @pytest.mark.parametrize("kind", [None, *MetricKind], ids=lambda k: getattr(k, "value", "F"))
    def test_broadcasts_over_stacked_states(self, stacked, kind):
        stack = sample_mixed(3, 3, seed=(1, 2, 3))
        rho, sigma = {
            "sigma": (sample_mixed(3, 3, seed=4), stack),
            "rho": (stack, sample_mixed(3, 3, seed=4)),
            "both": (sample_mixed(3, 3, seed=(5, 6), count=1), stack),
            "same": (stack, stack),
        }[stacked]
        f = fidelity if kind is None else partial(metric_distance, kind)
        cache = _fidelity.cache_info()
        values = f(rho, sigma)
        assert _fidelity.cache_info() == cache
        lead = np.broadcast_shapes(rho.matrix.shape[:-2], sigma.matrix.shape[:-2])
        assert values.shape == lead == {"both": (2, 3)}.get(stacked, (3,))

        def member(state, i):
            return DensityMatrix(np.broadcast_to(state.matrix, lead + (3, 3))[i])

        for i in np.ndindex(lead):
            single = f(member(rho, i), member(sigma, i))
            assert type(single) is float and np.float64(single).tobytes() == values[i].tobytes()
        if stacked == "same":
            assert np.all(values == (1.0 if kind is None else 0.0))

    @pytest.mark.parametrize("kind", [None, *MetricKind], ids=lambda k: getattr(k, "value", "F"))
    def test_stacks_that_do_not_broadcast_are_a_dimension_mismatch(self, kind):
        f = fidelity if kind is None else partial(metric_distance, kind)
        with pytest.raises(DimensionMismatch):
            f(sample_mixed(3, 3, seed=(1, 2)), sample_mixed(3, 3, seed=(1, 2, 3)))


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


def _commuting_pairs():
    """(rho, sigma, F) for p = (1 - (N-1)e, e, ...) and q = (1 - 2(N-1)e, 2e, ...),
    in the computational basis and Haar-rotated; F = (sum sqrt(p_i q_i))^2."""
    for dim in (2, 3, 5, 8, 10):
        for k in range(3, 14):
            e = 10.0 ** -k
            p = np.full(dim, e)
            p[0] = 1.0 - (dim - 1) * e
            q = np.full(dim, 2 * e)
            q[0] = 1.0 - 2 * (dim - 1) * e
            exact = math.fsum(np.sqrt(p * q)) ** 2
            u = sample_haar_unitary(dim, derived_seed(66, dim, k))
            yield dim, DensityMatrix(np.diag(p)), DensityMatrix(np.diag(q)), exact
            rotated = (DensityMatrix((u * x) @ u.conj().T) for x in (p, q))
            yield dim, *rotated, exact


def _pure_pairs():
    """(rho, sigma, F) for pure pairs |psi>, |psi + d chi> (normalized), down to
    nearly identical ones; F = |<psi|phi>|^2."""
    for dim in (2, 3, 5, 8, 10):
        for t in range(5):
            psi = sample_pure(dim, seed=derived_seed(67, dim, t, 0)).amplitudes
            chi = sample_pure(dim, seed=derived_seed(67, dim, t, 1)).amplitudes
            for d in (1.0, 1e-2, 1e-4, 1e-6, 1e-8):
                phi = psi + d * chi
                phi = PureState(phi / np.linalg.norm(phi))
                exact = abs(np.vdot(psi, phi.amplitudes)) ** 2
                yield dim, PureState(psi).density(), phi.density(), exact


@pytest.mark.parametrize("family", [_commuting_pairs, _pure_pairs], ids=["commuting", "pure"])
def test_oracle_is_accurate_near_one(family):
    """The oracle is within 16 N eps of closed-form F, down to 1 - F ~ 1e-16
    (the kernel's eigenvalue floor is not held to this yet)."""
    eps = np.finfo(np.float64).eps
    worst = max(abs(fidelity_oracle(rho, sigma) - exact) / (dim * eps)
                for dim, rho, sigma, exact in family())
    assert worst <= 16


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
