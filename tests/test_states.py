import collections
import hashlib
import json
import pickle

import numpy as np
import pytest

from fidur.errors import DimensionMismatch, IndexOutOfRange, ValidationError
from fidur.fidelity import fidelity_pure_mixed
from fidur.linalg import psd_sqrt
from fidur.metrics import MetricKind, metric_distance
from fidur.states import (
    _root,
    DensityMatrix,
    ProjectiveObservable,
    PureState,
    computational_observable,
    derived_seed,
    fourier_observable,
    matrix_to_pairs,
    observable_from_payload,
    pairs_to_matrix,
    partial_trace_aux,
    projector,
    purify,
    sample_haar_unitary,
    sample_mixed,
    sample_observable,
    sample_pure,
    state_from_payload,
)
from fidur.uncertainty import outcome_probabilities

BELL = PureState(np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0))


class TestDensityMatrix:
    def test_accepts_valid_state(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        assert rho.dim == 2

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([1.1, -0.1]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([0.5, 0.6]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entry(self, bad):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = bad
        with pytest.raises(ValidationError):
            DensityMatrix(m)

    def test_rejects_imaginary_trace_within_the_hermitian_band(self):
        # Each diagonal entry is Hermitian within TOL.hermitian, but the
        # imaginary parts add up to 4e-10 in the trace.
        m = np.diag(np.full(10, 0.1 + 4e-11j))
        with pytest.raises(ValidationError, match="unit trace"):
            DensityMatrix(m)
        assert DensityMatrix(m.real).dim == 10

    def test_payload_round_trip_is_exact(self):
        rho = sample_mixed(3, 3, seed=9)
        back = DensityMatrix.from_payload(json.loads(json.dumps(rho.to_payload())))
        assert np.array_equal(back.matrix, rho.matrix)


def _good_stack(n=4, dim=3):
    return sample_mixed(dim, dim, seed=5, count=n).matrix.copy()


class TestDensityMatrixStorage:
    def test_matrix_is_read_only(self):
        rho = DensityMatrix(np.diag([0.6, 0.4]))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    def test_caller_array_is_copied(self):
        source = np.diag([0.6, 0.4]).astype(np.complex128)
        rho = DensityMatrix(source)
        source[0, 0] = 0.9
        source[1, 1] = 0.1
        assert np.array_equal(rho.matrix, np.diag([0.6, 0.4]))
        assert source.flags.writeable

    def test_view_of_caller_array_is_copied(self):
        stack = np.stack([np.diag([0.6, 0.4]), np.diag([0.5, 0.5])]).astype(np.complex128)
        rho = DensityMatrix(stack[1])
        stack[1] = np.diag([1.0, 0.0])
        assert np.array_equal(rho.matrix, np.diag([0.5, 0.5]))

    def test_matrix_is_the_judged_hermitian_part(self):
        # Hermitian within TOL.hermitian, yet <v|m|v> has imaginary part
        # 4.95e-10 for the uniform v at N = 11: the stored matrix has none.
        n = 11
        m = np.eye(n) / n + 0.495e-10j * (np.ones((n, n)) - np.eye(n))
        rho = DensityMatrix(m)
        assert np.array_equal(rho.matrix, (m + m.conj().T) / 2)
        uniform = fourier_observable(n).basis_state(0)
        assert fidelity_pure_mixed(uniform, rho) == pytest.approx(1 / n, abs=1e-15)
        assert outcome_probabilities(fourier_observable(n), rho) == pytest.approx(1 / n, abs=1e-15)

    def test_sqrt_is_cached_psd_sqrt(self):
        for dim in range(2, 11):
            rho = sample_mixed(dim, dim, seed=dim)
            root = rho.sqrt
            assert root.tobytes() == psd_sqrt(rho.matrix).tobytes()
            assert rho.sqrt is root
            with pytest.raises(ValueError):
                root[0, 0] = 0.0

    def test_only_recent_states_keep_their_root(self):
        assert _root.cache_info().maxsize == 64
        rhos = [sample_mixed(2, 2, seed=t) for t in range(65)]
        roots = [rho.sqrt for rho in rhos]
        assert _root.cache_info().currsize == 64
        assert all(rho.sqrt is root for rho, root in zip(rhos[1:], roots[1:]))
        recomputed = rhos[0].sqrt  # least recently used, so it was evicted
        assert recomputed is not roots[0] and recomputed.tobytes() == roots[0].tobytes()
        assert rhos[1].sqrt is not roots[1]  # evicted by the recomputation
        assert rhos[1].sqrt.tobytes() == roots[1].tobytes()

    def test_stack_has_no_root_and_caches_nothing(self):
        rho = DensityMatrix(_good_stack())
        _root.cache_clear()
        for _ in range(2):
            with pytest.raises(DimensionMismatch):
                rho.sqrt
        assert _root.cache_info().currsize == 0

    def test_pickle_round_trip_is_read_only(self):
        rho = sample_mixed(3, 3, seed=1)
        copy = pickle.loads(pickle.dumps(rho))
        assert np.array_equal(copy.matrix, rho.matrix)
        assert not copy.matrix.flags.writeable


# sha256 over the stored matrices, their roots and the 9 metric distances of
# 10 triples per dimension 2..10, taken before validation kept its
# eigendecomposition for the root: the values must not move by one bit.
TRIANGLE_DIGEST = "f145d251e69db1e2d15c32f4036000176e409dd85514d86440627a810732777e"


def _triple(dim, t):
    return [sample_mixed(dim, dim, seed=derived_seed(5005, dim, t, k)) for k in range(3)]


def _triangle_distances(triple):
    rho, sigma, tau = triple
    return [
        metric_distance(kind, a, b)
        for kind in MetricKind
        for a, b in ((sigma, rho), (tau, rho), (sigma, tau))
    ]


def _count_solver_calls(monkeypatch) -> collections.Counter:
    counts = collections.Counter()
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
            counts[_name] += 1
            return _solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


class TestSolverCalls:
    def test_triangle_values_are_pinned(self):
        h = hashlib.sha256()
        for dim in range(2, 11):
            for t in range(10):
                triple = _triple(dim, t)
                for d in _triangle_distances(triple):
                    h.update(np.float64(d).tobytes())
                for state in triple:
                    h.update(state.matrix.tobytes())
                    h.update(state.sqrt.tobytes())
        assert h.hexdigest() == TRIANGLE_DIGEST

    @pytest.mark.parametrize("dim", range(2, 11))
    def test_a_fresh_triple_makes_two_eigh_and_six_eigvalsh(self, monkeypatch, dim):
        counts = _count_solver_calls(monkeypatch)
        triple = _triple(dim, 0)
        assert counts == {"eigvalsh": 3}  # one validation per state
        first = _triangle_distances(triple)
        assert counts == {"eigh": 2, "eigvalsh": 6}  # roots of sigma and tau, one M per pair
        counts.clear()
        assert _triangle_distances(triple) == first
        assert counts == {}

    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
    def test_validation_makes_one_solver_call(self, monkeypatch, stacked):
        m = sample_mixed(3, 3, seed=2, count=4).matrix
        counts = _count_solver_calls(monkeypatch)
        DensityMatrix(m if stacked else m[0])
        assert counts == {"eigvalsh": 1}

    def test_evicted_state_recomputes_the_same_root(self):
        rho = sample_mixed(4, 4, seed=9)
        first = rho.sqrt
        for t in range(64):
            sample_mixed(3, 3, seed=t).sqrt
        assert rho.sqrt is not first
        assert rho.sqrt.tobytes() == first.tobytes() == psd_sqrt(rho.matrix).tobytes()


class TestStackedDensityMatrix:
    def test_accepts_stack(self):
        rho = DensityMatrix(_good_stack())
        assert rho.matrix.shape == (4, 3, 3)
        assert rho.dim == 3

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[0.5, 0.5], [0.0, 0.5]]),  # non-Hermitian
            np.diag([1.1, -0.1]),  # negative eigenvalue
            np.diag([0.5, 0.6]),  # wrong trace
        ],
        ids=["non-hermitian", "negative-eigenvalue", "wrong-trace"],
    )
    def test_one_bad_member_rejects_the_stack(self, bad):
        stack = _good_stack(dim=2)
        stack[2] = bad
        with pytest.raises(ValidationError):
            DensityMatrix(stack)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.zeros((0, 0)))

    def test_one_member_with_imaginary_trace_rejects_the_stack(self):
        stack = np.stack([np.diag(np.full(10, 0.1))] * 3).astype(complex)
        stack[1] = np.diag(np.full(10, 0.1 + 4e-11j))
        with pytest.raises(ValidationError, match="unit trace"):
            DensityMatrix(stack)


class TestStackedObservable:
    def test_accepts_stack(self):
        obs = sample_observable(3, seed=4, count=5)
        assert obs.eigenbasis.shape == (5, 3, 3)
        assert obs.dim == 3

    def test_basis_state_and_projector_take_columns_of_each_member(self):
        obs = sample_observable(3, seed=4, count=5)
        assert np.array_equal(obs.basis_state(1).amplitudes, obs.eigenbasis[:, :, 1])
        p = projector(obs, 1).matrix
        for t in range(5):
            single = ProjectiveObservable(obs.eigenbasis[t])
            assert np.array_equal(p[t], projector(single, 1).matrix)

    def test_one_non_orthonormal_member_rejects_the_stack(self):
        stack = sample_observable(2, seed=4, count=5).eigenbasis.copy()
        stack[3] = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            ProjectiveObservable(stack)


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            PureState(np.array([1.0, 1.0]))

    def test_density_is_outer_product(self):
        psi = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
        rho = psi.density()
        assert np.abs(rho.matrix - np.full((2, 2), 0.5)).max() < 1e-15

    def test_payload_round_trip(self):
        psi = sample_pure(4, seed=2)
        back = PureState.from_payload(json.loads(json.dumps(psi.to_payload())))
        assert np.array_equal(back.amplitudes, psi.amplitudes)


class TestProjectiveObservable:
    def test_rejects_non_orthonormal_columns(self):
        with pytest.raises(ValidationError):
            ProjectiveObservable(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_basis_state(self):
        a = computational_observable(3)
        assert np.array_equal(a.basis_state(1).amplitudes, np.array([0, 1, 0], dtype=complex))

    def test_basis_state_range(self):
        a = computational_observable(2)
        with pytest.raises(IndexOutOfRange):
            a.basis_state(2)
        with pytest.raises(IndexOutOfRange):
            a.basis_state(-1)

    def test_payload_round_trip(self):
        b = sample_observable(3, seed=5)
        back = ProjectiveObservable.from_payload(json.loads(json.dumps(b.to_payload())))
        assert np.array_equal(back.eigenbasis, b.eigenbasis)


class TestProjector:
    def test_computational(self):
        p = projector(computational_observable(2), 0)
        assert np.array_equal(p.matrix, np.diag([1.0, 0.0]).astype(complex))

    def test_hadamard_plus_projector(self):
        h = ProjectiveObservable(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
        p = projector(h, 0)
        assert np.abs(p.matrix - np.full((2, 2), 0.5)).max() < 1e-15

    def test_idempotent_unit_trace(self):
        rng_seeds = range(10)
        for seed in rng_seeds:
            b = sample_observable(4, seed=seed)
            p = projector(b, 2).matrix
            assert np.abs(p @ p - p).max() < 1e-12
            assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)


class TestPurify:
    def test_pure_input_gets_trivial_aux(self):
        rho = PureState(np.array([0.0, 1.0])).density()
        psi = purify(rho)
        assert psi.dim == 2
        assert abs(abs(np.vdot(psi.amplitudes, [0.0, 1.0])) - 1.0) < 1e-12

    def test_maximally_mixed_qubit(self):
        psi = purify(DensityMatrix(np.eye(2) / 2))
        rho = partial_trace_aux(psi, 2, 2)
        assert np.abs(rho.matrix - np.eye(2) / 2).max() < 1e-12

    def test_round_trip_diagonal(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        psi = purify(rho)
        back = partial_trace_aux(psi, 2, psi.dim // 2)
        assert np.abs(back.matrix - rho.matrix).max() < 1e-12

    def test_round_trip_random(self):
        for dim in range(2, 7):
            for t in range(20):
                rho = sample_mixed(dim, dim, seed=derived_seed(100, dim, t))
                psi = purify(rho)
                back = partial_trace_aux(psi, dim, psi.dim // dim)
                assert np.abs(back.matrix - rho.matrix).max() < 1e-10

    def test_low_rank_round_trip(self):
        rho = sample_mixed(5, 2, seed=77)
        psi = purify(rho)
        assert psi.dim // 5 <= 2
        back = partial_trace_aux(psi, 5, psi.dim // 5)
        assert np.abs(back.matrix - rho.matrix).max() < 1e-10


class TestPartialTrace:
    def test_bell_state_reduces_to_maximally_mixed(self):
        rho = partial_trace_aux(BELL, 2, 2)
        assert np.abs(rho.matrix - np.eye(2) / 2).max() < 1e-15

    def test_product_state(self):
        psi = PureState(np.kron(np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2.0)))
        rho = partial_trace_aux(psi, 2, 2)
        assert np.abs(rho.matrix - np.diag([1.0, 0.0])).max() < 1e-15

    def test_rejects_bad_split(self):
        with pytest.raises(DimensionMismatch):
            partial_trace_aux(PureState(np.ones(6) / np.sqrt(6.0)), 4, 2)


class TestDerivedSeed:
    def test_deterministic(self):
        assert derived_seed(42, 3, 1) == derived_seed(42, 3, 1)

    def test_streams_disjoint(self):
        seen = {derived_seed(42, d, t) for d in range(5) for t in range(5)}
        assert len(seen) == 25

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            derived_seed(-1)


class TestSamplers:
    def test_unitary_is_unitary(self):
        for dim in range(2, 9):
            u = sample_haar_unitary(dim, seed=dim)
            assert np.abs(u @ u.conj().T - np.eye(dim)).max() < 1e-10

    def test_unitary_deterministic(self):
        a = sample_haar_unitary(4, seed=42)
        b = sample_haar_unitary(4, seed=42)
        assert np.array_equal(a, b)

    def test_unitary_dim_one(self):
        u = sample_haar_unitary(1, seed=0)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_pure_is_normalized_and_deterministic(self):
        psi = sample_pure(5, seed=8)
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(psi.amplitudes, sample_pure(5, seed=8).amplitudes)

    def test_mixed_rank_bounded_by_aux(self):
        rho = sample_mixed(4, 1, seed=3)
        w = np.linalg.eigvalsh(rho.matrix)
        assert w[-1] == pytest.approx(1.0, abs=1e-10)
        assert np.abs(w[:-1]).max() < 1e-10

    def test_mixed_full_rank_generic(self):
        rho = sample_mixed(3, 3, seed=12)
        w = np.linalg.eigvalsh(rho.matrix)
        assert w[0] > 1e-4

    def test_sampled_states_pass_their_own_validation(self):
        """Constructing DensityMatrix runs the full invariant suite, so a
        sweep over dims and seeds is a sweep over those invariants."""
        for dim in range(2, 13):
            for t in range(1000):
                sample_mixed(dim, dim, seed=derived_seed(4242, dim, t))

    def test_stacks_have_a_leading_count_axis(self):
        u = sample_haar_unitary(4, seed=1, count=6)
        assert u.shape == (6, 4, 4)
        assert np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(4)).max() < 1e-10
        assert sample_pure(5, seed=1, count=6).amplitudes.shape == (6, 5)
        assert sample_mixed(3, 2, seed=1, count=6).matrix.shape == (6, 3, 3)

    def test_rejects_zero_count(self):
        with pytest.raises(ValidationError):
            sample_pure(3, seed=1, count=0)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_mixed_purity_matches_induced_measure(self, dim):
        """Induced measure with aux_dim = dim: E tr(rho^2) = 2d / (d^2 + 1)."""
        rho = sample_mixed(dim, dim, seed=derived_seed(77, dim), count=4000).matrix
        purity = np.einsum("tij,tji->t", rho, rho).real
        expected = 2 * dim / (dim * dim + 1)
        stderr = purity.std() / np.sqrt(purity.size)
        assert abs(purity.mean() - expected) < 5 * stderr

    def test_observable_columns_orthonormal(self):
        for dim in range(2, 9):
            b = sample_observable(dim, seed=dim + 100)
            g = b.eigenbasis.conj().T @ b.eigenbasis
            assert np.abs(g - np.eye(dim)).max() < 1e-10


class TestNamedBases:
    def test_computational_is_identity(self):
        assert np.array_equal(computational_observable(3).eigenbasis, np.eye(3, dtype=complex))

    def test_fourier_is_unitary_and_unbiased(self):
        for dim in (2, 3, 4, 7):
            f = fourier_observable(dim).eigenbasis
            assert np.abs(f @ f.conj().T - np.eye(dim)).max() < 1e-12
            assert np.abs(np.abs(f) - 1.0 / np.sqrt(dim)).max() < 1e-12


class TestPayloadHelpers:
    def test_matrix_pairs_round_trip(self):
        m = np.array([[1.0 + 2.0j, 0.0], [-1.5j, 0.25]])
        pairs = matrix_to_pairs(m)
        assert pairs[0][0] == [1.0, 2.0]
        assert np.array_equal(pairs_to_matrix(pairs), m)

    def test_state_from_payload_accepts_density(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        out = state_from_payload(rho.to_payload())
        assert np.array_equal(out.matrix, rho.matrix)

    def test_state_from_payload_promotes_pure(self):
        psi = PureState(np.array([0.0, 1.0]))
        out = state_from_payload(psi.to_payload())
        assert np.abs(out.matrix - np.diag([0.0, 1.0])).max() < 1e-15

    def test_state_from_payload_rejects_unknown_type(self):
        with pytest.raises(ValidationError):
            state_from_payload({"type": "wavelet", "matrix": []})

    def test_observable_from_payload_rejects_state(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        with pytest.raises(ValidationError):
            observable_from_payload(rho.to_payload())
