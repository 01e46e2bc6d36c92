import hashlib
import json
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fidur.domains import DomainSpec, g_boundary, in_domain, region_samples
from fidur.errors import DimensionMismatch, IndexOutOfRange, ValidationError
from fidur.fidelity import (
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
    ProjectiveObservable,
    PureState,
    _gaussian,
    _generator,
    _generators,
    _members,
    _seed_state,
    _stream_words,
    computational_observable,
    derived_seed,
    fourier_observable,
    partial_trace_aux,
    projector,
    purify,
    sample_haar_unitary,
    sample_mixed,
    sample_observable,
    sample_pure,
    state_from_payload,
)
from fidur.sweep import SweepConfig, run_sweep
from fidur.uncertainty import check_ur, max_probability, outcome_probabilities, overlap

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


# The seed forms of the samplers: an int, a count, a tuple, a tuple and a count.
SEED_FORMS = {
    "single": (5, None),
    "count": (5, 4),
    "tuple": ((5, 0, derived_seed(5, 1)), None),
    "tuple-count": ((5, 0, derived_seed(5, 1)), 3),
}


def _gram(m):
    """M M^dag of every N x K matrix in a stack."""
    return m @ m.conj().swapaxes(-1, -2)


@pytest.fixture
def judged(monkeypatch) -> list:
    """The containers the judging constructor ran on, from the start of the test."""
    seen = []
    for cls in (DensityMatrix, PureState, ProjectiveObservable):

        def counted(self, post_init=cls.__post_init__):
            seen.append(self)
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return seen


# Inputs from outside, and the containers purify and projector build on.
OUTSIDE = {
    "rho": DensityMatrix(np.diag([0.6, 0.4])).to_payload(),
    "psi": PureState(np.array([0.6, 0.8j])).to_payload(),
    "pickled": pickle.dumps(sample_mixed(3, 3, seed=1)),
    "mixed": sample_mixed(3, 3, seed=1),
    "observable": sample_observable(3, seed=1),
}


class TestValidByConstruction:
    """The samplers and the traced-out states skip the judging constructor:
    each container holds the bits that constructor keeps for the same array,
    read-only, and unpickles through it. Outside input stays judged."""

    @staticmethod
    def _as_judged(judged, build, cls, raw):
        """``build()`` judges nothing and gives what ``cls(raw)`` gives."""
        x = build()
        assert type(x) is cls and judged == []
        got, want = getattr(x, cls.FIELD), getattr(cls(raw), cls.FIELD)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
        copy = pickle.loads(pickle.dumps(x))
        assert len(judged) == 2 and judged[-1] is copy
        assert getattr(copy, cls.FIELD).tobytes() == want.tobytes()
        assert not getattr(copy, cls.FIELD).flags.writeable

    @pytest.mark.parametrize("form", SEED_FORMS)
    @pytest.mark.parametrize("dim", range(1, 11))
    def test_sample_pure(self, judged, dim, form):
        seed, count = SEED_FORMS[form]
        raw = sample_pure(dim, seed, count).amplitudes
        judged.clear()
        self._as_judged(judged, lambda: sample_pure(dim, seed, count), PureState, raw)

    @pytest.mark.parametrize("form", SEED_FORMS)
    @pytest.mark.parametrize("dim", range(1, 11))
    def test_sample_observable(self, judged, dim, form):
        seed, count = SEED_FORMS[form]
        raw = sample_haar_unitary(dim, seed, count)
        self._as_judged(
            judged, lambda: sample_observable(dim, seed, count), ProjectiveObservable, raw
        )

    @pytest.mark.parametrize("form", SEED_FORMS)
    @pytest.mark.parametrize("dim", range(1, 11))
    def test_sample_mixed(self, judged, dim, form):
        seed, count = SEED_FORMS[form]
        aux = dim % 3 + 1
        m = sample_pure(dim * aux, seed, count).amplitudes.reshape(-1, dim, aux)
        raw = _gram(m).reshape(sample_mixed(dim, aux, seed, count).matrix.shape)
        judged.clear()
        self._as_judged(judged, lambda: sample_mixed(dim, aux, seed, count), DensityMatrix, raw)

    @pytest.mark.parametrize("form", SEED_FORMS)
    @pytest.mark.parametrize("dim", range(1, 11))
    def test_partial_trace_aux_of_a_judged_state(self, judged, dim, form):
        seed, count = SEED_FORMS[form]
        a = sample_pure(dim * dim, seed, count).amplitudes
        psi = PureState(a)
        raw = _gram(a.reshape(*a.shape[:-1], dim, dim))
        judged.clear()
        self._as_judged(judged, lambda: partial_trace_aux(psi, dim, dim), DensityMatrix, raw)

    @pytest.mark.parametrize("form", SEED_FORMS)
    @pytest.mark.parametrize("dim", range(1, 11))
    def test_density_of_a_judged_state(self, judged, dim, form):
        seed, count = SEED_FORMS[form]
        a = sample_pure(dim, seed, count).amplitudes
        psi = PureState(a)
        raw = a[..., :, None] * a.conj()[..., None, :]
        judged.clear()
        self._as_judged(judged, psi.density, DensityMatrix, raw)

    @pytest.mark.parametrize(
        "build, cls",
        [
            (lambda: ProjectiveObservable(VALID[ProjectiveObservable]), ProjectiveObservable),
            (lambda: DensityMatrix.from_payload(OUTSIDE["rho"]), DensityMatrix),
            (lambda: PureState.from_payload(OUTSIDE["psi"]), PureState),
            (lambda: state_from_payload(OUTSIDE["rho"]), DensityMatrix),
            (lambda: state_from_payload(OUTSIDE["psi"]), PureState),
            (lambda: pickle.loads(OUTSIDE["pickled"]), DensityMatrix),
            (lambda: purify(OUTSIDE["mixed"]), PureState),
            (lambda: projector(OUTSIDE["observable"], 1), DensityMatrix),
        ],
        ids=["constructor", "from_payload", "pure_from_payload", "state_from_payload",
             "state_from_pure_payload", "unpickling", "purify", "projector"],
    )
    def test_outside_input_stays_judged(self, judged, build, cls):
        """One judging call, on the container read from outside (the pure
        state a pure payload holds) or on what purify and projector build."""
        build()
        assert [type(x) for x in judged] == [cls]


class TestDensityMatrixStorage:
    def test_matrix_is_the_judged_hermitian_part(self):
        # Hermitian within TOL.hermitian, yet <v|m|v> has imaginary part
        # 4.95e-10 for the uniform v at N = 11: the stored matrix has none.
        n = 11
        m = np.eye(n) / n + 0.495e-10j * (np.ones((n, n)) - np.eye(n))
        rho = DensityMatrix(m)
        assert np.array_equal(rho.matrix, (m + m.conj().T) / 2)
        uniform = PureState(fourier_observable(n).eigenbasis[:, 0])
        assert fidelity_pure_mixed(uniform, rho) == pytest.approx(1 / n, abs=1e-15)
        assert outcome_probabilities(fourier_observable(n), rho) == pytest.approx(1 / n, abs=1e-15)

    @pytest.mark.parametrize("dim", range(2, 11))
    def test_sqrt_is_psd_sqrt_for_a_state_and_each_member(self, dim):
        stack = sample_mixed(dim, dim, seed=dim, count=4)
        roots = stack.sqrt
        assert roots.shape == (4, dim, dim)
        for m, root in zip(stack.matrix, roots):
            assert root.tobytes() == psd_sqrt(m).tobytes()
            assert DensityMatrix(m).sqrt.tobytes() == root.tobytes()


# A valid input of each container; none holds the 7.0 the caller writes below.
VALID = {
    DensityMatrix: np.diag([0.6, 0.4]),
    PureState: np.array([0.6, 0.8j]),
    ProjectiveObservable: np.array([[0.6, 0.8], [-0.8, 0.6]]),
}
SAMPLED = {
    DensityMatrix: lambda: sample_mixed(3, 3, seed=1),
    PureState: lambda: sample_pure(3, seed=1),
    ProjectiveObservable: lambda: sample_observable(3, seed=1),
}


class TestContainerStorage:
    """Every container keeps a read-only array of its own: it is built once,
    from the caller's input, and unpickled through the constructor."""

    @pytest.mark.parametrize("source", ["list", "ndarray", "view"])
    @pytest.mark.parametrize("cls", VALID, ids=lambda c: c.__name__)
    def test_mutating_the_input_leaves_the_container_unchanged(self, cls, source):
        valid = VALID[cls]
        stack = np.stack([valid, valid])
        given = {"list": valid.tolist(), "ndarray": valid.copy(), "view": stack[1]}[source]
        x = cls(given)
        if source == "list":
            given.clear()
        else:
            given[...] = 7.0  # the caller's array stays writable
        stored = getattr(x, cls.FIELD)
        assert np.array_equal(stored, valid)
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[0] = 1.0

    @pytest.mark.parametrize("cls", SAMPLED, ids=lambda c: c.__name__)
    def test_pickle_round_trip_is_read_only(self, cls):
        x = SAMPLED[cls]()
        copy = pickle.loads(pickle.dumps(x))
        assert np.array_equal(getattr(copy, cls.FIELD), getattr(x, cls.FIELD))
        assert not getattr(copy, cls.FIELD).flags.writeable

    @pytest.mark.parametrize("cls", SAMPLED, ids=lambda c: c.__name__)
    def test_unpickling_validates(self, cls):
        bad = cls.__new__(cls)  # a container that skipped its check
        object.__setattr__(bad, cls.FIELD, 2 * getattr(SAMPLED[cls](), cls.FIELD))
        data = pickle.dumps(bad)
        with pytest.raises(ValidationError):
            pickle.loads(data)


RHO = DensityMatrix(np.eye(2) / 2)
OBS = computational_observable(2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: fidelity(RHO.matrix, RHO),
        lambda: fidelity(RHO, RHO.matrix),
        lambda: metric_distance(MetricKind.ANGLE, RHO.matrix, RHO),
        lambda: fidelity_oracle(RHO.matrix, RHO),
        lambda: check_ur(MetricKind.ANGLE, OBS.eigenbasis, OBS, RHO),
        lambda: outcome_probabilities(OBS, RHO.matrix),
        lambda: overlap(OBS.eigenbasis, OBS),
        lambda: purify(RHO.matrix),
        lambda: partial_trace_aux(BELL.amplitudes, 2, 2),
        lambda: projector(OBS.eigenbasis, 0),
    ],
    ids=["fidelity", "fidelity_sigma", "metric_distance", "fidelity_oracle", "check_ur",
         "outcome_probabilities", "overlap", "purify", "partial_trace_aux", "projector"],
)
def test_a_raw_array_is_not_a_state_or_observable(call):
    with pytest.raises(ValidationError, match="expected a .*got ndarray"):
        call()


PSI = PureState(np.array([1.0, 0.0], dtype=complex))


@pytest.mark.parametrize(
    "call, expected, got",
    [
        (lambda: outcome_probabilities(RHO, OBS), "ProjectiveObservable", "DensityMatrix"),
        (lambda: outcome_probabilities(OBS, OBS), "DensityMatrix", "ProjectiveObservable"),
        (lambda: max_probability(RHO, RHO), "ProjectiveObservable", "DensityMatrix"),
        (lambda: overlap(RHO, RHO), "ProjectiveObservable", "DensityMatrix"),
        (lambda: check_ur(MetricKind.ANGLE, RHO, OBS, OBS), "ProjectiveObservable", "DensityMatrix"),
        (lambda: check_ur(MetricKind.ANGLE, OBS, OBS, OBS), "DensityMatrix", "ProjectiveObservable"),
        (lambda: fidelity_pure_pure(RHO, RHO), "PureState", "DensityMatrix"),
        (lambda: fidelity_pure_mixed(RHO, RHO), "PureState", "DensityMatrix"),
        (lambda: fidelity_pure_mixed(PSI, PSI), "DensityMatrix", "PureState"),
        (lambda: fidelity_oracle(PSI, PSI), "DensityMatrix", "PureState"),
        (lambda: purify(PSI), "DensityMatrix", "PureState"),
        (lambda: purification_overlap_search(PSI, PSI, trials=1, seed=1), "DensityMatrix",
         "PureState"),
    ],
    ids=["outcome_probabilities", "outcome_probabilities_rho", "max_probability", "overlap",
         "check_ur", "check_ur_rho", "fidelity_pure_pure", "fidelity_pure_mixed",
         "fidelity_pure_mixed_sigma", "fidelity_oracle", "purify", "purification_overlap_search"],
)
def test_a_container_of_the_wrong_kind_is_named(call, expected, got):
    with pytest.raises(ValidationError, match=f"expected a {expected}, got {got}"):
        call()


# sha256 over the stored matrices, their roots and the 9 metric distances of
# 10 triples per dimension 2..10, taken when fidelity moved to the eigen-factor
# of rho (the eigenvalues of G^dag sigma G, no root built): the values must not
# move by one bit. Against the root route 743 of the 810 distances moved, by at
# most 6.9e-14 relative; every matrix and root kept its bits.
TRIANGLE_DIGEST = "b0fda2afdbf96b571e7e3df56e0b38d6ce1cdced848111d3407f2d904e22a7d2"


def _triple(dim, t):
    return [sample_mixed(dim, dim, seed=derived_seed(5005, dim, t, k)) for k in range(3)]


def _triangle_distances(triple):
    rho, sigma, tau = triple
    return [
        metric_distance(kind, a, b)
        for kind in MetricKind
        for a, b in ((sigma, rho), (tau, rho), (sigma, tau))
    ]


class TestSolverCalls:
    def test_triangle_values_are_pinned(self, blas_core):
        h = hashlib.sha256()
        for dim in range(2, 11):
            for t in range(10):
                triple = _triple(dim, t)
                for d in _triangle_distances(triple):
                    h.update(np.float64(d).tobytes())
                for state in triple:
                    h.update(state.matrix.tobytes())
                    h.update(state.sqrt.tobytes())
        assert h.hexdigest() == TRIANGLE_DIGEST, (
            f"pinned under the OpenBLAS core SkylakeX; this run's core is {blas_core}")

    @pytest.mark.parametrize("dim", range(2, 11))
    def test_a_fresh_triple_makes_three_eigh_and_three_eigvalsh(self, solver_calls, dim):
        triple = _triple(dim, 0)
        assert solver_calls == {}  # sampled states are valid by construction
        first = _triangle_distances(triple)
        assert solver_calls == {"eigh": 3, "eigvalsh": 3}  # one root and one M per pair
        solver_calls.clear()
        assert _triangle_distances(triple) == first
        assert solver_calls == {}

    def test_a_kept_sampled_state_holds_its_matrix_and_little_more(self):
        # A root, factor or eigenpairs cached on a state would show here.
        n, count = 8, 1000
        sample_mixed(n, n, seed=1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [sample_mixed(n, n, seed=derived_seed(9, t)) for t in range(count)]
            per_state = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
        finally:
            tracemalloc.stop()
        assert per_state <= 16 * n * n + 512

    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
    def test_validation_makes_one_solver_call(self, solver_calls, stacked):
        m = sample_mixed(3, 3, seed=2, count=4).matrix
        solver_calls.clear()
        DensityMatrix(m if stacked else m[0])
        assert solver_calls == {"eigvalsh": 1}


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

    def test_projector_takes_the_column_of_each_member(self):
        obs = sample_observable(3, seed=4, count=5)
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

    def test_payload_round_trip(self):
        b = sample_observable(3, seed=5)
        back = ProjectiveObservable.from_payload(json.loads(json.dumps(b.to_payload())))
        assert np.array_equal(back.eigenbasis, b.eigenbasis)


class TestProjector:
    def test_computational(self):
        p = projector(computational_observable(2), 0)
        assert np.array_equal(p.matrix, np.diag([1.0, 0.0]).astype(complex))
        p = projector(computational_observable(3), 1)
        assert np.array_equal(p.matrix, np.diag([0.0, 1.0, 0.0]).astype(complex))

    def test_index_range(self):
        a = computational_observable(2)
        with pytest.raises(IndexOutOfRange):
            projector(a, 2)
        with pytest.raises(IndexOutOfRange):
            projector(a, -1)

    @pytest.mark.parametrize("index", [True, 1.0, np.float64(0.0), "0"])
    def test_index_must_be_an_integer(self, index):
        with pytest.raises(ValidationError, match="index must be an integer"):
            projector(computational_observable(2), index)

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

    @pytest.mark.parametrize(
        "draw",
        [
            lambda: derived_seed(1.5, 2),
            lambda: derived_seed(1, 2.9),
            lambda: derived_seed(True, 1),
            lambda: derived_seed(1, 2, False),
            lambda: sample_pure(3, 1.5),
            lambda: sample_pure(3, (1, 1.9)),
            lambda: sample_mixed(2, 2, 2.0),
            lambda: sample_observable(2, True),
        ],
        ids=["float-seed", "float-index", "bool-seed", "bool-index", "sampler-float",
             "tuple-member-float", "mixed-float", "observable-bool"],
    )
    def test_rejects_a_seed_or_index_that_is_not_an_integer(self, draw):
        # A float or bool would otherwise draw an integer seed's stream.
        with pytest.raises(ValidationError, match="must be an integer"):
            draw()

    def test_numpy_integers_keep_their_streams(self):
        assert derived_seed(np.int64(42), np.uint8(3), 1) == derived_seed(42, 3, 1)
        a = sample_pure(3, np.int64(1)).amplitudes
        assert np.array_equal(a, sample_pure(3, 1).amplitudes)


# Where numpy's int-to-word conversion changes: word counts, and high words of zero.
EDGE_INTEGERS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 - 1, 2**96, 10**40,
                 2**128 - 1, 2**128]
integers = st.one_of(
    st.sampled_from(EDGE_INTEGERS),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**140),
)
# One uint32 word, its edges weighted.
words = st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(0, 2**32 - 1))
# Derived seeds are 128-bit; keep 1 to 4 of their words, so the top ones are 0.
seeds = st.one_of(
    integers,
    st.builds(
        lambda entropy, words: derived_seed(*entropy) % 2 ** (32 * words),
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
        st.integers(1, 4),
    ),
)


class TestSeedingGate:
    """The seeding shortcuts are bitwise numpy's own routes, so a numpy that
    hashes or seeds differently fails here instead of silently changing streams."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(entropy=st.lists(integers, min_size=1, max_size=5))
    def test_derived_seed_is_seed_sequence_of_the_list(self, entropy):
        words = np.random.SeedSequence(entropy).generate_state(4)
        assert derived_seed(*entropy) == int.from_bytes(words.tobytes(), "little")

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(seed=seeds)
    def test_generator_is_default_rng(self, seed):
        ours = _generator(seed).standard_normal(16)
        assert ours.tobytes() == np.random.default_rng(seed).standard_normal(16).tobytes()

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(rows=st.lists(st.tuples(*[words] * 4), min_size=1, max_size=8))
    def test_one_pass_streams_are_default_rng_of_each_derived_seed(self, rows):
        generators = _generators(_stream_words(rows))
        for row, ours in zip(rows, generators, strict=True):
            theirs = np.random.default_rng(derived_seed(*row))
            assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize(
        "rows",
        [[(2**32, 2, 0, 1)], [(7, 2, 0, 1), (7, 2, 2**32, 1)], [(10**40, 3, 1, 2)],
         [(5, 2**64 + 1, 0, 0), (0, 0, 0, 0)]],
    )
    def test_rows_with_a_word_of_2_to_the_32_take_the_scalar_route(self, rows):
        for row, words_ in zip(rows, _stream_words(rows), strict=True):
            expected = np.random.SeedSequence(derived_seed(*row)).generate_state(4, np.uint64)
            assert words_.tobytes() == expected.tobytes()

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(width=st.integers(1, 4), data=st.data())
    def test_first_stage_is_seed_sequence_of_each_row(self, width, data):
        rows = data.draw(st.lists(st.tuples(*[words] * width), min_size=1, max_size=8))
        state = _seed_state(np.array(rows, dtype=np.uint32).T, 4)
        for row, ours in zip(rows, state.T, strict=True):
            assert ours.tobytes() == np.random.SeedSequence(row).generate_state(4).tobytes()

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(members=st.lists(seeds, min_size=1, max_size=8))
    def test_a_tuple_in_one_pass_seeds_each_member_as_default_rng(self, members):
        for ours, seed in zip(_members(tuple(members)), members, strict=True):
            assert ours.bit_generator.state == np.random.default_rng(seed).bit_generator.state

    @pytest.mark.parametrize("members", [None, 3])
    @pytest.mark.parametrize("lead", [(), (7,)], ids=str)
    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("dim", range(1, 11))
    def test_gaussian_is_bitwise_its_literal_recipe(self, dim, rank, lead, members):
        """``_gaussian`` scales the real draws in place; it must keep the bits of
        the complex combine and division by sqrt(2), for one generator and for a
        list of them, over many seeds."""
        shape = (*lead, *[dim] * rank)

        def literal(g):
            x = g.standard_normal((2, *shape))
            return (x[0] + 1j * x[1]) / np.sqrt(2.0)

        for seed in range(40):
            if members is None:
                ours, theirs = _gaussian(_generator(seed), shape), literal(_generator(seed))
            else:
                words = _stream_words([(seed, dim, len(shape), m) for m in range(members)])
                ours = _gaussian(_generators(words), shape)
                theirs = np.stack([literal(g) for g in _generators(words)])
            assert ours.tobytes() == theirs.tobytes()

    def test_trailing_zero_words_hash_as_missing_words(self):
        """SeedSequence hashes a missing pool word as 0, so the one pass may hand
        every seed over as 4 words, and entropy rows may be padded with zeros."""
        for entropy in ([5], [5, 0], [5, 0, 0], [0], [7, 2**32 - 1, 0]):
            padded = entropy + [0] * (4 - len(entropy))
            for n_words in (4, 8):
                short = np.random.SeedSequence(entropy).generate_state(n_words)
                assert short.tobytes() == np.random.SeedSequence(padded).generate_state(n_words).tobytes()
        # Beyond the pool size the zero word is entropy like any other.
        five = np.random.SeedSequence([5, 0, 0, 0, 0]).generate_state(4)
        assert five.tobytes() != np.random.SeedSequence([5]).generate_state(4).tobytes()


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
        """The judging constructor runs the full invariant suite on M M^dag,
        the matrix sample_mixed keeps unjudged (M its sampled factor), so a
        sweep over dims and seeds is a sweep over those invariants."""
        for dim in range(2, 13):
            products = []
            for t in range(1000):
                psi = sample_pure(dim * dim, seed=derived_seed(4242, dim, t))
                m = psi.amplitudes.reshape(dim, dim)
                products.append(m @ m.conj().T)
            DensityMatrix(np.stack(products))  # one bad member rejects the stack

    def test_stacks_have_a_leading_count_axis(self):
        u = sample_haar_unitary(4, seed=1, count=6)
        assert u.shape == (6, 4, 4)
        assert np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(4)).max() < 1e-10
        assert sample_pure(5, seed=1, count=6).amplitudes.shape == (6, 5)
        assert sample_mixed(3, 2, seed=1, count=6).matrix.shape == (6, 3, 3)

    def test_rejects_zero_count(self):
        with pytest.raises(ValidationError):
            sample_pure(3, seed=1, count=0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: sample_pure(2.0, 1),
            lambda: sample_pure("2", 1),
            lambda: sample_haar_unitary(2.0, 1),
            lambda: sample_mixed(2, 1.5, 1),
            lambda: partial_trace_aux(BELL, 2, 2.0),
            lambda: purification_overlap_search(
                sample_mixed(2, 2, 1), sample_mixed(2, 2, 2), trials=2.5, seed=1
            ),
            lambda: DomainSpec(MetricKind.ANGLE, 0.8, 2.5),
            lambda: g_boundary(MetricKind.ANGLE, 0.8, 0.5, dim=2.5),
            lambda: in_domain(MetricKind.ANGLE, 0.8, 2.5, 0.5, 0.5),
            lambda: region_samples(DomainSpec(MetricKind.ANGLE, 0.8, 2), 2.5),
            lambda: run_sweep(
                SweepConfig((2,), 1, 1, (MetricKind.ANGLE,), "pure"), workers=1.5
            ),
        ],
        ids=["pure-dim", "pure-str-dim", "unitary-dim", "mixed-aux-dim", "partial-trace-aux-dim",
             "overlap-search-trials", "domain-dim", "g-boundary-dim", "in-domain-dim",
             "region-points", "sweep-workers"],
    )
    def test_rejects_a_size_that_is_not_an_integer(self, call):
        with pytest.raises(ValidationError, match="must be an integer"):
            call()

    @pytest.mark.parametrize("count", [1.5, 2.0, True])
    def test_rejects_a_count_that_is_not_an_integer(self, count):
        with pytest.raises(ValidationError, match="count must be an integer"):
            sample_pure(2, seed=1, count=count)

    @pytest.mark.parametrize("count", [None, 3], ids=["single", "count"])
    @pytest.mark.parametrize(
        "draw",
        [
            lambda seed, count: sample_haar_unitary(3, seed, count),
            lambda seed, count: sample_observable(3, seed, count).eigenbasis,
            lambda seed, count: sample_pure(4, seed, count).amplitudes,
            lambda seed, count: sample_mixed(3, 2, seed, count).matrix,
        ],
        ids=["haar", "observable", "pure", "mixed"],
    )
    def test_tuple_seed_members_are_the_single_seed_draws(self, draw, count):
        seeds = (7, derived_seed(7, 1), 0)
        stack = draw(seeds, count)
        assert stack.shape[0] == len(seeds)
        for member, seed in zip(stack, seeds, strict=True):
            assert np.array_equal(member, draw(seed, count))

    @pytest.mark.parametrize("seeds", [(), (3, -1)], ids=["empty", "negative-member"])
    def test_rejects_bad_seed_tuple(self, seeds):
        with pytest.raises(ValidationError):
            sample_observable(3, seeds)

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


# sha256 over json.dumps(x.to_payload(), sort_keys=True) of sampled pure
# states, their projectors, mixed states of full and of low rank, observables
# and the Fourier basis for N = 1..10, taken before the containers shared one
# codec: the fixture bytes must not move.
FIXTURE_DIGEST = "caa40f90a993e3cd77e5afed3e84e4cd528e186bcab3199bd6f9fece793608f0"


class TestPayloadHelpers:
    def test_fixture_bytes_are_pinned(self, blas_core):
        h = hashlib.sha256()
        for dim in range(1, 11):
            for t in range(3):
                psi = sample_pure(dim, derived_seed(606, dim, t, 0))
                fixtures = (
                    psi,
                    psi.density(),
                    sample_mixed(dim, dim, derived_seed(606, dim, t, 1)),
                    sample_mixed(dim, 2, derived_seed(606, dim, t, 2)),
                    sample_observable(dim, derived_seed(606, dim, t, 3)),
                )
                for x in fixtures:
                    h.update(json.dumps(x.to_payload(), sort_keys=True).encode("utf-8"))
            h.update(json.dumps(fourier_observable(dim).to_payload(), sort_keys=True).encode("utf-8"))
        assert h.hexdigest() == FIXTURE_DIGEST, (
            f"pinned under the OpenBLAS core SkylakeX; this run's core is {blas_core}")

    @pytest.mark.parametrize(
        "stack",
        [
            lambda: sample_mixed(2, 2, 1, count=3),
            lambda: sample_pure(2, 1, count=3),
            lambda: sample_observable(2, 1, count=3),
        ],
        ids=["mixed", "pure", "observable"],
    )
    def test_a_stack_is_not_a_fixture(self, stack):
        with pytest.raises(DimensionMismatch, match="single state"):
            stack().to_payload()

    def test_matrix_pairs_round_trip(self):
        rho = DensityMatrix(np.array([[0.75, 0.25 - 0.125j], [0.25 + 0.125j, 0.25]]))
        pairs = rho.to_payload()["matrix"]
        assert pairs[0] == [[0.75, 0.0], [0.25, -0.125]]
        assert np.array_equal(DensityMatrix.from_payload(rho.to_payload()).matrix, rho.matrix)

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
            ProjectiveObservable.from_payload(rho.to_payload())
