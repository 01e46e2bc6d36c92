import hashlib
import math
import pathlib
import subprocess
import sys
from concurrent.futures import Future

import numpy as np
import pytest

import fidur.sweep
from fidur.errors import ValidationError
from fidur.linalg import adjoint
from fidur.metrics import MetricKind, metric_kind
from fidur.states import (
    ProjectiveObservable,
    computational_observable,
    derived_seed,
    sample_haar_unitary,
    sample_mixed,
    sample_observable,
    sample_pure,
    state_from_payload,
)
from fidur.sweep import BLOCK, SweepConfig, SweepResult, run_sweep
from fidur.uncertainty import _maxima, _overlap_complement, _probabilities, check_ur

ALL_KINDS = (MetricKind.ANGLE, MetricKind.BURES, MetricKind.ROOT_INFIDELITY)
EPS = float(np.finfo(np.float64).eps)


def small_config(**overrides):
    base = dict(
        dims=(2, 3),
        trials_per_dim=12,
        seed=424242,
        kinds=ALL_KINDS,
        mixedness="both",
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestSweepConfig:
    def test_rejects_empty_dims(self):
        with pytest.raises(ValidationError):
            small_config(dims=())

    def test_rejects_dimension_one(self):
        with pytest.raises(ValidationError):
            small_config(dims=(1, 2))

    def test_rejects_zero_trials(self):
        with pytest.raises(ValidationError):
            small_config(trials_per_dim=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValidationError):
            small_config(seed=-5)

    def test_rejects_unknown_mixedness(self):
        with pytest.raises(ValidationError):
            small_config(mixedness="thermal")

    def test_rejects_empty_kinds(self):
        with pytest.raises(ValidationError):
            small_config(kinds=())

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValidationError):
            small_config(tolerance=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("trials_per_dim", 2.7),
            ("trials_per_dim", True),
            ("seed", 1.5),
            ("tolerance", math.inf),
            ("dims", 5),
            ("kinds", ("angle",)),
            ("kinds", 5),
        ],
        ids=["fractional-trials", "boolean-trials", "fractional-seed",
             "infinite-tolerance", "scalar-dims", "string-kind", "scalar-kinds"],
    )
    def test_rejects_malformed_field(self, field, value):
        with pytest.raises(ValidationError):
            small_config(**{field: value})

    def test_variants(self):
        assert small_config(mixedness="both").variants == ("pure", "mixed")
        assert small_config(mixedness="pure").variants == ("pure",)
        assert small_config(mixedness="mixed").variants == ("mixed",)

    def test_payload_round_trip(self):
        config = small_config()
        assert SweepConfig.from_payload(config.to_payload()) == config

    def test_from_payload_rejects_missing_keys(self):
        payload = small_config().to_payload()
        del payload["seed"]
        with pytest.raises(ValidationError):
            SweepConfig.from_payload(payload)

    def test_from_payload_rejects_unknown_keys(self):
        payload = small_config().to_payload()
        payload["threads"] = 4
        with pytest.raises(ValidationError):
            SweepConfig.from_payload(payload)

    def test_from_payload_defaults_tolerance(self):
        payload = small_config().to_payload()
        del payload["tolerance"]
        assert SweepConfig.from_payload(payload).tolerance == 1e-9


class TestRunSweep:
    def test_counts_every_report(self):
        result = run_sweep(small_config())
        assert result.total_trials == 2 * 12 * 2 * 3

    def test_no_violations_on_random_inputs(self):
        result = run_sweep(small_config(trials_per_dim=40))
        assert result.violations == 0
        assert result.min_slack >= -1e-9

    def test_sequential_repeat_is_bit_identical(self):
        a = run_sweep(small_config())
        b = run_sweep(small_config())
        assert a.to_json() == b.to_json()

    def test_parallel_matches_sequential(self):
        config = small_config(trials_per_dim=16)
        assert run_sweep(config, workers=2).to_json() == run_sweep(config, workers=1).to_json()

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
    @pytest.mark.parametrize("window", [1, 3, fidur.sweep._WINDOW])
    def test_bytes_do_not_depend_on_the_stream_window(self, monkeypatch, window, workers):
        """Eight chunks' streams derived one, three (a partial last window) or
        all at a time, run serially or in a pool: the same bytes."""
        config = small_config(dims=(2, 3, 4, 5), trials_per_dim=BLOCK + 3)
        expected = run_sweep(config).to_json()
        monkeypatch.setattr(fidur.sweep, "_WINDOW", window)
        assert run_sweep(config, workers=workers).to_json() == expected

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValidationError):
            run_sweep(small_config(), workers=0)

    def test_witness_identifies_its_trial(self):
        result = run_sweep(small_config())
        witness = result.min_slack_witness
        assert witness["seed"] == 424242
        assert witness["dim"] in (2, 3)
        assert 0 <= witness["trial"] < 12
        assert witness["mixedness"] in ("pure", "mixed")
        assert witness["kind"] in [k.value for k in ALL_KINDS]
        assert witness["slack"] == result.min_slack

    def test_witness_payload_reproduces_the_slack(self):
        """A witness must be self-contained: rebuilding the trial from its
        serialized state and observables gives back its slack. The sweep
        factors the state by its sampled amplitudes and check_ur by
        sqrt(rho), so the two agree to round-off, not bit for bit."""
        result = run_sweep(small_config())
        witness = result.min_slack_witness
        report = check_ur(
            metric_kind(witness["kind"]),
            ProjectiveObservable.from_payload(witness["a"]),
            ProjectiveObservable.from_payload(witness["b"]),
            state_from_payload(witness["rho"]),
        )
        assert abs(report.slack - result.min_slack) <= 16 * witness["dim"] * EPS

    def test_pure_only_sweep_reports_pure_witness(self):
        result = run_sweep(small_config(mixedness="pure"))
        assert result.min_slack_witness["mixedness"] == "pure"
        assert result.total_trials == 2 * 12 * 1 * 3

    def test_single_kind_sweep(self):
        result = run_sweep(small_config(kinds=(MetricKind.BURES,)))
        assert result.min_slack_witness["kind"] == "bures"

    def test_progress_callback_fires(self):
        messages = []
        run_sweep(small_config(trials_per_dim=2), progress=messages.append)
        assert len(messages) == 2

    def test_result_json_shape(self):
        import json

        result = run_sweep(small_config(trials_per_dim=2))
        payload = json.loads(result.to_json())
        assert set(payload) == {
            "total_trials",
            "violations",
            "min_slack",
            "min_slack_witness",
        }
        assert isinstance(payload["min_slack_witness"], dict)
        assert math.isfinite(payload["min_slack"])


@pytest.fixture
def slack_inputs(monkeypatch) -> list:
    """Every y a chunk hands to ``fidur.sweep._slacks``, a copy each, in plan order."""
    recorded = []
    original = fidur.sweep._slacks

    def recording(kinds, y):
        recorded.append(y.copy())
        return original(kinds, y)

    monkeypatch.setattr(fidur.sweep, "_slacks", recording)
    return recorded


class _RecordingPool:
    """Stands in for the process pool: records max_workers, runs in-process."""

    started = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.fixture
def pool(monkeypatch):
    monkeypatch.setattr(_RecordingPool, "started", [])
    monkeypatch.setattr(fidur.sweep, "_pool", _RecordingPool)
    monkeypatch.setattr(fidur.sweep.os, "cpu_count", lambda: 4)
    return _RecordingPool


class _Stop(Exception):
    pass


class TestHugeTrialCount:
    """The chunk plan is generated as the run goes, never built whole."""

    @pytest.mark.parametrize("workers", [1, 4], ids=["serial", "pool"])
    def test_raising_progress_stops_the_run(self, pool, monkeypatch, workers):
        ran = []
        run_chunk = fidur.sweep._run_chunk
        monkeypatch.setattr(fidur.sweep, "_run_chunk", lambda *a: ran.append(a) or run_chunk(*a))
        messages = []

        def progress(message):
            messages.append(message)
            if len(messages) == 3:
                raise _Stop

        config = small_config(dims=(2,), trials_per_dim=10**400, kinds=(MetricKind.ANGLE,),
                              mixedness="pure")
        with pytest.raises(_Stop):
            run_sweep(config, workers=workers, progress=progress)
        n_chunks = -(-(10**400) // BLOCK)
        assert messages == [f"{done}/{n_chunks} chunks done" for done in (1, 2, 3)]
        assert [block for _, _, block, _ in ran[:3]] == [0, 1, 2]
        # Serially a chunk runs only when it is merged; a pool runs at most
        # eight chunks per worker ahead of the merge.
        ahead = 8 * workers - 1 if workers > 1 else 0
        assert len(ran) == 3 + ahead
        assert pool.started == ([workers] if workers > 1 else [])


def test_importing_fidur_loads_no_process_pool():
    """The pool is imported only by a run that starts one. Beyond numpy's own
    modules, importing fidur loads only the standard library and fidur: no
    scipy, mpmath or hypothesis, which would slow every fresh process."""
    src = str(pathlib.Path(fidur.__file__).resolve().parents[1])

    def loaded(imports: str) -> set:
        code = f"import sys; sys.path.insert(0, {src!r}); {imports}; print(*sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    with_fidur = loaded("import numpy, fidur")
    added = with_fidur - loaded("import numpy")
    assert sorted(m for m in with_fidur
                  if m.startswith(("multiprocessing", "concurrent.futures.process"))) == []
    assert "fidur.sweep" in added
    allowed = {*sys.stdlib_module_names, "fidur"}
    assert sorted(m for m in added if m.partition(".")[0] not in allowed) == []


class TestWorkerClamp:
    def test_clamped_to_cpu_count(self, pool):
        run_sweep(small_config(trials_per_dim=3 * BLOCK), workers=1000)
        assert pool.started == [4]

    def test_clamped_to_chunk_count(self, pool):
        run_sweep(small_config(dims=(2, 3, 4), trials_per_dim=2), workers=1000)
        assert pool.started == [3]

    def test_one_chunk_runs_without_a_pool(self, pool):
        run_sweep(small_config(dims=(2,), trials_per_dim=2), workers=1000)
        assert pool.started == []

    def test_unknown_cpu_count_runs_without_a_pool(self, pool, monkeypatch):
        monkeypatch.setattr(fidur.sweep.os, "cpu_count", lambda: None)
        run_sweep(small_config(), workers=8)
        assert pool.started == []


class TestBlockedSweep:
    @pytest.mark.parametrize("mixedness", ["pure", "mixed", "both"])
    def test_witness_reproduces_through_check_ur(self, mixedness):
        """Over dims up to 10 and a partial last block, the witness rebuilt
        from its payload gives back its slack to round-off, 16 N eps."""
        config = small_config(
            dims=tuple(range(2, 11)), trials_per_dim=BLOCK + 3, mixedness=mixedness
        )
        result = run_sweep(config)
        witness = result.min_slack_witness
        assert result.total_trials == 9 * (BLOCK + 3) * len(config.variants) * 3
        report = check_ur(
            metric_kind(witness["kind"]),
            ProjectiveObservable.from_payload(witness["a"]),
            ProjectiveObservable.from_payload(witness["b"]),
            state_from_payload(witness["rho"]),
        )
        assert abs(report.slack - result.min_slack) <= 16 * witness["dim"] * EPS

    def test_only_the_witness_becomes_a_state(self, monkeypatch, solver_calls):
        """The chunks read drawn amplitudes: of a mixed sweep's states only the
        witness is traced out (one partial trace), valid by construction."""
        traced = []
        original = fidur.sweep.partial_trace_aux

        def recording(psi, sys_dim, aux_dim):
            traced.append(psi.amplitudes.shape)
            return original(psi, sys_dim, aux_dim)

        monkeypatch.setattr(fidur.sweep, "partial_trace_aux", recording)
        config = small_config(dims=tuple(range(2, 11)), mixedness="mixed")
        dim = run_sweep(config, workers=1).min_slack_witness["dim"]
        assert solver_calls == {}
        assert traced == [(dim * dim,)]

    @pytest.mark.parametrize("mixedness", ["pure", "mixed"])
    def test_witness_state_is_the_samplers(self, mixedness):
        """The witness's rho carries the bits of the state its sampler draws."""
        config = small_config(
            dims=tuple(range(2, 11)), trials_per_dim=BLOCK + 3, mixedness=mixedness
        )
        witness = run_sweep(config).min_slack_witness
        dim, (block, t) = witness["dim"], divmod(witness["trial"], BLOCK)
        n = min(BLOCK, config.trials_per_dim - block * BLOCK)
        if mixedness == "pure":
            rho = sample_pure(dim, derived_seed(config.seed, dim, block, 2), n).density()
        else:
            rho = sample_mixed(dim, dim, derived_seed(config.seed, dim, block, 3), n)
        got = state_from_payload(witness["rho"]).matrix
        assert got.tobytes() == rho.matrix[t].tobytes()

    def test_witness_observables_are_the_identity_and_role_bs_draw(self):
        """The witness's a is the computational basis, and its b carries the
        bits of the observable that role B's stream draws."""
        config = small_config(dims=tuple(range(2, 11)), trials_per_dim=BLOCK + 3)
        witness = run_sweep(config).min_slack_witness
        dim, (block, t) = witness["dim"], divmod(witness["trial"], BLOCK)
        n = min(BLOCK, config.trials_per_dim - block * BLOCK)
        b = sample_observable(dim, derived_seed(config.seed, dim, block, 1), n).eigenbasis[t]
        a = ProjectiveObservable.from_payload(witness["a"]).eigenbasis
        assert a.tobytes() == computational_observable(dim).eigenbasis.tobytes()
        assert ProjectiveObservable.from_payload(witness["b"]).eigenbasis.tobytes() == b.tobytes()

    def test_pure_states_do_not_depend_on_mixedness(self, monkeypatch):
        drawn = {}
        original = fidur.sweep._pure

        def recording(stream, shape):
            psi = original(stream, shape)
            if shape[-1] in (2, 3):  # the pure variant; the mixed one purifies on dim^2
                drawn[mixedness].append(psi.amplitudes)
            return psi

        monkeypatch.setattr(fidur.sweep, "_pure", recording)
        for mixedness in ("pure", "both"):
            drawn[mixedness] = []
            run_sweep(small_config(trials_per_dim=BLOCK + 3, mixedness=mixedness))
        assert len(drawn["pure"]) == 4
        for x, y in zip(drawn["pure"], drawn["both"], strict=True):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("trials", [1, 20, BLOCK])
    @pytest.mark.parametrize("mixedness", ["pure", "mixed", "both"])
    def test_every_slack_input_is_bitwise_the_guarded_kernels(self, slack_inputs, mixedness, trials):
        """The chunks form only the complements y, with A the identity; every y
        they hand to ``_slacks``, not only the minimum's, equals bit for bit the
        complements ``_maxima`` and ``_overlap_complement`` give for e = (I, B)
        on the same B and state draws, with p_i = ||G^dag e_i||^2 summed as
        re^2 + im^2 per column of G."""
        config = small_config(dims=tuple(range(2, 11)), trials_per_dim=trials, mixedness=mixedness)
        run_sweep(config)
        assert len(slack_inputs) == len(config.dims)  # one block per dimension
        for dim, y in zip(config.dims, slack_inputs):
            seeds = [derived_seed(config.seed, dim, 0, role) for role in range(4)]
            b = sample_haar_unitary(dim, seeds[1], trials)
            e = np.stack((np.broadcast_to(np.eye(dim, dtype=complex), b.shape), b))
            p = []
            for variant in config.variants:
                role, aux = (2, 1) if variant == "pure" else (3, dim)
                psi = sample_pure(dim * aux, seeds[role], trials).amplitudes
                w = adjoint(e) @ psi.reshape(trials, dim, aux)
                p.append((w.real * w.real + w.imag * w.imag).sum(axis=-1))
            expected = np.empty_like(y)
            expected[:2] = _maxima(np.stack(p, axis=-2))[1]
            expected[2] = _overlap_complement(adjoint(e[0]) @ e[1])[:, None]
            assert y.tobytes() == expected.tobytes()

    def test_counts_a_scalar_violating_report_once_per_trial(self, monkeypatch):
        def violating_slacks(kinds, y):
            return (np.full((*y.shape[1:], len(kinds)), -1.0),)

        monkeypatch.setattr(fidur.sweep, "_slacks", violating_slacks)
        result = run_sweep(small_config())
        assert result.violations == result.total_trials
        assert result.min_slack == -1.0

    def test_witness_ties_break_by_dim_trial_variant_kind(self, monkeypatch):
        """Equal slacks go to the lowest (dim, trial, variant, kind): trial 3
        beats trial 5 although its kind comes later."""
        config = small_config()

        def tied_slacks(kinds, y):
            slack = np.zeros((*y.shape[1:], len(kinds)))
            slack[5, :, 0] = -1.0
            slack[3, :, 2] = -1.0
            return (slack,)

        monkeypatch.setattr(fidur.sweep, "_slacks", tied_slacks)
        witness = run_sweep(config).min_slack_witness
        assert (witness["dim"], witness["trial"], witness["mixedness"], witness["kind"]) == (
            2, 3, "pure", config.kinds[2].value)


# sha256 of the concatenated run_sweep(config).to_json() over _digest_grid(),
# pinned under the OpenBLAS core SkylakeX, under which the bytes must not move
# (QR and matmul bits depend on the kernel). Taken when a chunk moved to A = I: a trial
# (A, B, rho) and (I, A^dag B, A^dag rho A) give the same slack, and with A,
# B Haar and rho unitarily invariant the second has the law of (I, B, rho).
# So the sample moved and its law did not; every B, pure and mixed stream kept
# its bits, and role A's stream is no longer drawn. The digest before it,
# 8cfca033e6ac3c9c6091f4cee9306d10355682b950776f1c4616672c4f75ca03, held from
# the move of the slacks to complements until then.
SWEEP_DIGEST = "786989323f3cbf9a3eaa6f0984512d27470c5df3722b8119d0986be9738f239c"


def _digest_grid():
    for seed in (1, 4004):
        for mixedness in ("pure", "mixed", "both"):
            for trials in (1, 20, 65):
                yield SweepConfig(dims=tuple(range(2, 11)), trials_per_dim=trials, seed=seed,
                                  kinds=ALL_KINDS, mixedness=mixedness)
    yield SweepConfig(dims=(3, 5), trials_per_dim=50, seed=3,
                      kinds=(MetricKind.BURES, MetricKind.ANGLE), mixedness="both")


def test_sweep_bytes_are_pinned(blas_core):
    text = "".join(run_sweep(config).to_json() for config in _digest_grid())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SWEEP_DIGEST, (
        f"pinned under the OpenBLAS core SkylakeX; this run's core is {blas_core}")


def _ks_statistic(x: np.ndarray, y: np.ndarray) -> float:
    """The two-sample Kolmogorov-Smirnov statistic D = sup |F_x - F_y| of the
    empirical distribution functions of the samples x and y."""
    x, y = np.sort(x), np.sort(y)
    at = np.concatenate((x, y))
    f_x = np.searchsorted(x, at, side="right") / x.size
    f_y = np.searchsorted(y, at, side="right") / y.size
    return float(np.abs(f_x - f_y).max())


# Trials per sample of the law test, and its bound on D: 1.95 sqrt(2 / n) is
# the two-sample critical value at alpha ~ 0.001 for two samples of n.
LAW_TRIALS = 4096
LAW_BOUND = 1.95 * math.sqrt(2 / LAW_TRIALS)


@pytest.mark.parametrize("dim", [2, 5, 10])
def test_chunk_complements_have_the_law_of_haar_a(slack_inputs, dim):
    """A chunk sets A = I. Its y = (1 - P_A, 1 - P_B, 1 - c^2) of each state
    variant has the law of the literal recipe, with A and B drawn Haar and
    independent: each component's two samples of LAW_TRIALS trials, drawn
    from unrelated fixed seeds, differ by a Kolmogorov-Smirnov D of at most
    LAW_BOUND."""
    config = small_config(dims=(dim,), trials_per_dim=LAW_TRIALS, seed=2718,
                          kinds=(MetricKind.ANGLE,))
    run_sweep(config)
    chunk = np.concatenate(slack_inputs, axis=1)  # (3, trial, variant)

    seeds = [derived_seed(31415, dim, role) for role in range(4)]
    a, b = sample_haar_unitary(dim, (seeds[0], seeds[1]), LAW_TRIALS)
    for v, (role, aux) in enumerate(((2, 1), (3, dim))):  # the pure, then the mixed variant
        psi = sample_pure(dim * aux, seeds[role], LAW_TRIALS).amplitudes
        m = psi.reshape(LAW_TRIALS, dim, aux)
        recipe = [_maxima(_probabilities(adjoint(e), m))[1] for e in (a, b)]
        recipe.append(_overlap_complement(adjoint(a) @ b))
        for component, y in enumerate(recipe):
            d = _ks_statistic(chunk[component, :, v], y)
            assert d <= LAW_BOUND, (component, config.variants[v], d)
