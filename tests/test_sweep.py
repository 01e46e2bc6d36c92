import hashlib
import json
import math
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import fidur.sweep
from fidur.errors import ValidationError
from fidur.linalg import adjoint
from fidur.metrics import MetricKind, metric_kind
from fidur.states import (
    DensityMatrix,
    ProjectiveObservable,
    _gaussian,
    computational_observable,
    derived_seed,
    sample_haar_unitary,
    sample_mixed,
    sample_observable,
    sample_pure,
    state_from_payload,
)
from fidur.sweep import BLOCK, SweepConfig, SweepResult, run_sweep
from fidur.uncertainty import (
    _complement,
    _maxima,
    _overlap_complement,
    _probabilities,
    check_ur,
)

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

    @pytest.mark.parametrize(
        "field, value, repeated",
        [("dims", (2, 3, 2), "2"), ("kinds", (MetricKind.ANGLE, MetricKind.BURES,
                                              MetricKind.ANGLE), "'angle'")],
        ids=["dims", "kinds"])
    def test_rejects_a_repeated_entry(self, field, value, repeated):
        """Streams are keyed by (seed, dim, block, role), so a repeated dim
        would run the same trials twice; a repeated kind would count them twice."""
        with pytest.raises(ValidationError, match=f"{field} entry {repeated} is given more"):
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

    @pytest.mark.parametrize("window", [1, 3, fidur.sweep._WINDOW])
    def test_bytes_do_not_depend_on_the_stream_window(self, monkeypatch, window):
        """Eight chunks' streams derived one, three (a partial last window) or
        all at a time: the same bytes."""
        config = small_config(dims=(2, 3, 4, 5), trials_per_dim=BLOCK + 3)
        expected = run_sweep(config).to_json()
        monkeypatch.setattr(fidur.sweep, "_WINDOW", window)
        assert run_sweep(config).to_json() == expected

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


class _Stop(Exception):
    pass


class TestHugeTrialCount:
    """The chunk plan is generated as the run goes, one window at a time,
    never built whole."""

    def test_raising_progress_stops_the_run(self, monkeypatch):
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
            run_sweep(config, progress=progress)
        n_chunks = -(-(10**400) // BLOCK)
        assert messages == [f"{done}/{n_chunks} chunks done" for done in (1, 2, 3)]
        # A window's chunks run before its slack stage merges them, so chunks
        # run at most one window ahead of the merge: the first window, no more.
        assert [block for _, _, block, _ in ran] == list(range(fidur.sweep._WINDOW))


def test_importing_fidur_loads_no_process_pool():
    """Neither importing fidur nor running a sweep, whatever its ``workers``,
    loads multiprocessing. Beyond numpy's own modules, importing fidur loads
    only the standard library and fidur: no scipy, mpmath or hypothesis,
    which would slow every fresh process."""
    src = str(pathlib.Path(fidur.__file__).resolve().parents[1])

    def loaded(imports: str) -> set:
        code = f"import sys; sys.path.insert(0, {src!r}); {imports}; print(*sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    with_fidur = loaded("import numpy, fidur")
    swept = loaded("import fidur; fidur.run_sweep(fidur.SweepConfig((2, 3), 2, 1, "
                   "(fidur.MetricKind.ANGLE,), 'pure'), workers=4)")
    added = with_fidur - loaded("import numpy")
    for modules in (with_fidur, swept):
        assert sorted(m for m in modules
                      if m.startswith(("multiprocessing", "concurrent.futures.process"))) == []
    assert "fidur.sweep" in added
    allowed = {*sys.stdlib_module_names, "fidur"}
    assert sorted(m for m in added if m.partition(".")[0] not in allowed) == []


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

    def test_state_draws_do_not_depend_on_mixedness(self, slack_inputs):
        """Each variant reads its own stream. Its 1 - P_A and 1 - c^2 reach y
        through squares and sums alone and keep their bits whether or not the
        other variant runs; 1 - P_B, whose product Q^dag M spans the columns of
        every variant that runs, keeps them to round-off."""
        for mixedness in ("pure", "mixed", "both"):
            run_sweep(small_config(trials_per_dim=BLOCK + 3, mixedness=mixedness))
        pure, mixed, both = slack_inputs  # four chunks each, one window
        for alone, v in ((pure, 0), (mixed, 1)):
            assert np.array_equal(alone[[0, 2], :, 0], both[[0, 2], :, v])
            assert np.abs(alone[1, :, 0] / both[1, :, v] - 1).max() <= 8 * EPS  # 3.5 eps seen

    @pytest.mark.parametrize("trials", [1, 20, BLOCK])
    @pytest.mark.parametrize("mixedness", ["pure", "mixed", "both"])
    def test_every_slack_input_is_bitwise_its_recipe(self, slack_inputs, mixedness, trials):
        """One slack stage per window: the y it gets, every chunk's y side by
        side along the trial axis, equals bit for bit the recipe below on the
        same streams. The recipe reads the raw draws: the states' standard
        normals, neither scaled nor normalized, and the Q factor of B's draw
        before its phase fix. With A the identity, y also lies within
        16 N eps relative of the guarded kernels ``_maxima`` and
        ``_overlap_complement`` for e = (I, B) on the samplers' normalized,
        phase-fixed draws, with p_i = ||G^dag e_i||^2."""
        config = small_config(dims=tuple(range(2, 11)), trials_per_dim=trials, mixedness=mixedness)
        run_sweep(config)
        (y,) = slack_inputs  # nine chunks of one block each: one window
        v = len(config.variants)
        recipe, guarded = [], []
        for dim in config.dims:
            seeds = [derived_seed(config.seed, dim, 0, role) for role in range(4)]
            q, _ = np.linalg.qr(_gaussian(np.random.default_rng(seeds[1]), (trials, dim, dim)))
            b = sample_haar_unitary(dim, seeds[1], trials)
            e = np.stack((np.broadcast_to(np.eye(dim, dtype=complex), b.shape), b))
            m_t, p = [], []
            for variant in config.variants:
                role, aux = (2, 1) if variant == "pure" else (3, dim)
                x = np.random.default_rng(seeds[role]).standard_normal((2, trials, dim, aux))
                m_t.append((x[0] + 1j * x[1]).swapaxes(-1, -2))
                psi = sample_pure(dim * aux, seeds[role], trials).amplitudes
                w = adjoint(e) @ psi.reshape(trials, dim, aux)
                p.append((w.real * w.real + w.imag * w.imag).sum(axis=-1))
            m_t = np.concatenate(m_t, axis=1)  # the variants' M^T, stacked
            k = m_t.shape[1]
            rows = np.concatenate((m_t, m_t @ q.conj(), q.swapaxes(-1, -2)), axis=1)
            firsts = [0, 1] if mixedness == "both" else [0]
            groups = [*firsts, *(k + i for i in firsts), *range(2 * k, 2 * k + dim)]
            complements = _complement(np.add.reduceat(rows.real * rows.real + rows.imag * rows.imag,
                                                      groups, axis=1))
            chunk = np.empty((3, trials, v))
            chunk[0], chunk[1] = complements[:, :v], complements[:, v:2 * v]
            chunk[2] = complements[:, 2 * v:].min(axis=-1)[:, None]
            recipe.append(chunk)
            kernels = np.empty_like(chunk)
            kernels[:2] = _maxima(np.stack(p, axis=-2))[1]
            kernels[2] = _overlap_complement(adjoint(e[0]) @ e[1])[:, None]
            guarded.append(kernels)
        assert y.tobytes() == np.concatenate(recipe, axis=1).tobytes()
        for dim, ours, kernels in zip(config.dims, recipe, guarded):
            assert np.abs(ours / kernels - 1).max() <= 16 * dim * EPS

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

    def test_witness_is_the_lowest_key_over_unsorted_dims(self, monkeypatch):
        """Dims in the order (5, 2, 3) share one window, rows 0-11, 12-23 and
        24-35. Of four equal minima in three dims, the lowest (dim, trial,
        variant, kind) wins, not the first in plan order: dim 2's trial 2
        beats its trial 8, an earlier variant and kind notwithstanding."""
        config = small_config(dims=(5, 2, 3))

        def tied_slacks(kinds, y):
            slack = np.zeros((*y.shape[1:], len(kinds)))
            for row, v, k in ((1, 0, 0), (20, 0, 0), (14, 1, 2), (26, 0, 0)):
                slack[row, v, k] = -1.0
            return (slack,)

        monkeypatch.setattr(fidur.sweep, "_slacks", tied_slacks)
        witness = run_sweep(config).min_slack_witness
        assert (witness["dim"], witness["trial"], witness["mixedness"], witness["kind"]) == (
            2, 2, "mixed", config.kinds[2].value)

    @pytest.mark.parametrize(
        "target", [(5, 0, 1, 1), (2, 0, 10, 1), (2, 1, 63, 0), (3, 1, 7, 0), (3, 2, 4, 0),
                   (5, 0, 63, 1)],
        ids=["first-chunk", "after-a-partial-block", "last-row-of-a-block",
             "last-chunk-of-a-window", "partial-last-block", "mixed-last-row-at-the-largest-dim"])
    def test_witness_payloads_are_the_samplers(self, monkeypatch, target):
        """Wherever the witness sits, in any window of unsorted dims, its rho and
        b are bit for bit the payloads of the samplers drawn from
        derived_seed(seed, dim, trial // BLOCK, role), row trial % BLOCK. The
        target trial's y is set to (0, 0, 1), which no drawn trial undercuts.
        The windows hold the chunks (5, 0-2) (2, 0), then (2, 1-2) (3, 0-1),
        then (3, 2)."""
        dim, block, t, v = target
        config = small_config(dims=(5, 2, 3), trials_per_dim=2 * BLOCK + 5)
        monkeypatch.setattr(fidur.sweep, "_WINDOW", 4)  # windows of 4, 4 and 1 chunks
        run_chunk = fidur.sweep._run_chunk

        def marked(config, d, j, words):
            y = run_chunk(config, d, j, words)
            if (d, j) == (dim, block):
                y[:, t, v] = (0.0, 0.0, 1.0)
            return y

        monkeypatch.setattr(fidur.sweep, "_run_chunk", marked)
        witness = run_sweep(config).min_slack_witness
        assert (witness["dim"], witness["trial"], witness["mixedness"]) == (
            dim, block * BLOCK + t, config.variants[v])
        n = min(BLOCK, config.trials_per_dim - block * BLOCK)
        seeds = [derived_seed(config.seed, dim, block, role) for role in range(4)]
        if v == 0:
            rho = sample_pure(dim, seeds[2], n).density().matrix[t]
        else:
            rho = sample_mixed(dim, dim, seeds[3], n).matrix[t]
        b = sample_observable(dim, seeds[1], n).eigenbasis[t]
        assert witness["rho"] == DensityMatrix(rho).to_payload()
        assert witness["b"] == ProjectiveObservable(b).to_payload()

    def test_a_run_factors_one_stack_per_chunk_and_one_witness_matrix(self, monkeypatch):
        """The witness draws its whole block of B again, as the stream order
        requires, but factors only its own member: a run makes one (n, d, d)
        QR call per chunk, in plan order, and then one (1, d, d) call."""
        shapes = []
        qr_unitary = fidur.sweep.qr_unitary
        monkeypatch.setattr(fidur.sweep, "qr_unitary",
                            lambda a: shapes.append(a.shape) or qr_unitary(a))
        config = small_config(dims=(3, 2), trials_per_dim=BLOCK + 3)
        dim = run_sweep(config).min_slack_witness["dim"]
        assert shapes == [(BLOCK, 3, 3), (3, 3, 3), (BLOCK, 2, 2), (3, 2, 2), (1, dim, dim)]


def _peak_bytes(config) -> int:
    tracemalloc.start()
    try:
        run_sweep(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dim", [10, 30])
def test_memory_is_bounded_by_one_chunk(dim):
    """A chunk keeps only its complements, so a sweep holds one chunk's draws
    at a time: after a warm-up run, the traced peak with 64 blocks of trials
    (four windows of 16 chunks) is within 10 % of the peak with one block.
    (Seen: 1.03 and 1.10 MB at dim 10; 7.50 and 7.56 MB at dim 30.)"""

    def config(trials):
        return small_config(dims=(dim,), kinds=(MetricKind.ANGLE,), trials_per_dim=trials)

    run_sweep(config(BLOCK))  # first-use caches and imports are not the sweep's
    one_chunk, four_windows = (_peak_bytes(config(trials)) for trials in (BLOCK, 64 * BLOCK))
    assert four_windows <= 1.1 * one_chunk


# sha256 of the concatenated run_sweep(config).to_json() over _digest_grid(),
# keyed by (numpy version, OpenBLAS kernel), under which the bytes must not
# move (QR and matmul bits depend on the kernel). The SkylakeX pin was taken
# when a window of chunks moved to one slack stage and each chunk to one
# product Q^dag [psi | M] and one complement call, read from the raw draws
# (unscaled, unnormalized, before the phase fix): the sums round differently,
# so min_slack moved by at most 1.5 eps, while every count, stream and witness
# coordinate, rho, a and b kept its bits. Before it,
# 786989323f3cbf9a3eaa6f0984512d27470c5df3722b8119d0986be9738f239c held from
# the move of a chunk to A = I (a trial (A, B, rho) and (I, A^dag B, A^dag rho
# A) give the same slack, and with A, B Haar and rho unitarily invariant the
# second has the law of (I, B, rho)), and
# 8cfca033e6ac3c9c6091f4cee9306d10355682b950776f1c4616672c4f75ca03 from the
# move of the slacks to complements until then. The Haswell pin holds the same
# code's bytes under OPENBLAS_CORETYPE=Haswell.
SWEEP_DIGEST = {
    ("2.4.6", "SkylakeX"): "6d67da122332e17a15c1ea462058fda096bb3d33c84bc314bf06a64bdb71346e",
    ("2.4.6", "Haswell"): "e1e234166159e14f2c1c0365af77bd7403f83c20014f2a4c2d8f88b4c8201863",
}


def _digest_grid():
    for seed in (1, 4004):
        for mixedness in ("pure", "mixed", "both"):
            for trials in (1, 20, 65):
                yield SweepConfig(dims=tuple(range(2, 11)), trials_per_dim=trials, seed=seed,
                                  kinds=ALL_KINDS, mixedness=mixedness)
    yield SweepConfig(dims=(3, 5), trials_per_dim=50, seed=3,
                      kinds=(MetricKind.BURES, MetricKind.ANGLE), mixedness="both")


def test_sweep_bytes_are_pinned(pinned):
    digest = pinned(SWEEP_DIGEST)
    text = "".join(run_sweep(config).to_json() for config in _digest_grid())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


# How far min_slack and the witness's b may move between OpenBLAS kernels.
# Haswell against SkylakeX moved them by at most 1.1e-16 (0.5 eps) on this
# test's configs.
KERNEL_BAND = 8 * EPS


@pytest.mark.parametrize("seed", [1, 7, 1111])
def test_sweep_values_hold_across_blas_kernels(sweep_in_child, seed):
    """A sweep run under OpenBLAS's Haswell kernel in a child process keeps
    every value-level fact of the same sweep run here: the counts, the
    witness's coordinates and state exactly, its slack and b within
    KERNEL_BAND. Each config's witness is a pure state, whose amplitudes keep
    their bits under any kernel; QR, and with it b, moves in its last bits."""
    config = SweepConfig(dims=(2, 3, 4, 5, 8), trials_per_dim=130, seed=seed, kinds=ALL_KINDS,
                         mixedness="both")
    core, text = sweep_in_child(config, OPENBLAS_CORETYPE="Haswell")
    if core != "Haswell":
        pytest.skip(f"OpenBLAS ran its {core} kernel where Haswell was asked for")
    here, there = run_sweep(config).to_payload(), json.loads(text)
    w_here, w_there = here.pop("min_slack_witness"), there.pop("min_slack_witness")
    for exact in ("total_trials", "violations"):
        assert here[exact] == there[exact]
    for exact in ("dim", "trial", "mixedness", "kind", "seed", "rho", "a"):
        assert w_here[exact] == w_there[exact], exact
    assert abs(here["min_slack"] - there["min_slack"]) <= KERNEL_BAND
    assert w_here["slack"] == here["min_slack"] and w_there["slack"] == there["min_slack"]
    b_here, b_there = (np.array(w["b"]["eigenbasis"]) for w in (w_here, w_there))
    assert np.abs(b_here - b_there).max() <= KERNEL_BAND


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
