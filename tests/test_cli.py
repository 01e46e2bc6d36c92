import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fidur.cli import cmd_sample, main
from fidur.errors import ValidationError
from fidur.metrics import metric_kind
from fidur.states import (
    DensityMatrix,
    ProjectiveObservable,
    PureState,
    fourier_observable,
    state_from_payload,
)
from fidur.sweep import SweepConfig


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def pairs(m):
    """Fixture entries of any complex array, valid state or not: [re, im] pairs."""
    return np.stack((m.real, m.imag), axis=-1).tolist()


@pytest.fixture
def zero_state(tmp_path):
    return write_json(tmp_path / "zero.json", DensityMatrix(np.diag([1.0, 0.0])).to_payload())


@pytest.fixture
def one_state(tmp_path):
    return write_json(tmp_path / "one.json", PureState(np.array([0.0, 1.0])).to_payload())


@pytest.fixture
def comp_obs(tmp_path):
    payload = ProjectiveObservable(np.eye(2, dtype=complex)).to_payload()
    return write_json(tmp_path / "comp.json", payload)


@pytest.fixture
def hadamard_obs(tmp_path):
    basis = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    return write_json(tmp_path / "hadamard.json", ProjectiveObservable(basis).to_payload())


class TestFidelityCommand:
    def test_identical_states(self, capsys, zero_state):
        assert main(["fidelity", zero_state, zero_state]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["F = 1", "angle = 0", "bures = 0", "root-infidelity = 0"]

    def test_orthogonal_states(self, capsys, zero_state, one_state):
        assert main(["fidelity", zero_state, one_state]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "F = 0"
        assert out[1] == f"angle = {format(math.pi / 2, '.12g')}"
        assert out[2] == f"bures = {format(math.sqrt(2.0), '.12g')}"
        assert out[3] == "root-infidelity = 1"

    def test_commuting_diagonal_pair(self, capsys, tmp_path):
        rho = write_json(tmp_path / "r.json", DensityMatrix(np.diag([0.6, 0.4])).to_payload())
        sigma = write_json(tmp_path / "s.json", DensityMatrix(np.diag([0.5, 0.5])).to_payload())
        assert main(["fidelity", rho, sigma]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "F = 0.989897948557"

    def test_readme_example_verbatim(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for argv in (
            "sample mixed --dim 3 --aux-dim 2 --seed 11 --out rho.json",
            "sample mixed --dim 3 --aux-dim 3 --seed 12 --out sigma.json",
        ):
            assert main(argv.split()) == 0
        capsys.readouterr()
        assert main("fidelity rho.json sigma.json".split()) == 0
        assert capsys.readouterr().out == (
            "F = 0.504940432244\n"
            "angle = 0.780457650759\n"
            "bures = 0.760800095669\n"
            "root-infidelity = 0.703604695661\n"
        )

    def test_accepts_pure_state_fixture(self, capsys, one_state, zero_state):
        assert main(["fidelity", one_state, zero_state]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "F = 0"

    def test_missing_file(self, capsys, zero_state):
        assert main(["fidelity", zero_state, "nosuch.json"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_invalid_json(self, capsys, tmp_path, zero_state):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["fidelity", zero_state, str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_observable_rejected_as_state(self, capsys, zero_state, comp_obs):
        assert main(["fidelity", zero_state, comp_obs]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_a_fixture_that_is_not_an_object_exits_2(self, capsys, tmp_path, zero_state):
        bad = write_json(tmp_path / "list.json", [])
        assert main(["fidelity", zero_state, bad]) == 2
        assert capsys.readouterr().err == "error: payload must be a JSON object\n"


# The output of README's check-ur example, keyed by (numpy version, OpenBLAS
# kernel): the samples' QR and products, and so the report, move in their last
# bits with the kernel. The README shows the SkylakeX output.
CHECK_UR_EXAMPLE = {
    ("2.4.6", "SkylakeX"): (
        '{"bound": 0.7178137637432005, "overlap_c": 0.7532455019940689, '
        '"p_max_a": 0.3615371197327872, "p_max_b": 0.6268030615488046, '
        '"slack": 0.8650759735135509, "u_a": 0.92569479594047, "u_b": 0.6571949413162813}\n'
    ),
    ("2.4.6", "Haswell"): (
        '{"bound": 0.7178137637432004, "overlap_c": 0.7532455019940689, '
        '"p_max_a": 0.36153711973278724, "p_max_b": 0.6268030615488044, '
        '"slack": 0.8650759735135515, "u_a": 0.92569479594047, "u_b": 0.6571949413162818}\n'
    ),
}


class TestCheckURCommand:
    def test_certainty_case(self, capsys, zero_state, comp_obs, hadamard_obs):
        rc = main(["check-ur", zero_state, comp_obs, hadamard_obs, "--metric", "angle"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["p_max_a"] == pytest.approx(1.0, abs=1e-12)
        assert report["u_a"] == 0.0
        assert report["bound"] == pytest.approx(math.pi / 4, abs=1e-12)
        assert abs(report["slack"]) <= 1e-12

    def test_all_metric_names(self, capsys, zero_state, comp_obs, hadamard_obs):
        for name in ("angle", "bures", "root-infidelity"):
            rc = main(["check-ur", zero_state, comp_obs, hadamard_obs, "--metric", name])
            assert rc == 0
            report = json.loads(capsys.readouterr().out)
            assert report["slack"] >= -1e-9

    def test_negative_tolerance_flags_tight_case_as_violation(
        self, capsys, zero_state, comp_obs, hadamard_obs
    ):
        # slack == 0 sits below -(-0.5), so the violation exit path fires
        rc = main(
            [
                "check-ur",
                zero_state,
                comp_obs,
                hadamard_obs,
                "--metric",
                "angle",
                "--tolerance=-0.5",
            ]
        )
        assert rc == 3
        capsys.readouterr()

    def test_metric_flag_required(self, zero_state, comp_obs, hadamard_obs):
        with pytest.raises(SystemExit) as exc:
            main(["check-ur", zero_state, comp_obs, hadamard_obs])
        assert exc.value.code == 2

    def test_unknown_metric_rejected(self, zero_state, comp_obs, hadamard_obs):
        with pytest.raises(SystemExit) as exc:
            main(["check-ur", zero_state, comp_obs, hadamard_obs, "--metric", "trace"])
        assert exc.value.code == 2

    def test_state_rejected_as_observable(self, capsys, zero_state, hadamard_obs):
        assert main(["check-ur", zero_state, zero_state, hadamard_obs, "--metric", "angle"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("theta, scale", [(7e-9, 1.0), (1e-5, 1.0 + 9e-11)])
    def test_the_equality_set_is_no_violation(self, capsys, tmp_path, theta, scale):
        """A computational, B rotated by 0.7 and psi = (cos theta, sin theta):
        the angle relation holds with equality, and a trace within tolerance
        is divided out, so no kind exits 3 at the default tolerance."""
        alpha = 0.7
        rotation = np.array([[math.cos(alpha), -math.sin(alpha)],
                             [math.sin(alpha), math.cos(alpha)]])
        psi = np.array([math.cos(theta), math.sin(theta)])
        rho = DensityMatrix(scale * np.outer(psi, psi))
        files = [
            write_json(tmp_path / "rho.json", rho.to_payload()),
            write_json(tmp_path / "a.json", ProjectiveObservable(np.eye(2)).to_payload()),
            write_json(tmp_path / "b.json", ProjectiveObservable(rotation).to_payload()),
        ]
        for name in ("angle", "bures", "root-infidelity"):
            assert main(["check-ur", *files, "--metric", name]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["slack"] >= -1e-15

    def test_readme_example_verbatim(self, capsys, tmp_path, monkeypatch, pinned):
        expected = pinned(CHECK_UR_EXAMPLE)
        monkeypatch.chdir(tmp_path)
        for argv in (
            "sample mixed --dim 3 --aux-dim 2 --seed 11 --out rho.json",
            "sample observable --dim 3 --seed 13 --out a.json",
            "sample observable --dim 3 --seed 14 --out b.json",
        ):
            assert main(argv.split()) == 0
        capsys.readouterr()
        assert main("check-ur rho.json a.json b.json --metric angle".split()) == 0
        assert capsys.readouterr().out == expected


def _payload_cases():
    rho = DensityMatrix(np.diag([1.0, 0.0])).to_payload()
    psi = PureState(np.array([0.0, 1.0])).to_payload()
    obs = ProjectiveObservable(np.eye(2, dtype=complex)).to_payload()
    for payload, key in ((rho, "matrix"), (psi, "amplitudes"), (obs, "eigenbasis")):
        missing = {k: v for k, v in payload.items() if k != key}
        yield pytest.param(missing, id=f"{payload['type']}-missing-{key}")
        yield pytest.param({**payload, "dim": "x"}, id=f"{payload['type']}-dim-x")
        yield pytest.param({**payload, "dim": 2.5}, id=f"{payload['type']}-dim-fractional")
        data = np.array(payload[key])  # the [re, im] pairs as a float array
        huge = data.tolist()
        (huge if data.ndim == 2 else huge[0])[0] = [10**400, 0.0]
        bad_data = {
            "string-entries": data.astype(str).tolist(),
            "three-element-pair": np.concatenate((data, data[..., :1]), axis=-1).tolist(),
            "rank-too-high": [data.tolist()] * 2,
            "huge-entry": huge,
        }
        if data.ndim == 3:
            bad_data["ragged-rows"] = [data[0].tolist(), data[1, :1].tolist()]
        for name, value in bad_data.items():
            yield pytest.param({**payload, key: value}, id=f"{payload['type']}-{name}")


class TestPayloadContract:
    """A malformed fixture of any type is an input error (exit 2), never a traceback."""

    @pytest.mark.parametrize("payload", _payload_cases())
    def test_malformed_fixture_exits_2(self, capsys, tmp_path, zero_state, comp_obs, payload):
        bad = write_json(tmp_path / "bad.json", payload)
        if payload["type"] == "observable":
            args = ["check-ur", zero_state, bad, comp_obs, "--metric", "angle"]
        else:
            args = ["fidelity", zero_state, bad]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error:")


# A malformed entry for a [re, im] pair: a wrong arity, a wrong type, or an
# integer too large for a float.
BAD_ENTRIES = [[1.0], [1.0, 2.0, 3.0], "x", "ab", None, {}, [None, 0.0], [10**400, 0]]

MUTATIONS = ["valid", "non-finite", "non-hermitian", "negative-eigenvalue", "trace",
             "empty", "ragged", "dim-mismatch", "bad-entry", "random-entries", "pure-state"]


@st.composite
def state_payloads(draw, n=None, mutations=MUTATIONS):
    """Density-matrix payloads, valid or broken in one of the ways above."""
    n = draw(st.integers(1, 4)) if n is None else n
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    p = weights / weights.sum() if weights.sum() > 0 else np.eye(n)[0]
    m = np.diag(p).astype(complex)
    mutation = draw(st.sampled_from(mutations))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if mutation == "non-finite":
        m[i, j] = draw(st.sampled_from([complex(math.nan, 0), complex(0, math.inf),
                                        complex(-math.inf, 0)]))
    elif mutation == "non-hermitian":
        m[i, j] += complex(0.3, draw(st.floats(-1.0, 1.0)))
    elif mutation == "negative-eigenvalue":
        m = np.diag([1.5, -0.5] + [0.0] * (n - 1)).astype(complex)
    elif mutation == "trace":
        m *= draw(st.floats(0.0, 2.0))
    elif mutation == "random-entries":
        m = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n * n, max_size=n * n)))
        m = m.reshape(n, n).astype(complex)
    if mutation == "pure-state":
        amps = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
        return {"type": "pure-state", "dim": n, "amplitudes": [[a, 0.0] for a in amps]}
    rows = pairs(m)
    if mutation == "empty":
        rows = draw(st.sampled_from([[], [[]], [[] for _ in range(n)]]))
    elif mutation == "ragged":
        rows[i] = rows[i][:-1]
    elif mutation == "bad-entry":
        rows[i][j] = draw(st.sampled_from(BAD_ENTRIES))
    dim = n + draw(st.sampled_from([-n, -1, 1, 2])) if mutation == "dim-mismatch" else n
    return {"type": "density-matrix", "dim": dim, "matrix": rows}


class TestFidelityFuzz:
    @pytest.mark.parametrize("entry", BAD_ENTRIES, ids=lambda e: repr(e)[:12])
    @pytest.mark.parametrize("kind", ["density-matrix", "pure-state"])
    def test_bad_entry_exits_2(self, capsys, tmp_path, zero_state, kind, entry):
        if kind == "density-matrix":
            payload = {"type": kind, "dim": 1, "matrix": [[entry]]}
        else:
            payload = {"type": kind, "dim": 1, "amplitudes": [entry]}
        bad = write_json(tmp_path / "bad.json", payload)
        assert main(["fidelity", zero_state, bad]) == 2
        assert capsys.readouterr().err.startswith("error: malformed")

    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(a=state_payloads(), b=state_payloads())
    def test_fuzz_exits_zero_or_two(self, tmp_path, a, b):
        files = [write_json(tmp_path / f"{name}.json", payload)
                 for name, payload in (("a", a), ("b", b))]
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main(["fidelity", *files])
        assert rc in (0, 2), (a, b)
        if rc == 0:
            assert out.getvalue().startswith("F = ") and len(out.getvalue().splitlines()) == 4
        else:
            assert err.getvalue().startswith("error:") and out.getvalue() == ""


OBSERVABLE_MUTATIONS = ["valid", "non-orthonormal", "non-finite", "bad-entry", "ragged",
                        "empty", "dim-mismatch", "state"]


@st.composite
def observable_payloads(draw, n, mutations=OBSERVABLE_MUTATIONS):
    """Observable payloads of dimension n, valid or broken in one of the ways above."""
    e = draw(st.sampled_from([np.eye(n, dtype=complex), fourier_observable(n).eigenbasis]))
    e = e.copy()
    mutation = draw(st.sampled_from(mutations))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if mutation == "state":
        return DensityMatrix(np.eye(n) / n).to_payload()
    if mutation == "non-orthonormal":
        e[i, j] += draw(st.floats(0.01, 2.0))
    elif mutation == "non-finite":
        e[i, j] = draw(st.sampled_from([complex(math.nan, 0), complex(0, -math.inf)]))
    rows = pairs(e)
    if mutation == "empty":
        rows = draw(st.sampled_from([[], [[]]]))
    elif mutation == "ragged":
        rows[i] = rows[i][:-1]
    elif mutation == "bad-entry":
        rows[i][j] = draw(st.sampled_from(BAD_ENTRIES))
    dim = n + draw(st.sampled_from([-n, 1])) if mutation == "dim-mismatch" else n
    return {"type": "observable", "dim": dim, "eigenbasis": rows}


@st.composite
def check_ur_payloads(draw):
    """(rho, a, b) fixtures: all valid, or one broken, or one of another dimension."""
    n = draw(st.integers(1, 4))
    broken = draw(st.sampled_from([None, "rho", "a", "b", "dim"]))
    rho = draw(state_payloads(n, MUTATIONS if broken == "rho" else ["valid"]))
    a = draw(observable_payloads(n + (broken == "dim"),
                                 OBSERVABLE_MUTATIONS if broken == "a" else ["valid"]))
    b = draw(observable_payloads(n, OBSERVABLE_MUTATIONS if broken == "b" else ["valid"]))
    return rho, a, b


def _run_main(argv):
    """main(argv) with captured output; an argparse error counts as its exit code."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


class TestCheckURFuzz:
    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        fixtures=check_ur_payloads(),
        metric=st.sampled_from(["angle", "bures", "root-infidelity", "trace"]),
        tolerance=st.one_of(
            st.none(),
            st.sampled_from([math.nan, math.inf, -math.inf, -0.5, -1e-9, 0.0]),
            st.floats(),
        ),
    )
    def test_fuzz_exits_zero_two_or_three(self, tmp_path, fixtures, metric, tolerance):
        files = [write_json(tmp_path / f"{name}.json", payload)
                 for name, payload in zip(("rho", "a", "b"), fixtures)]
        argv = ["check-ur", *files, "--metric", metric]
        if tolerance is not None:
            argv += ["--tolerance", repr(tolerance)]
        rc, out, err = _run_main(argv)
        assert rc in (0, 2, 3), argv
        if rc == 2:
            assert out == "" and err != ""
        else:
            assert set(json.loads(out)) >= {"p_max_a", "p_max_b", "slack"}


# Bad sizes and seeds: zero, negatives and one far beyond any array numpy
# can index (never a size it would try to allocate). 10**400 is a valid seed.
SAMPLE_BAD = [0, -1, -3, 10**400, -(10**400)]


@st.composite
def sample_options(draw):
    """``sample`` options: valid values (<= 6), then up to two replaced by bad ones."""
    what = draw(st.sampled_from(["pure", "mixed", "observable"]))
    options = {"--dim": draw(st.integers(1, 6)), "--seed": draw(st.integers(0, 6))}
    if what == "mixed" or draw(st.integers(0, 9)) == 0:
        options["--aux-dim"] = draw(st.integers(1, 6))
    for key in draw(st.sets(st.sampled_from(["--dim", "--aux-dim", "--seed"]), max_size=2)):
        options[key] = draw(st.sampled_from(SAMPLE_BAD))
    return what, options


class TestSampleFuzz:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(case=sample_options())
    def test_fuzz_exits_zero_or_two(self, case):
        what, options = case
        argv = ["sample", what] + [w for key, value in options.items() for w in (key, str(value))]
        rc, out, err = _run_main(argv)
        assert rc in (0, 2), argv
        if rc == 2:
            assert err.startswith("error:") and out == ""
        elif what == "observable":
            assert ProjectiveObservable.from_payload(json.loads(out)).dim == options["--dim"]
        else:
            assert state_from_payload(json.loads(out)).dim == options["--dim"]


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "pure", "--dim", str(10**400), "--seed", "1"],
        ["sample", "observable", "--dim", str(10**400), "--seed", "1"],
        ["sample", "mixed", "--dim", "2", "--aux-dim", str(10**400), "--seed", "1"],
        ["sweep", "--dim", str(10**400), "--trials", "1", "--seed", "1", "--metric", "angle",
         "--mixedness", "pure"],
        ["region", "--metric", "angle", "--overlap", "0.8", "--dim", "2",
         "--points", str(10**400)],
    ],
    ids=["sample-pure-dim", "sample-observable-dim", "sample-mixed-aux-dim", "sweep-dim",
         "region-points"],
)
def test_oversized_size_exits_2(argv):
    assert _run_main(argv) == (2, "", "error: requested size is too large for one array\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["fidelity", "rho.json", "psi.json"],
        ["sample", "mixed", "--dim", "8", "--aux-dim", "8", "--seed", "3"],
    ],
    ids=["fidelity", "sample-mixed"],
)
def test_a_closed_stdout_exits_1_without_a_traceback(monkeypatch, tmp_path, argv):
    """As in ``fidur ... | head -c 10``: writing to stdout raises
    BrokenPipeError, and stdout then points at devnull, so that the final
    flush of what is still buffered cannot raise again."""
    monkeypatch.chdir(tmp_path)
    for args in ("sample mixed --dim 3 --aux-dim 2 --seed 11 --out rho.json",
                 "sample pure --dim 3 --seed 7 --out psi.json"):
        assert _run_main(args.split())[0] == 0
    read, write = os.pipe()
    os.close(read)
    with open(write, "w", encoding="utf-8") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert main(argv) == 1
        assert err.getvalue() == ""
        print("more", flush=True)


_NUMPY_OOM = "Unable to allocate 74.5 GiB for an array with shape (10000000000,)"


@pytest.mark.parametrize(
    "callee, argv, message, stderr",
    [
        ("region_samples", ["region", "--metric", "angle", "--overlap", "0.8", "--dim", "2",
                            "--points", "10000000000"], _NUMPY_OOM, f"error: {_NUMPY_OOM}\n"),
        ("sample_pure", ["sample", "pure", "--dim", "10000000000", "--seed", "1"], "",
         "error: out of memory\n"),
    ],
    ids=["region-points", "sample-pure-dim"],
)
def test_unallocatable_size_exits_2(monkeypatch, callee, argv, message, stderr):
    """A size numpy can index but the machine cannot hold ends in one error line."""

    def out_of_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr(f"fidur.cli.{callee}", out_of_memory)
    assert _run_main(argv) == (2, "", stderr)


SWEEP_FLAGS = [
    "sweep",
    "--dim",
    "2",
    "--dim",
    "3",
    "--trials",
    "6",
    "--seed",
    "99",
    "--metric",
    "angle",
    "--metric",
    "bures",
    "--mixedness",
    "both",
]


class TestSweepCommand:
    def test_flags_run(self, capsys):
        assert main(SWEEP_FLAGS) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["total_trials"] == 2 * 6 * 2 * 2
        assert result["violations"] == 0
        assert result["min_slack_witness"]["seed"] == 99

    def test_config_file_matches_flags(self, capsys, tmp_path):
        assert main(SWEEP_FLAGS) == 0
        from_flags = capsys.readouterr().out
        config = SweepConfig(
            dims=(2, 3),
            trials_per_dim=6,
            seed=99,
            kinds=tuple(metric_kind(k) for k in ("angle", "bures")),
            mixedness="both",
        )
        path = write_json(tmp_path / "sweep.json", config.to_payload())
        assert main(["sweep", "--config", path]) == 0
        assert capsys.readouterr().out == from_flags

    def test_config_conflicts_with_flags(self, tmp_path):
        path = write_json(tmp_path / "sweep.json", {"dims": [2]})
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", path, "--dim", "2"])
        assert exc.value.code == 2

    def test_missing_flags_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--dim", "2"])
        assert exc.value.code == 2

    def test_workers_flag_is_a_usage_error(self, capsys):
        """A sweep runs in one process; --workers is no longer a flag."""
        with pytest.raises(SystemExit) as exc:
            main(SWEEP_FLAGS + ["--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("trials_per_dim", 2.7),
            ("trials_per_dim", True),
            ("seed", 1.5),
            ("tolerance", math.inf),
            ("tolerance", 10**400),
            ("dims", 5),
        ],
        ids=["fractional-trials", "boolean-trials", "fractional-seed",
             "infinite-tolerance", "huge-int-tolerance", "scalar-dims"],
    )
    def test_malformed_config_exits_2(self, capsys, tmp_path, key, value):
        payload = {"dims": [2], "trials_per_dim": 2, "seed": 1,
                   "kinds": ["angle"], "mixedness": "pure", key: value}
        path = write_json(tmp_path / "sweep.json", payload)
        assert main(["sweep", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("flag, key", [("--dim", "dims"), ("--metric", "kinds")])
    def test_repeated_entry_exits_2(self, capsys, tmp_path, flag, key):
        """A dim or metric given twice would run or count the same trials
        twice: an error, from flags and from --config alike."""
        assert main(SWEEP_FLAGS + [flag, SWEEP_FLAGS[SWEEP_FLAGS.index(flag) + 1]]) == 2
        payload = {**SWEEP_CONFIG, key: SWEEP_CONFIG[key] * 2}
        assert main(["sweep", "--config", write_json(tmp_path / "sweep.json", payload)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count(f"error: {key} entry ") == 2

    def test_infinite_tolerance_flag_exits_2(self, capsys):
        assert main(SWEEP_FLAGS + ["--tolerance", "inf"]) == 2

    def test_tolerance_can_ride_on_config(self, capsys, tmp_path):
        config = SweepConfig(
            dims=(2,),
            trials_per_dim=3,
            seed=1,
            kinds=(metric_kind("angle"),),
            mixedness="pure",
        )
        path = write_json(tmp_path / "sweep.json", config.to_payload())
        assert main(["sweep", "--config", path, "--tolerance", "1e-6"]) == 0
        assert json.loads(capsys.readouterr().out)["violations"] == 0

    def test_progress_goes_to_stderr_not_stdout(self, capsys):
        assert main(["sweep", "--dim", "2", "--trials", "2", "--seed", "3",
                     "--metric", "angle", "--mixedness", "pure"]) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)
        assert "chunks done" in captured.err


SWEEP_CONFIG = {"dims": [2, 3], "trials_per_dim": 2, "seed": 1, "kinds": ["angle"],
                "mixedness": "pure", "tolerance": 1e-9}
# Values of the wrong type or range for most keys. Large dims and trial
# counts are left out: a valid one runs a real sweep of that size.
ANY_BAD = st.sampled_from([True, False, None, 1.5, math.nan, math.inf, -math.inf, -1, 0,
                           -(10**400), "x", {}, [], [[2]]])
SWEEP_VALUES = {
    "dims": st.one_of(ANY_BAD, st.integers(-1, 4),
                      st.lists(st.one_of(st.integers(-1, 4), ANY_BAD), max_size=3)),
    "trials_per_dim": st.one_of(ANY_BAD, st.integers(-2, 3)),
    "seed": st.one_of(ANY_BAD, st.integers(-5, 5), st.just(10**400)),
    "kinds": st.one_of(ANY_BAD, st.just("angle"), st.lists(
        st.one_of(st.sampled_from(["angle", "bures", "root-infidelity", "nope"]), ANY_BAD),
        max_size=3)),
    "mixedness": st.one_of(ANY_BAD, st.sampled_from(["pure", "mixed", "both", "neither"])),
    "tolerance": st.one_of(ANY_BAD, st.just(10**400), st.just(1e308), st.floats()),
}


@st.composite
def sweep_payloads(draw):
    payload = dict(SWEEP_CONFIG)
    for key in draw(st.sets(st.sampled_from(sorted(SWEEP_VALUES)), max_size=2)):
        payload[key] = draw(SWEEP_VALUES[key])
    for key in draw(st.sets(st.sampled_from(sorted(SWEEP_VALUES)), max_size=1)):
        del payload[key]
    if draw(st.booleans()):
        payload["workers"] = 2
    return payload


class TestSweepConfigFuzz:
    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(payload=st.one_of(sweep_payloads(), st.sampled_from([[], "x", 3, None])))
    def test_fuzz_exits_zero_two_or_three(self, tmp_path, payload):
        path = write_json(tmp_path / "sweep.json", payload)
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main(["sweep", "--config", path])
        assert rc in (0, 2, 3), payload
        if rc == 2:
            assert err.getvalue().startswith("error:") and out.getvalue() == ""
        else:
            assert json.loads(out.getvalue())["total_trials"] > 0


class TestRegionCommand:
    def test_default_filename(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["region", "--metric", "angle", "--overlap", "0.6", "--dim", "4",
                   "--points", "11"])
        assert rc == 0
        printed = capsys.readouterr().out.strip()
        assert printed == "region_angle_0.6.csv"
        lines = (tmp_path / printed).read_text().strip().splitlines()
        assert lines[0] == "p,g"
        assert len(lines) == 12
        last_p, last_g = (float(x) for x in lines[-1].split(","))
        assert last_p == 1.0
        assert last_g == pytest.approx(0.36, abs=1e-12)

    def test_explicit_out_path(self, capsys, tmp_path):
        out = tmp_path / "boundary.csv"
        rc = main(["region", "--metric", "bures", "--overlap", "0.8", "--dim", "3",
                   "--points", "5", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == str(out)
        assert out.read_text().splitlines()[0] == "p,g"

    def test_shared_eigenvector_boundary_is_flat(self, capsys, tmp_path):
        out = tmp_path / "flat.csv"
        assert main(["region", "--metric", "angle", "--overlap", "1.0", "--dim", "3",
                     "--points", "7", "--out", str(out)]) == 0
        capsys.readouterr()
        rows = out.read_text().strip().splitlines()[1:]
        assert all(float(row.split(",")[1]) == 1.0 for row in rows)

    def test_overlap_below_floor_rejected(self, capsys):
        assert main(["region", "--metric", "angle", "--overlap", "0.1", "--dim", "4",
                     "--points", "5"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_dimension_beyond_float_range_rejected(self, capsys):
        assert main(["region", "--metric", "angle", "--overlap", "0.5", "--dim", str(10**400),
                     "--points", "5"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_single_point_grid_rejected(self, capsys):
        assert main(["region", "--metric", "angle", "--overlap", "0.6", "--dim", "4",
                     "--points", "1"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unwritable_out_path_exits_2(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        assert main(["region", "--metric", "angle", "--overlap", "0.6", "--dim", "4",
                     "--points", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}")

    def test_readme_example_verbatim(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["region", "--metric", "bures", "--overlap", "0.6", "--dim", "4",
                     "--points", "5"]) == 0
        assert capsys.readouterr().out == "region_bures_0.6.csv\n"
        assert (tmp_path / "region_bures_0.6.csv").read_bytes() == (
            b"p,g\n"
            b"0.25,1.0\n"
            b"0.4375,0.994886930405165\n"
            b"0.625,0.9398101987624312\n"
            b"0.8125,0.8074864233842685\n"
            b"1.0,0.3600000000000001\n"
        )

    @settings(max_examples=150, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        metric=st.sampled_from(["angle", "bures", "root-infidelity"]),
        overlap=st.one_of(
            st.sampled_from([math.nan, math.inf, -math.inf, -0.5, 0.0, 1.0, 1.0 + 1e-6, 2.0]),
            st.floats(allow_nan=True, allow_infinity=True),
            st.floats(0.0, 1.0),
        ),
        dim=st.one_of(st.sampled_from([-3, 0, 1, 2]), st.integers(-10, 40)),
        points=st.one_of(st.sampled_from([-1, 0, 1, 2]), st.integers(-5, 60)),
    )
    def test_fuzz_exits_zero_or_two(self, tmp_path, metric, overlap, dim, points):
        out = tmp_path / "fuzz.csv"
        out.unlink(missing_ok=True)
        argv = ["region", "--metric", metric, "--overlap", repr(overlap), "--dim", str(dim),
                "--points", str(points), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main(argv)
        assert rc in (0, 2), argv
        if rc == 0:
            lines = out.read_text(encoding="utf-8").splitlines()
            assert lines[0] == "p,g" and len(lines) == points + 1
        else:
            assert err.getvalue().startswith("error:")
            assert not out.exists()


class TestSampleCommand:
    def test_pure_to_stdout(self, capsys):
        assert main(["sample", "pure", "--dim", "3", "--seed", "7"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["type"] == "pure-state"
        amps = np.array([complex(re, im) for re, im in payload["amplitudes"]])
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_requires_aux_dim(self, capsys):
        assert main(["sample", "mixed", "--dim", "3", "--seed", "7"]) == 2
        assert "aux-dim" in capsys.readouterr().err

    def test_mixed_fixture_is_a_valid_state(self, capsys):
        from fidur.states import state_from_payload

        assert main(["sample", "mixed", "--dim", "3", "--aux-dim", "3", "--seed", "7"]) == 0
        state_from_payload(json.loads(capsys.readouterr().out))

    def test_aux_dim_rejected_for_pure(self, capsys):
        assert main(["sample", "pure", "--dim", "3", "--aux-dim", "2", "--seed", "7"]) == 2
        capsys.readouterr()

    def test_observable_fixture_round_trips(self, capsys):
        assert main(["sample", "observable", "--dim", "4", "--seed", "11"]) == 0
        obs = ProjectiveObservable.from_payload(json.loads(capsys.readouterr().out))
        assert obs.eigenbasis.shape == (4, 4)

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "state.json"
        assert main(["sample", "pure", "--dim", "2", "--seed", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == str(out)
        json.loads(out.read_text())

    def test_unwritable_out_path_exits_2(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.json"
        assert main(["sample", "pure", "--dim", "2", "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}")

    def test_unknown_target_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="unknown sample target 'foo'"):
            cmd_sample("foo", 3, None, 7)

    def test_same_seed_same_bytes(self, capsys):
        main(["sample", "mixed", "--dim", "3", "--aux-dim", "2", "--seed", "21"])
        first = capsys.readouterr().out
        main(["sample", "mixed", "--dim", "3", "--aux-dim", "2", "--seed", "21"])
        assert capsys.readouterr().out == first


class TestModuleEntryPoint:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "fidur", *args],
            capture_output=True,
            text=True,
        )

    def test_sample_is_byte_deterministic_across_processes(self):
        a = self.run_cli("sample", "observable", "--dim", "3", "--seed", "5")
        b = self.run_cli("sample", "observable", "--dim", "3", "--seed", "5")
        assert a.returncode == 0
        assert a.stdout == b.stdout

    def test_sweep_is_byte_deterministic_across_processes(self):
        args = ("sweep", "--dim", "2", "--trials", "4", "--seed", "17",
                "--metric", "root-infidelity", "--mixedness", "mixed")
        a = self.run_cli(*args)
        b = self.run_cli(*args)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        assert json.loads(a.stdout)["violations"] == 0

    def test_missing_file_exit_code(self):
        result = self.run_cli("fidelity", "nosuch.json", "nosuch.json")
        assert result.returncode == 2
        assert result.stderr.startswith("error:")


class TestNegativeValueAsSeparateWord:
    """"--opt -inf" reaches the program's checks exactly as "--opt=-inf" does."""

    @staticmethod
    def _run(argv):
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main(argv)
        return rc, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("value", ["-inf", "-nan", "-1e-9", "-0.5", "-1E3"])
    def test_region_overlap(self, value):
        head = ["region", "--metric", "angle"]
        tail = ["--dim", "4", "--points", "5"]
        separate = self._run(head + ["--overlap", value] + tail)
        assert separate == self._run(head + [f"--overlap={value}"] + tail)
        rc, out, err = separate
        assert rc == 2 and out == ""
        assert err.startswith("error: overlap") and "outside" in err

    def test_sweep_tolerance(self):
        separate = self._run(SWEEP_FLAGS + ["--tolerance", "-1e-9"])
        assert separate == self._run(SWEEP_FLAGS + ["--tolerance=-1e-9"])
        assert separate == (2, "", "error: tolerance must be a positive finite number\n")

    def test_check_ur_tolerance(self, zero_state, comp_obs, hadamard_obs):
        # check-ur takes a negative tolerance: slack ~0 is then a violation.
        head = ["check-ur", zero_state, comp_obs, hadamard_obs, "--metric", "angle"]
        separate = self._run(head + ["--tolerance", "-1e-9"])
        assert separate == self._run(head + ["--tolerance=-1e-9"])
        assert separate[0] == 3
        # No slack compares below -nan, so a nan tolerance is an input error.
        for value in ("nan", "-nan"):
            separate = self._run(head + ["--tolerance", value])
            assert separate == self._run(head + [f"--tolerance={value}"])
            assert separate == (2, "", "error: tolerance must not be nan\n")

    def test_non_number_is_still_an_option_name(self):
        with pytest.raises(SystemExit) as exc:
            main(["region", "--metric", "angle", "--overlap", "-x", "--dim", "4",
                  "--points", "5"])
        assert exc.value.code == 2
