import json
import math
import subprocess
import sys

import numpy as np
import pytest

from fidur.cli import main
from fidur.metrics import metric_kind
from fidur.states import DensityMatrix, ProjectiveObservable, PureState
from fidur.sweep import SweepConfig


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


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


def _payload_cases():
    rho = DensityMatrix(np.diag([1.0, 0.0])).to_payload()
    psi = PureState(np.array([0.0, 1.0])).to_payload()
    obs = ProjectiveObservable(np.eye(2, dtype=complex)).to_payload()
    for payload, key in ((rho, "matrix"), (psi, "amplitudes"), (obs, "eigenbasis")):
        missing = {k: v for k, v in payload.items() if k != key}
        yield pytest.param(missing, id=f"{payload['type']}-missing-{key}")
        yield pytest.param({**payload, "dim": "x"}, id=f"{payload['type']}-dim-x")
        yield pytest.param({**payload, "dim": 2.5}, id=f"{payload['type']}-dim-fractional")


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

    @pytest.mark.parametrize(
        "key, value",
        [
            ("trials_per_dim", 2.7),
            ("trials_per_dim", True),
            ("seed", 1.5),
            ("tolerance", math.inf),
            ("dims", 5),
        ],
        ids=["fractional-trials", "boolean-trials", "fractional-seed",
             "infinite-tolerance", "scalar-dims"],
    )
    def test_malformed_config_exits_2(self, capsys, tmp_path, key, value):
        payload = {"dims": [2], "trials_per_dim": 2, "seed": 1,
                   "kinds": ["angle"], "mixedness": "pure", key: value}
        path = write_json(tmp_path / "sweep.json", payload)
        assert main(["sweep", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

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

    def test_single_point_grid_rejected(self, capsys):
        assert main(["region", "--metric", "angle", "--overlap", "0.6", "--dim", "4",
                     "--points", "1"]) == 2
        assert capsys.readouterr().err.startswith("error:")


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
        from fidur.states import observable_from_payload

        assert main(["sample", "observable", "--dim", "4", "--seed", "11"]) == 0
        obs = observable_from_payload(json.loads(capsys.readouterr().out))
        assert obs.eigenbasis.shape == (4, 4)

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "state.json"
        assert main(["sample", "pure", "--dim", "2", "--seed", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == str(out)
        json.loads(out.read_text())

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
