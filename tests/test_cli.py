import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sylvobs import load_matrices, save_matrices
from sylvobs.cli import main

WORKED = {
    "A": np.array([[0.0, 1.0], [0.0, 0.0]]),
    "B": np.array([[0.0], [1.0]]),
    "C": np.array([[1.0, 0.0]]),
}


def write_system(tmp_path, name="system.json", extra=None, **overrides):
    doc = dict(WORKED)
    doc.update(overrides)
    if extra:
        doc.update(extra)
    path = tmp_path / name
    save_matrices(path, doc)
    return str(path)


class TestMatrixFiles:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(50)
        named = {
            "A": rng.standard_normal((3, 3)) * math.pi,
            "B": rng.standard_normal((3, 2)) / 3.0,
            "empty": np.zeros((0, 3)),
        }
        path = tmp_path / "m.json"
        save_matrices(path, named)
        loaded = load_matrices(path)
        assert set(loaded) == set(named)
        for key in named:
            assert np.array_equal(loaded[key], np.atleast_2d(named[key]))

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"A": {"rows": 2, "cols": 2}}')
        with pytest.raises(ValueError, match="'A'"):
            load_matrices(path)

    def test_wrong_length_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"C": {"rows": 1, "cols": 2, "data": [1.0]}}')
        with pytest.raises(ValueError, match="'C'"):
            load_matrices(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(ValueError, match="JSON"):
            load_matrices(path)


class TestCheck:
    def test_detectable(self, tmp_path, capsys):
        code = main(["check", write_system(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "is detectable" in out

    def test_undetectable_lists_offender(self, tmp_path, capsys):
        path = write_system(tmp_path, A=np.eye(2))
        code = main(["check", path])
        out = capsys.readouterr().out
        assert code == 2
        assert "NOT detectable" in out and "1" in out

    def test_missing_C(self, tmp_path, capsys):
        path = tmp_path / "sys.json"
        save_matrices(path, {"A": WORKED["A"]})
        code = main(["check", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "'C'" in err

    def test_json_output(self, tmp_path, capsys):
        code = main(["check", write_system(tmp_path), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["detectable"] is True
        assert len(doc["eigenvalues"]) == 1  # one distinct eigenvalue (0)


class TestSolve:
    def test_worked_solution_file(self, tmp_path, capsys):
        out_path = str(tmp_path / "sol.json")
        code = main(["solve", write_system(tmp_path), "--poles", "-1", "--out", out_path])
        assert code == 0
        sol = load_matrices(out_path)
        assert set(sol) == {"T", "F", "G", "L", "K"}
        assert_allclose(sol["F"], [[-1.0]], atol=1e-12)
        assert_allclose(sol["T"], [[-1.0, 1.0]], atol=1e-12)
        assert "residual_norm" in capsys.readouterr().out

    def test_json_report(self, tmp_path, capsys):
        out_path = str(tmp_path / "sol.json")
        code = main(
            ["solve", write_system(tmp_path), "--poles", "-1", "--out", out_path, "--json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["residual_norm"] <= 1e-12
        assert doc["T_rank"] == 1

    def test_undetectable(self, tmp_path, capsys):
        path = write_system(tmp_path, A=np.eye(2))
        code = main(["solve", path, "--out", str(tmp_path / "s.json")])
        assert code == 2
        assert "detectable" in capsys.readouterr().err

    def test_bad_poles_not_conjugate(self, tmp_path, capsys):
        code = main(
            ["solve", write_system(tmp_path), "--poles", "-1+2j", "--out", str(tmp_path / "s.json")]
        )
        assert code == 1

    def test_bad_poles_garbage(self, tmp_path):
        code = main(
            ["solve", write_system(tmp_path), "--poles", "abc", "--out", str(tmp_path / "s.json")]
        )
        assert code == 1


class TestObserve:
    def test_worked_observer_file(self, tmp_path):
        out_path = str(tmp_path / "obs.json")
        code = main(["observe", write_system(tmp_path), "--poles", "-1", "--out", out_path])
        assert code == 0
        obs = load_matrices(out_path)
        assert set(obs) == {"F", "G", "P", "T", "W"}
        assert_allclose(obs["P"], [[1.0]], atol=1e-12)
        assert_allclose(obs["W"], [[1.0, 0.0], [1.0, 1.0]], atol=1e-12)

    def test_zero_B(self, tmp_path):
        out_path = str(tmp_path / "obs.json")
        path = write_system(tmp_path, B=np.zeros((2, 1)))
        code = main(["observe", path, "--poles", "-1", "--out", out_path])
        assert code == 0
        assert_allclose(load_matrices(out_path)["P"], np.zeros((1, 1)))

    def test_undetectable(self, tmp_path):
        path = write_system(tmp_path, A=np.eye(2))
        assert main(["observe", path, "--out", str(tmp_path / "o.json")]) == 2

    def test_order_zero_full_measurement(self, tmp_path):
        C = np.array([[2.0, 0.0], [0.0, 1.0]])
        path = write_system(tmp_path, A=np.diag([-1.0, 2.0]), B=np.ones((2, 1)), C=C)
        out_path = str(tmp_path / "obs.json")
        assert main(["observe", path, "--out", out_path]) == 0
        obs = load_matrices(out_path)
        assert obs["T"].shape == (0, 2)
        assert_allclose(obs["W"], np.linalg.inv(C), atol=1e-12)


class TestSimulate:
    def test_worked_decay(self, tmp_path, capsys):
        path = write_system(tmp_path, extra={"x0": np.zeros((2, 1)), "z0": np.ones((1, 1))})
        code = main(
            ["simulate", path, "--poles", "-1", "--t-final", "1", "--dt", "1e-3", "--json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["decay_ratio"] == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_zero_initial_error_guard(self, tmp_path, capsys):
        # z0 = T x0 = [-1, 1] . [1, 1] = 0 for the worked observer
        path = write_system(
            tmp_path, extra={"x0": np.array([[1.0], [1.0]]), "z0": np.zeros((1, 1))}
        )
        code = main(["simulate", path, "--poles", "-1", "--t-final", "1", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["final_error_norm"] <= 1e-9 * 3

    def test_observer_file_and_csv_input_independence(self, tmp_path, capsys):
        sys_path = write_system(tmp_path, extra={"x0": np.zeros((2, 1)), "z0": np.ones((1, 1))})
        obs_path = str(tmp_path / "obs.json")
        assert main(["observe", sys_path, "--poles", "-1", "--out", obs_path]) == 0
        csv_zero = str(tmp_path / "zero.csv")
        csv_sin = str(tmp_path / "sin.csv")
        args = ["simulate", sys_path, "--observer", obs_path, "--t-final", "2", "--dt", "1e-3"]
        assert main(args + ["--csv", csv_zero]) == 0
        assert main(args + ["--input", "sinusoid", "--csv", csv_sin]) == 0
        capsys.readouterr()
        data0 = np.loadtxt(csv_zero, delimiter=",", skiprows=1)
        data1 = np.loadtxt(csv_sin, delimiter=",", skiprows=1)
        # columns: t, x_1, x_2, z_1, e_1, xhat_1, xhat_2, e_norm
        assert np.max(np.abs(data0[:, 4] - data1[:, 4])) <= 1e-9
        # x columns must differ (the input does act on the plant)
        assert np.max(np.abs(data0[:, 1] - data1[:, 1])) > 1e-3

    def test_dimension_mismatch_between_files(self, tmp_path):
        sys_path = write_system(tmp_path)
        obs_path = str(tmp_path / "obs.json")
        other = write_system(
            tmp_path,
            name="sys3.json",
            A=np.diag([-1.0, -2.0, -3.0]),
            B=np.ones((3, 1)),
            C=np.array([[1.0, 0.0, 0.0]]),
        )
        assert main(["observe", other, "--out", obs_path]) == 0
        assert main(["simulate", sys_path, "--observer", obs_path]) == 1

    def test_x0_flag_overrides(self, tmp_path, capsys):
        path = write_system(tmp_path)
        code = main(
            ["simulate", path, "--poles", "-1", "--x0", "0,0", "--z0", "1",
             "--t-final", "1", "--json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["decay_ratio"] == pytest.approx(math.exp(-1.0), abs=1e-6)


class TestDiagnosticExit:
    def test_bad_observer_trips_exit_3(self, tmp_path, capsys):
        # hand-built observer with unstable F: the error must grow and
        # the simulate command must flag it with the diagnostic code
        sys_path = write_system(tmp_path)
        obs_path = tmp_path / "bad_obs.json"
        save_matrices(
            obs_path,
            {
                "F": np.array([[1.0]]),
                "G": np.array([[-1.0]]),
                "P": np.array([[1.0]]),
                "T": np.array([[-1.0, 1.0]]),
                "W": np.array([[1.0, 0.0], [1.0, 1.0]]),
            },
        )
        code = main(
            ["simulate", sys_path, "--observer", str(obs_path), "--z0", "1",
             "--t-final", "1", "--json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 3
        assert doc["decay_ratio"] > 1.0

    def test_stiff_observer_step_exits_1(self, tmp_path, capsys):
        # pole -5000 at dt = 1e-3 leaves the RK4 stability region
        code = main(["simulate", write_system(tmp_path), "--poles", "-5000", "--t-final", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "stability region" in err and "-5000" in err

    def test_observer_file_missing_key(self, tmp_path, capsys):
        sys_path = write_system(tmp_path)
        obs_path = tmp_path / "partial.json"
        save_matrices(obs_path, {"F": np.array([[-1.0]])})
        code = main(["simulate", sys_path, "--observer", str(obs_path)])
        assert code == 1
        assert "'G'" in capsys.readouterr().err

    def test_amplitude_length_mismatch(self, tmp_path, capsys):
        code = main(
            ["simulate", write_system(tmp_path), "--input", "constant",
             "--amplitude", "1,2,3"]
        )
        assert code == 1


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_missing_file(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope.json")]) == 1

    def test_module_entry_point(self, tmp_path):
        path = write_system(tmp_path)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "sylvobs", "check", path],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "detectable" in proc.stdout
