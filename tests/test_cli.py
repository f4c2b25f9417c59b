import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sylvobs import (
    Plant,
    ReducedObserver,
    SimulationConfig,
    SinusoidInput,
    error_metrics,
    load_matrices,
    save_matrices,
    simulate,
    synthesize_observer,
    verify_solution,
    write_trace_csv,
)
from sylvobs.cli import build_parser, main
from sylvobs.simulate import _BLOCK
from tests.conftest import random_detectable_pair

WORKED = {
    "A": np.array([[0.0, 1.0], [0.0, 0.0]]),
    "B": np.array([[0.0], [1.0]]),
    "C": np.array([[1.0, 0.0]]),
}


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity, which are not JSON."""

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def write_system(tmp_path, name="system.json", extra=None, **overrides):
    doc = dict(WORKED)
    doc.update(overrides)
    if extra:
        doc.update(extra)
    path = tmp_path / name
    save_matrices(path, doc)
    return str(path)


def json_dump_text(named):
    """The text of a matrix file as ``json.dump(doc, fh, indent=2)`` plus a
    newline writes it."""
    doc = {}
    for key, value in named.items():
        arr = np.asarray(value, dtype=float)
        arr = arr.reshape(-1, 1) if arr.ndim == 1 else arr
        doc[key] = {"rows": int(arr.shape[0]), "cols": int(arr.shape[1]),
                    "data": [float(v) for v in arr.ravel()]}
    fh = io.StringIO()
    json.dump(doc, fh, indent=2)
    fh.write("\n")
    return fh.getvalue().encode("utf-8")


class TestMatrixFiles:
    @pytest.mark.parametrize("named", [
        {},
        {"A": np.zeros((0, 3)), "B": np.zeros((2, 0))},
        {"z": [[-0.0, 5e-324, 1e300, -1e-300]]},
        {"\u00e9\u20ac": [[1.0]], 'q"\\\n': [[2.5]], "\U0001d400": np.eye(2)},
        {"i": [[1, 2], [3, -4]], "big": [[2**60]]},
        {"v": np.array([1.0, -2.0, 3.5]), "s": [7]},
        {1: [[1.0]], 2.5: [[0.1]], True: [[0.2]], None: [[3.0]]},
        {"r": np.random.default_rng(98).standard_normal((7, 5)) * 10.0**np.arange(-150, 200, 70)},
    ], ids=["empty", "zero-size", "signed-zero-subnormal-huge", "non-ascii-quoted",
            "int", "vectors", "non-string-keys", "random"])
    def test_text_is_json_dump_indent_2(self, tmp_path, named):
        path = tmp_path / "m.json"
        save_matrices(path, named)
        assert path.read_bytes() == json_dump_text(named)

    @pytest.mark.parametrize("value, message", [
        ([[math.nan, math.inf], [-math.inf, 0.5]], "must have finite entries"),
        (np.array([1.0, math.nan]), "must have finite entries"),
        (np.array([[1.0 + 2j]]), "must be a real matrix: complex entries"),
        (np.array([1.0, 2.0 + 0j]), "must be a real matrix: complex entries"),
    ], ids=["nan-inf", "nan-vector", "complex", "zero-imaginary"])
    def test_refused_before_opening(self, tmp_path, value, message):
        # load_matrices refuses what is not finite, and json holds no complex
        # number: neither is written, and no file is left
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match=re.escape(f"matrix 'n' {message}")):
            save_matrices(path, {"A": np.eye(2), "n": value})
        assert not path.exists()

    @pytest.mark.parametrize("command", ["solve", "observe"])
    def test_command_files_are_json_dump_indent_2(self, tmp_path, capsys, command):
        A, C, _ = random_detectable_pair(np.random.default_rng(99), 16, 2, n_hidden=1)
        path = write_system(tmp_path, A=A, B=np.ones((16, 1)), C=C)
        out_path = tmp_path / "out.json"
        assert main([command, path, "--out", str(out_path)]) == 0
        assert out_path.read_bytes() == json_dump_text(load_matrices(out_path))

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

    def test_vector_saved_as_column(self, tmp_path):
        path = tmp_path / "v.json"
        save_matrices(path, {"x0": np.array([1.0, 2.0])})
        assert json.loads(path.read_text())["x0"] == {"rows": 2, "cols": 1, "data": [1.0, 2.0]}
        assert np.array_equal(load_matrices(path)["x0"], [[1.0], [2.0]])

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

    @pytest.mark.parametrize(
        "entry", ['"1"', "true", "false", "null", "[1]", "{}"],
        ids=["string", "true", "false", "null", "list", "object"],
    )
    def test_non_number_entry_rejected(self, tmp_path, entry):
        # numpy would read "1" and true as 1.0; JSON booleans are Python ints
        path = tmp_path / "bad.json"
        path.write_text('{"C": {"rows": 1, "cols": 2, "data": [%s, 0.5]}}' % entry)
        with pytest.raises(ValueError, match="'C': data must be numbers"):
            load_matrices(path)

    def test_huge_integer_entry_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"C": {"rows": 1, "cols": 1, "data": [1%s]}}' % ("0" * 400))
        with pytest.raises(ValueError, match="'C': entries must be finite"):
            load_matrices(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"C": [1.0, 2.0]}', r"^matrix 'C': expected an object, got list$"),
            ('{"C": {"rows": -1, "cols": 0, "data": []}}',
             r"^matrix 'C': rows/cols must be non-negative integers$"),
            ("[1.0, 2.0]", r": top level must be a JSON object$"),
            ('{"C": {"rows": 1, "cols": 1, "data": [1e400]}}', r"^matrix 'C': entries must be finite$"),
            ('{"C": {"rows": 1, "cols": 1, "data": [NaN]}}', r"^matrix 'C': entries must be finite$"),
            (None, r"^matrix 'X': must be 1-D or 2-D$"),
        ],
        ids=["entry-not-object", "negative-rows", "top-level-not-object", "float-overflow",
             "nan", "save-3d"],
    )
    def test_schema_violation_named(self, tmp_path, text, message):
        path = tmp_path / "bad.json"
        with pytest.raises(ValueError, match=message):
            if text is None:
                save_matrices(path, {"X": np.zeros((2, 2, 2))})
            else:
                path.write_text(text)
                load_matrices(path)

    def test_check_refuses_non_number_entries(self, tmp_path, capsys):
        path = tmp_path / "system.json"
        path.write_text(
            '{"A": {"rows": 2, "cols": 2, "data": [0, 1, 0, 0]},'
            ' "C": {"rows": 1, "cols": 2, "data": ["1", true]}}'
        )
        assert main(["check", str(path)]) == 1
        captured = capsys.readouterr()
        assert "data must be numbers" in captured.err
        assert captured.out == ""


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

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_rejected(self, tmp_path, capsys, tol):
        code = main(["check", write_system(tmp_path), "--tol", tol])
        captured = capsys.readouterr()
        assert code == 1
        assert "tol must be finite and >= 0" in captured.err
        assert captured.out == ""

    def test_complex_eigenvalues_in_table(self, tmp_path, capsys):
        path = write_system(tmp_path, A=np.array([[0.0, 1.0], [-2.0, -2.0]]))
        code = main(["check", path])
        rows = capsys.readouterr().out.splitlines()
        assert code == 0
        assert [row.split() for row in rows[1:3]] == [["-1+1j", "yes", "yes"], ["-1-1j", "yes", "yes"]]

    @pytest.mark.parametrize(
        "A, code", [(np.diag([1.0, -2.0]), 2), (np.diag([-1.0, -2.0]), 0)], ids=["unstable", "stable"]
    )
    def test_zero_C_hides_every_mode(self, tmp_path, capsys, A, code):
        path = write_system(tmp_path, A=A, C=np.zeros((1, 2)))
        assert main(["check", path, "--json"]) == code
        doc = json.loads(capsys.readouterr().out)
        assert [e["observable"] for e in doc["eigenvalues"]] == [False, False]
        assert doc["observability_indices"] == []

    def test_rank_cutoff_is_scale_aware(self, tmp_path, capsys):
        # the default --tol is the library's: a small C still measures the
        # double integrator's position
        path = write_system(tmp_path, C=np.array([[1e-10, 0.0]]))
        assert main(["check", path]) == 0
        assert "is detectable" in capsys.readouterr().out
        assert main(["check", path, "--tol", "1e-9"]) == 2

    def test_json_output(self, tmp_path, capsys):
        code = main(["check", write_system(tmp_path), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["detectable"] is True
        assert len(doc["eigenvalues"]) == 1  # one distinct eigenvalue (0)
        assert doc["observability_indices"] == [2]  # one chain of length 2

    def test_json_observability_indices(self, tmp_path, capsys):
        # a chain of 3 and a single state, the head of each measured
        A = np.diag([1.0, 1.0, 0.0], 1)
        C = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        code = main(["check", write_system(tmp_path, A=A, B=np.ones((4, 1)), C=C), "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["observability_indices"] == [3, 1]


class TestSolve:
    def test_worked_solution_file(self, tmp_path, capsys):
        out_path = str(tmp_path / "sol.json")
        code = main(["solve", write_system(tmp_path), "--poles", "-1", "--out", out_path])
        assert code == 0
        sol = load_matrices(out_path)
        assert set(sol) == {"T", "F", "G", "W"}
        assert_allclose(sol["F"], [[-1.0]], atol=1e-12)
        assert_allclose(sol["T"], [[-1.0, 1.0]], atol=1e-12)
        assert "residual_norm" in capsys.readouterr().out

    @pytest.mark.parametrize("n, p", [(2, 1), (6, 2), (5, 5)])
    def test_solution_W_is_observers(self, tmp_path, n, p):
        # solve --out and observe --out write one W for one system file
        A, C, _ = random_detectable_pair(np.random.default_rng((44, n, p)), n, p)
        system = write_system(tmp_path, A=A, B=np.ones((n, 1)), C=C)
        sol_path, obs_path = str(tmp_path / "sol.json"), str(tmp_path / "obs.json")
        assert main(["solve", system, "--out", sol_path]) == 0
        assert main(["observe", system, "--out", obs_path]) == 0
        assert np.array_equal(load_matrices(sol_path)["W"], load_matrices(obs_path)["W"])

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

    @pytest.mark.parametrize("given, same", [
        (["--poles", "-1.5,-2"], ["--poles=-1.5,-2"]),
        (["--poles", ""], []),
    ], ids=["negative-list", "empty-list"])
    def test_pole_option_forms(self, tmp_path, capsys, given, same):
        # argparse alone reads "-1.5,-2" as an unknown option, not as the
        # value; a list with no entries selects the default targets
        path = write_system(tmp_path, A=np.diag([1.0, 1.0], 1), B=np.ones((3, 1)),
                            C=np.array([[1.0, 0.0, 0.0]]))
        runs = []
        for poles in (given, same):
            out_path = tmp_path / "s.json"
            assert main(["solve", path, *poles, "--out", str(out_path)]) == 0
            runs.append((capsys.readouterr().out, out_path.read_bytes()))
        assert runs[0] == runs[1]

    def test_readme_pole_list(self, tmp_path, capsys):
        # README's list of three targets: an observer of order 3 takes it, and
        # on a 3-state plant with one output it parses and the solve names the
        # count it needs
        out_path = str(tmp_path / "s.json")
        chain = write_system(tmp_path, "chain4.json", A=np.diag([1.0, 1.0, 1.0], 1),
                             B=np.ones((4, 1)), C=np.array([[1.0, 0.0, 0.0, 0.0]]))
        assert main(["solve", chain, "--poles", "-1,-2+1j,-2-1j", "--out", out_path]) == 0
        F = load_matrices(out_path)["F"]
        assert_allclose(np.sort_complex(np.linalg.eigvals(F)), [-2 - 1j, -2 + 1j, -1], atol=1e-8)
        chain3 = write_system(tmp_path, "chain3.json", A=np.diag([1.0, 1.0], 1),
                              B=np.ones((3, 1)), C=np.array([[1.0, 0.0, 0.0]]))
        capsys.readouterr()
        assert main(["solve", chain3, "--poles", "-1,-2+1j,-2-1j", "--out", out_path]) == 1
        assert "desired must list 2 poles, got 3" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--pole", "-1.5,-2"],
        ["--pole=-1.5,-2"],
        ["--pol", "-1.5,-2", "--js"],
    ], ids=["separate", "joined", "json"])
    def test_abbreviated_options_refused(self, tmp_path, capsys, args):
        # each option has one spelling; an abbreviation would escape the join
        # of a list option to a value that starts with "-"
        path = write_system(tmp_path, A=np.diag([1.0, 1.0], 1), B=np.ones((3, 1)),
                            C=np.array([[1.0, 0.0, 0.0]]))
        assert main(["solve", path, *args, "--out", str(tmp_path / "s.json")]) == 1
        assert f"unrecognized arguments: {args[0]}" in capsys.readouterr().err

    def test_poles_without_value(self, tmp_path, capsys):
        code = main(["solve", write_system(tmp_path), "--out", str(tmp_path / "s.json"),
                     "--poles"])
        assert code == 1
        assert "argument --poles: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "observe"])
    def test_full_measurement_json_is_strict(self, tmp_path, capsys, command):
        # p = n: F is empty, so its spectral abscissa is -inf, which JSON
        # cannot hold; it prints as null
        path = write_system(tmp_path, A=np.diag([-1.0, 2.0]), B=np.ones((2, 1)), C=np.eye(2))
        assert main([command, path, "--json", "--out", str(tmp_path / "s.json")]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["F_spectral_abscissa"] is None
        assert doc["T_rank"] == 0


class TestObserve:
    def test_worked_observer_file(self, tmp_path):
        out_path = str(tmp_path / "obs.json")
        code = main(["observe", write_system(tmp_path), "--poles", "-1", "--out", out_path])
        assert code == 0
        obs = load_matrices(out_path)
        assert set(obs) == {"F", "G", "P", "T", "W"}
        assert_allclose(obs["P"], [[1.0]], atol=1e-12)
        assert_allclose(obs["W"], [[1.0, 0.0], [1.0, 1.0]], atol=1e-12)

    def test_poles_in_the_stability_band(self, tmp_path, capsys):
        out_path = str(tmp_path / "obs.json")
        code = main(["observe", write_system(tmp_path), "--poles=-5e-10", "--out", out_path])
        assert code == 1
        assert "desired must have real parts below -1e-09" in capsys.readouterr().err
        assert not os.path.exists(out_path)
        assert main(["observe", write_system(tmp_path), "--poles=-2e-9", "--out", out_path]) == 0

    def test_zero_B(self, tmp_path):
        out_path = str(tmp_path / "obs.json")
        path = write_system(tmp_path, B=np.zeros((2, 1)))
        code = main(["observe", path, "--poles", "-1", "--out", out_path])
        assert code == 0
        assert_allclose(load_matrices(out_path)["P"], np.zeros((1, 1)))

    def test_undetectable(self, tmp_path):
        path = write_system(tmp_path, A=np.eye(2))
        assert main(["observe", path, "--out", str(tmp_path / "o.json")]) == 2

    def test_json_report_is_the_solve_report(self, tmp_path, capsys):
        # the printed report is the one the solve verified; recomputing it
        # from the written file gives the same figures bit for bit
        A, C, _ = random_detectable_pair(np.random.default_rng(51), 6, 2, n_hidden=1)
        path = write_system(tmp_path, A=A, B=np.ones((6, 1)), C=C)
        out_path = str(tmp_path / "obs.json")
        assert main(["observe", path, "--json", "--out", out_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        obs = load_matrices(out_path)
        rep = verify_solution(A, C, obs["T"], obs["F"], obs["G"], 1e-9)
        assert doc["residual_norm"] > 0.0
        assert doc["residual_norm"] == rep.residual_norm
        assert doc["stacked_min_singular_value"] == rep.stacked_min_singular_value
        assert doc["F_spectral_abscissa"] == rep.F_spectral_abscissa
        assert doc["T_rank"] == rep.T_rank == 4

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

    @pytest.mark.parametrize("steps", [_BLOCK, 2 * _BLOCK + 3])
    def test_streamed_csv_and_metrics_are_the_library_trace(self, tmp_path, capsys, steps):
        # the command writes and summarises the trace block by block, never
        # whole; its CSV and metrics are those of the library's trace exactly
        sys_path = write_system(
            tmp_path, extra={"x0": np.array([[0.5], [-1.0]]), "z0": np.ones((1, 1))}
        )
        obs_path = str(tmp_path / "obs.json")
        assert main(["observe", sys_path, "--poles", "-1", "--out", obs_path]) == 0
        capsys.readouterr()
        csv_path = tmp_path / "trace.csv"
        t_final = steps * 1e-3
        code = main(["simulate", sys_path, "--observer", obs_path, "--input", "sinusoid",
                     "--t-final", repr(t_final), "--dt", "1e-3", "--csv", str(csv_path), "--json"])
        out = capsys.readouterr().out
        assert code == 0

        M = load_matrices(obs_path)
        obs = ReducedObserver(F=M["F"], G=M["G"], P=M["P"], T=M["T"], W=M["W"])
        cfg = SimulationConfig(t_final=t_final, dt=1e-3, input_signal=SinusoidInput([1.0]))
        trace = simulate(Plant(**WORKED), obs, [0.5, -1.0], [1.0], cfg)
        assert trace.times.size == steps + 1
        buf = io.StringIO()
        write_trace_csv(trace, buf)
        assert csv_path.read_bytes() == buf.getvalue().encode("utf-8")
        assert json.loads(out) == dict(error_metrics(trace), csv=str(csv_path))

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

    @pytest.mark.parametrize("name, shape, expected", [
        ("F", (2, 3), (2, 2)),
        ("G", (1, 1), (2, 1)),
        ("P", (2, 2), (2, 1)),
        ("T", (2, 2), (2, 3)),
        ("W", (2, 3), (3, 3)),
    ], ids=["F", "G", "P", "T", "W"])
    def test_malformed_observer_file(self, tmp_path, capsys, name, shape, expected):
        # one mis-shaped matrix of an order-2 observer of a 3-state plant is
        # named with both shapes before the CSV is opened
        sys_path = write_system(tmp_path, A=np.diag([-1.0, -2.0, -3.0]), B=np.ones((3, 1)),
                                C=np.array([[1.0, 0.0, 0.0]]))
        obs_path = tmp_path / "obs.json"
        assert main(["observe", sys_path, "--out", str(obs_path)]) == 0
        matrices = load_matrices(obs_path)
        matrices[name] = np.ones(shape)
        save_matrices(obs_path, matrices)
        capsys.readouterr()
        csv_path = tmp_path / "t.csv"
        code = main(["simulate", sys_path, "--observer", str(obs_path), "--csv", str(csv_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"observer {name} must have shape {expected}" in err and f"got {shape}" in err
        assert not csv_path.exists()

    def test_bad_x0_token(self, tmp_path, capsys):
        code = main(["simulate", write_system(tmp_path), "--x0", "1,a", "--t-final", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "cannot parse --x0 '1,a'" in captured.err
        assert captured.out == ""

    def test_x0_flag_overrides(self, tmp_path, capsys):
        path = write_system(tmp_path)
        code = main(
            ["simulate", path, "--poles", "-1", "--x0", "0,0", "--z0", "1",
             "--t-final", "1", "--json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["decay_ratio"] == pytest.approx(math.exp(-1.0), abs=1e-6)

    @pytest.mark.parametrize("in_file, flags, first", [
        (True, ["--x0", "-4,5", "--z0", "-6"], [-4.0, 5.0, -6.0]),
        (True, ["--x0=-4,5"], [-4.0, 5.0, 3.0]),
        (True, ["--z0", "-6"], [1.0, 2.0, -6.0]),
        (True, [], [1.0, 2.0, 3.0]),
        (False, ["--z0", "-6"], [0.0, 0.0, -6.0]),
        (False, [], [0.0, 0.0, 0.0]),
    ], ids=["options", "x0-option", "z0-option", "file", "no-file-z0", "zeros"])
    def test_initial_state_precedence(self, tmp_path, capsys, in_file, flags, first):
        # each initial state is its option's, else the file's, else zero
        extra = {"x0": np.array([[1.0], [2.0]]), "z0": np.array([[3.0]])} if in_file else None
        path = write_system(tmp_path, extra=extra)
        csv_path = tmp_path / "t.csv"
        code = main(["simulate", path, "--poles", "-1", *flags, "--t-final", "1e-3",
                     "--csv", str(csv_path)])
        assert code == 0
        row = np.loadtxt(csv_path, delimiter=",", skiprows=1)[0]
        # columns: t, x_1, x_2, z_1, ...
        assert row[1:4].tolist() == first

    def test_negative_lists_are_option_values(self, tmp_path, capsys):
        path = write_system(tmp_path)
        runs = []
        for flags in (["--x0", "-1,0", "--amplitude", "-1"], ["--x0=-1,0", "--amplitude=-1"]):
            code = main(["simulate", path, "--poles", "-1", "--input", "constant", *flags,
                         "--t-final", "1", "--json"])
            assert code == 0
            runs.append(json.loads(capsys.readouterr().out))
        assert runs[0] == runs[1]


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

    def test_overflowing_stiff_observer_step_exits_1(self, tmp_path, capsys):
        # R(dt * -1e200) overflows: the mode is far outside the RK4 region,
        # not a trace that overflows later
        path = write_system(tmp_path, A=np.diag([-1.0, -2.0]))
        obs_path = tmp_path / "stiff_obs.json"
        save_matrices(obs_path, {"F": np.array([[-1e200]]), "G": np.ones((1, 1)),
                                 "P": np.ones((1, 1)), "T": np.array([[0.0, 1.0]]),
                                 "W": np.eye(2)})
        code = main(["simulate", path, "--observer", str(obs_path), "--t-final", "0.01"])
        assert code == 1
        err = capsys.readouterr().err
        assert "stability region" in err and "-1e+200" in err and "= inf" in err

    def test_undamped_fast_plant_step_exits_1(self, tmp_path, capsys):
        # |R(5i)| = 21.5: an undamped 5000 rad/s plant mode is outside the
        # RK4 region at dt = 1e-3, which is the step's fault, not the observer's
        path = write_system(
            tmp_path, A=np.array([[0.0, 5000.0], [-5000.0, 0.0]]), B=np.array([[0.0], [1.0]])
        )
        code = main(["simulate", path, "--t-final", "1", "--x0=1,0", "--z0=1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "stability region" in err and "5000j" in err and "dt = 0.001" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_metrics_are_json_null(self, tmp_path, capsys):
        # a real plant instability at 800 /s overflows within 1 s; the
        # metrics are NaN and --json must still print valid JSON
        path = write_system(
            tmp_path, A=np.array([[800.0, 1.0], [0.0, -1.0]]), B=np.array([[0.0], [1.0]])
        )
        code = main(["simulate", path, "--t-final", "1", "--x0=1,0", "--z0=1", "--json"])
        doc = strict_json(capsys.readouterr().out)
        assert code == 3
        assert doc == {
            "final_error_norm": None,
            "decay_ratio": None,
            "estimate_final_error": None,
        }

    def test_first_nonfinite_sample_reported(self, tmp_path, capsys):
        # the 800 /s plant above: stderr names the first sample where the
        # library's trace of the same run stops being finite
        A = np.array([[800.0, 1.0], [0.0, -1.0]])
        B = np.array([[0.0], [1.0]])
        path = write_system(tmp_path, A=A, B=B)
        code = main(["simulate", path, "--t-final", "1", "--x0=1,0", "--z0=1", "--json"])
        err = capsys.readouterr().err

        plant = Plant(A, B, WORKED["C"])
        with np.errstate(over="ignore", invalid="ignore"):
            trace = simulate(plant, synthesize_observer(plant, tol=1e-9), [1.0, 0.0], [1.0],
                             SimulationConfig(t_final=1.0, dt=1e-3))
        finite = np.isfinite(trace.x).all(axis=1) & np.isfinite(trace.z).all(axis=1)
        step = int(np.flatnonzero(~finite)[0])
        assert 0 < step < trace.times.size - 1
        assert code == 3
        assert f"first non-finite sample at step {step} (t = {trace.times[step]:g})" in err

    def test_observer_file_missing_key(self, tmp_path, capsys):
        sys_path = write_system(tmp_path)
        obs_path = tmp_path / "partial.json"
        save_matrices(obs_path, {"F": np.array([[-1.0]])})
        code = main(["simulate", sys_path, "--observer", str(obs_path)])
        assert code == 1
        assert "'G'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--t-final", "inf"], ["--dt", "nan"], ["--t-final", "1e300", "--dt", "1e-300"]],
        ids=["inf-horizon", "nan-step", "too-many-steps"],
    )
    def test_unusable_horizon_exits_1(self, tmp_path, capsys, flags):
        code = main(["simulate", write_system(tmp_path), "--poles", "-1"] + flags)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags, message", [
        (["--phase", "inf"], "error: phase must be finite, got inf\n"),
        (["--frequency", "nan"], "error: frequency must be finite, got nan\n"),
        (["--frequency", "1e308"],
         "error: the sinusoid's angle frequency * t + phase overflows at t = 1.798 "
         "(frequency = 1e+308)\n"),
    ], ids=["inf-phase", "nan-frequency", "overflowing-angle"])
    def test_unusable_sinusoid_named(self, tmp_path, capsys, flags, message):
        code = main(["simulate", write_system(tmp_path), "--poles", "-1", "--input", "sinusoid",
                     "--t-final", "10", *flags])
        assert code == 1
        assert capsys.readouterr().err == message

    @staticmethod
    def fail_after_opening(tmp_path, csv):
        # the angle overflows at t = 1.798, blocks after the file was opened
        code = main(["simulate", write_system(tmp_path), "--poles", "-1", "--input", "sinusoid",
                     "--frequency", "1e308", "--csv", str(csv)])
        assert code == 1

    def test_failed_run_leaves_no_csv(self, tmp_path, capsys):
        csv = tmp_path / "trace.csv"
        self.fail_after_opening(tmp_path, csv)
        assert capsys.readouterr().err.startswith("error: the sinusoid's angle")
        assert not csv.exists()

    def test_failed_run_keeps_a_link_and_its_target(self, tmp_path, capsys):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"")
        link.symlink_to(target)
        self.fail_after_opening(tmp_path, link)
        assert capsys.readouterr().err.startswith("error: the sinusoid's angle")
        assert link.is_symlink() and target.read_bytes().startswith(b"t,x_1,")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    def test_failed_run_keeps_a_fifo(self, tmp_path, capsys):
        fifo = tmp_path / "trace.fifo"
        os.mkfifo(fifo)
        read = []
        reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()), daemon=True)
        reader.start()
        self.fail_after_opening(tmp_path, fifo)
        reader.join(30)
        assert capsys.readouterr().err.startswith("error: the sinusoid's angle")
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode) and read[0].startswith(b"t,x_1,")

    def test_failed_removal_reports_the_run_error(self, tmp_path, capsys, monkeypatch):
        def refuse(path):
            raise PermissionError(13, "Permission denied", str(path))

        csv = tmp_path / "trace.csv"
        monkeypatch.setattr(os, "remove", refuse)
        self.fail_after_opening(tmp_path, csv)
        assert capsys.readouterr().err.startswith("error: the sinusoid's angle")

    def test_amplitude_length_mismatch(self, tmp_path, capsys):
        code = main(
            ["simulate", write_system(tmp_path), "--input", "constant",
             "--amplitude", "1,2,3"]
        )
        assert code == 1


class TestOneParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_observe_poles_do_not_carry_over(self, tmp_path, capsys):
        # a chain of three states measured at one end: two observer poles
        plant = Plant(np.diag([1.0, 1.0], 1), np.ones((3, 1)), [[1.0, 0.0, 0.0]])
        path = write_system(tmp_path, A=plant.A, B=plant.B, C=plant.C)
        out_path = tmp_path / "obs.json"
        texts = []
        for flags in (["--poles", "-3,-4"], []):
            assert main(["observe", path, *flags, "--out", str(out_path)]) == 0
            texts.append(out_path.read_bytes())
        obs = synthesize_observer(plant)
        save_matrices(out_path, {"F": obs.F, "G": obs.G, "P": obs.P, "T": obs.T, "W": obs.W})
        assert texts[1] == out_path.read_bytes() != texts[0]

    def test_simulate_x0_does_not_carry_over(self, tmp_path, capsys):
        path = write_system(tmp_path, extra={"x0": np.array([[1.0], [2.0]])})
        csv_path = tmp_path / "t.csv"
        firsts = []
        for flags in (["--x0", "-4,5"], []):
            assert main(["simulate", path, "--poles", "-1", *flags, "--t-final", "1e-3",
                         "--csv", str(csv_path)]) == 0
            firsts.append(np.loadtxt(csv_path, delimiter=",", skiprows=1)[0, 1:3].tolist())
        assert firsts == [[-4.0, 5.0], [1.0, 2.0]]


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_missing_file(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope.json")]) == 1

    def test_module_entry_point(self, tmp_path):
        # python -m sylvobs runs cli.entry(), which exits with main()'s code:
        # argparse's own exit 2 on a usage error is remapped to 1
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        cases = [
            (["check", write_system(tmp_path)], 0, "is detectable"),
            (["check", write_system(tmp_path, "hidden.json", A=np.eye(2))], 2, "NOT detectable"),
            (["check"], 1, ""),
        ]
        for argv, code, out in cases:
            proc = subprocess.run(
                [sys.executable, "-m", "sylvobs", *argv],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == code, proc.stderr
            assert out in proc.stdout
