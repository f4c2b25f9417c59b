import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import sylvobs
from sylvobs import analysis, observer
from sylvobs import (
    Plant,
    ReducedObserver,
    SimulationConfig,
    UndetectableError,
    load_matrices,
    save_matrices,
    simulate,
    solve_constrained_sylvester,
    synthesize_observer,
)
from tests.conftest import random_detectable_pair, random_undetectable_pair

PACKAGE_DIR = Path(sylvobs.__file__).resolve().parent


def _frame_arrays(frame):
    """ndarray locals of a frame, and the ndarray fields of dataclass locals."""
    for name, value in frame.f_locals.items():
        if isinstance(value, np.ndarray):
            yield name, value
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            for f in dataclasses.fields(value):
                field = getattr(value, f.name)
                if isinstance(field, np.ndarray):
                    yield f"{name}.{f.name}", field


def worked_plant():
    return Plant(
        A=np.array([[0.0, 1.0], [0.0, 0.0]]),
        B=np.array([[0.0], [1.0]]),
        C=np.array([[1.0, 0.0]]),
    )


def worked_observer():
    return synthesize_observer(worked_plant(), [-1.0])


class TestSynthesis:
    def test_worked_observer(self):
        obs = worked_observer()
        assert_allclose(obs.F, [[-1.0]], atol=1e-12)
        assert_allclose(obs.G, [[-1.0]], atol=1e-12)
        assert_allclose(obs.T, [[-1.0, 1.0]], atol=1e-12)
        assert_allclose(obs.P, [[1.0]], atol=1e-12)
        assert_allclose(obs.W, [[1.0, 0.0], [1.0, 1.0]], atol=1e-12)
        assert obs.order == 1

    def test_zero_B(self):
        plant = Plant(
            A=np.array([[0.0, 1.0], [0.0, 0.0]]),
            B=np.zeros((2, 1)),
            C=np.array([[1.0, 0.0]]),
        )
        obs = synthesize_observer(plant, [-1.0])
        assert_allclose(obs.P, np.zeros((1, 1)))
        assert_allclose(obs.F, [[-1.0]], atol=1e-12)

    def test_undetectable_rejected(self):
        plant = Plant(A=np.eye(2), B=np.ones((2, 1)), C=np.array([[1.0, 0.0]]))
        with pytest.raises(UndetectableError):
            synthesize_observer(plant)

    def test_failed_solve_pins_only_inputs(self):
        # the arrays a raised exception keeps alive are its frames' locals;
        # a failed synthesis must not leave work arrays of n or more
        # entries among them
        rng = np.random.default_rng(41)
        n, p = 64, 8
        A, C, _ = random_undetectable_pair(rng, n, p)
        B = rng.standard_normal((n, 2))
        with pytest.raises(UndetectableError) as excinfo:
            synthesize_observer(Plant(A, B, C))
        library_frames = 0
        tb = excinfo.value.__traceback__
        while tb is not None:
            frame = tb.tb_frame
            if Path(frame.f_code.co_filename).resolve().is_relative_to(PACKAGE_DIR):
                library_frames += 1
                for name, arr in _frame_arrays(frame):
                    if arr.size >= n:
                        assert any(np.shares_memory(arr, M) for M in (A, B, C)), (
                            f"{frame.f_code.co_name} holds {name} {arr.shape}"
                        )
            tb = tb.tb_next
        assert library_frames >= 2

    def test_read_only_inputs(self, tmp_path):
        # no routine writes into the arrays it validated
        A, B, C = np.array([[0.0, 1.0], [-2.0, -3.0]]), np.array([[0.0], [1.0]]), np.array([[1.0, 0.0]])
        x0 = np.array([1.0, 0.0])
        for M in (A, B, C, x0):
            M.flags.writeable = False
        plant = Plant(A, B, C)
        obs = synthesize_observer(plant)
        trace = simulate(plant, obs, x0, np.zeros(obs.order), SimulationConfig(t_final=0.1))
        assert np.all(np.isfinite(trace.x))
        path = tmp_path / "plant.json"
        save_matrices(path, {"A": plant.A, "B": plant.B, "C": plant.C, "T": obs.T})
        assert np.array_equal(load_matrices(path)["A"], A)

    def test_plant_arrays_read_only(self):
        # the plant shares the caller's float64 arrays but cannot write them
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])
        plant = Plant(A, [[0.0], [1.0]], [[1.0, 0.0]])
        assert np.shares_memory(plant.A, A)
        assert A.flags.writeable
        for M in (plant.A, plant.B, plant.C):
            with pytest.raises(ValueError, match="read-only"):
                M[0, 0] = 1.0

    def test_invariants_random(self):
        rng = np.random.default_rng(40)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            p = int(rng.integers(1, n))
            m = int(rng.integers(1, 4))
            A, C, _ = random_detectable_pair(rng, n, p)
            B = rng.standard_normal((n, m))
            obs = synthesize_observer(Plant(A, B, C))
            assert_allclose(obs.P, obs.T @ B, atol=1e-12)
            stacked = np.vstack([C, obs.T])
            assert np.linalg.norm(obs.W @ stacked - np.eye(n)) <= 1e-8 * n
            inverse = np.linalg.inv(stacked)
            assert np.linalg.norm(obs.W - inverse) <= 1e-9 * np.linalg.norm(inverse)
            assert max(np.linalg.eigvals(obs.F).real) < 0.0

    def test_W_is_the_solves(self):
        # the observer keeps the solve's W and forms none of its own;
        # with p = n it is inv(C)
        rng = np.random.default_rng(43)
        for n, p in [(2, 1), (5, 2), (7, 3), (9, 4), (12, 1), (3, 3), (6, 6)]:
            A, C, _ = random_detectable_pair(rng, n, p)
            sol = solve_constrained_sylvester(A, C)
            obs = synthesize_observer(Plant(A, np.ones((n, 1)), C))
            assert np.array_equal(obs.W, sol.W)
            if p == n:
                inverse = np.linalg.inv(C)
                assert np.linalg.norm(obs.W - inverse) <= 1e-9 * np.linalg.norm(inverse)

    @pytest.mark.parametrize("n, p, n_hidden", [(7, 2, 0), (9, 4, 2)])
    def test_each_fact_computed_once(self, monkeypatch, n, p, n_hidden):
        # one SVD of C (besides Plant's rank check), one staircase, one
        # spectrum of F, and W in closed form rather than from a linear solve
        # with [C; T] (the pole placement solves only systems of a stage's
        # size, below n)
        A, C, _ = random_detectable_pair(np.random.default_rng(42), n, p, n_hidden=n_hidden)
        plant = Plant(A, np.ones((n, 1)), C)
        calls = {"svd_of_C": 0, "staircase": 0, "solve": 0}

        def counted(fn, key, applies=lambda *args: True):
            def wrapper(*args, **kwargs):
                calls[key] += applies(*args)
                return fn(*args, **kwargs)
            return wrapper

        def is_C(M, *args):
            return np.shape(M) == C.shape

        def is_stacked(M, *args):
            return np.shape(M) == (n, n)

        monkeypatch.setattr(np.linalg, "svd", counted(np.linalg.svd, "svd_of_C", is_C))
        monkeypatch.setattr(np.linalg, "solve", counted(np.linalg.solve, "solve", is_stacked))
        # the observability split in analysis is the only caller of _staircase
        monkeypatch.setattr(analysis, "_staircase", counted(analysis._staircase, "staircase"))
        spectra = []
        eigvals = np.linalg.eigvals

        def recorded(M):
            spectra.append(np.array(M))
            return eigvals(M)

        monkeypatch.setattr(np.linalg, "eigvals", recorded)
        obs = synthesize_observer(plant)
        monkeypatch.undo()
        assert obs.order == n - p
        calls["spectrum_of_F"] = sum(np.array_equal(M, obs.F) for M in spectra)
        assert calls == {"svd_of_C": 1, "staircase": 1, "solve": 0, "spectrum_of_F": 1}

    def test_plant_validation(self):
        with pytest.raises(ValueError, match="square"):
            Plant(np.ones((2, 3)), np.ones((2, 1)), np.ones((1, 2)))
        with pytest.raises(ValueError, match="rows"):
            Plant(np.eye(2), np.ones((3, 1)), np.ones((1, 2)))
        with pytest.raises(ValueError, match="full row rank"):
            Plant(np.eye(2), np.ones((2, 1)), np.zeros((1, 2)))

    @pytest.mark.parametrize(
        "make", [Plant, lambda *abc: synthesize_observer(abc)], ids=["plant", "synthesize"]
    )
    def test_column_mismatch_rejected(self, make):
        with pytest.raises(ValueError, match=r"^C must have 2 columns to match A, got 3$"):
            make(np.eye(2), np.ones((2, 1)), np.ones((1, 3)))

    def test_recombination_gate(self, monkeypatch):
        # a solve whose W does not belong to its T: W does not invert [C; T]
        solve = observer.solve_constrained_sylvester

        def perturbed(*args):
            sol = solve(*args)
            return dataclasses.replace(sol, W=sol.W + 1.0)

        monkeypatch.setattr(observer, "solve_constrained_sylvester", perturbed)
        with pytest.raises(np.linalg.LinAlgError, match="^recombination matrix failed verification$"):
            synthesize_observer(worked_plant(), [-1.0])

    @pytest.mark.parametrize("name, shape, expected", [
        ("F", (2, 3), (2, 2)),
        ("G", (1, 1), (2, 1)),
        ("P", (1, 1), (2, 1)),
        ("T", (2, 2), (2, 3)),
        ("W", (2, 3), (3, 3)),
    ], ids=["F", "G", "P", "T", "W"])
    def test_observer_shapes_checked_when_built(self, name, shape, expected):
        # an order-2 observer of a 3-state plant with one output and one input
        good = dict(F=-np.eye(2), G=np.ones((2, 1)), P=np.ones((2, 1)), T=np.ones((2, 3)),
                    W=np.eye(3))
        assert ReducedObserver(**good).n == 3
        with pytest.raises(ValueError, match=re.escape(f"observer {name} must have shape {expected}")):
            ReducedObserver(**{**good, name: np.ones(shape)})
        with pytest.raises(ValueError, match="2-D"):
            ReducedObserver(**{**good, name: np.ones(3)})

    @pytest.mark.parametrize("name", "FGPTW")
    @pytest.mark.parametrize("bad, message", [
        (math.nan, "must have finite entries"),
        (math.inf, "must have finite entries"),
        (1j, "must be a real matrix: complex entries"),
        (0j, "must be a real matrix: complex entries"),
    ], ids=["nan", "inf", "complex", "zero-imaginary"])
    @pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
    def test_observer_entries_checked_when_built(self, name, bad, message, as_list):
        # each matrix passes as_matrix once, so a simulation or the metrics
        # never meet a NaN, an inf or a truncated complex entry
        good = dict(F=-np.eye(2), G=np.ones((2, 1)), P=np.ones((2, 1)), T=np.ones((2, 3)),
                    W=np.eye(3))
        M = good[name] + np.zeros((), dtype=type(bad))
        M[-1, -1] = bad
        with pytest.raises(ValueError, match=re.escape(f"observer {name} {message}")):
            ReducedObserver(**{**good, name: M.tolist() if as_list else M})

    def test_observer_arrays_read_only(self):
        # lists become float arrays, and a float64 array is shared but not
        # written, as in Plant
        F = -np.eye(2)
        obs = ReducedObserver(F=F, G=[[1.0], [1.0]], P=[[1], [1]], T=np.ones((2, 3)).tolist(),
                              W=np.eye(3))
        assert obs.order == 2 and obs.n == 3 and obs.p == 1 and obs.m == 1
        assert np.shares_memory(obs.F, F) and F.flags.writeable
        for M in (obs.F, obs.G, obs.P, obs.T, obs.W):
            assert M.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                M[0, 0] = 1.0

    def test_complex_plant_rejected(self):
        # numpy's cast would keep the real part: a plant of it is refused
        for name, M in (("A", np.diag([1.0 + 5j, -1.0])), ("B", np.ones((2, 1)) + 0j),
                        ("C", np.array([[0.0 + 0j, 1.0]]))):
            abc = {"A": np.diag([1.0, -1.0]), "B": np.ones((2, 1)), "C": [[0.0, 1.0]], name: M}
            with pytest.raises(ValueError, match=f"^{name} must be a real matrix: complex"):
                Plant(**abc)


class TestEstimation:
    def test_consistent_data_recovers_state(self):
        obs = worked_observer()
        plant = worked_plant()
        rng = np.random.default_rng(41)
        for _ in range(100):
            x = rng.standard_normal(2)
            xhat = obs.estimate_state(plant.C @ x, obs.T @ x)
            assert_allclose(xhat, x, atol=1e-12)

    def test_worked_values(self):
        obs = worked_observer()
        assert_allclose(obs.estimate_state([2.0], [3.0]), [2.0, 5.0], atol=1e-12)
        assert_allclose(obs.estimate_state([0.0], [0.0]), [0.0, 0.0])

    def test_length_mismatch(self):
        obs = worked_observer()
        with pytest.raises(ValueError):
            obs.estimate_state([1.0, 2.0], [0.0])
        with pytest.raises(ValueError):
            obs.derivative([1.0, 2.0], [0.0], [0.0])

    def test_consistency_random_plants(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            p = int(rng.integers(1, n))
            A, C, _ = random_detectable_pair(rng, n, p)
            obs = synthesize_observer(Plant(A, rng.standard_normal((n, 2)), C))
            for _ in range(10):
                x = rng.standard_normal(n)
                assert_allclose(
                    obs.estimate_state(C @ x, obs.T @ x), x, atol=1e-7 * (1 + np.abs(x).max())
                )


class TestDerivative:
    def test_worked_values(self):
        obs = worked_observer()
        assert obs.derivative([1.0], [0.0], [0.0])[0] == pytest.approx(-1.0, abs=1e-12)
        assert obs.derivative([0.0], [1.0], [0.0])[0] == pytest.approx(-1.0, abs=1e-12)
        # F*1 + G*2 + P*3 = -1 - 2 + 3 = 0
        assert obs.derivative([1.0], [2.0], [3.0])[0] == pytest.approx(0.0, abs=1e-12)

    def test_algebraic_error_dynamics(self):
        # d/dt(z - T x) = F (z - T x) pointwise, without integration
        rng = np.random.default_rng(43)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            p = int(rng.integers(1, n))
            m = int(rng.integers(1, 3))
            A, C, _ = random_detectable_pair(rng, n, p)
            B = rng.standard_normal((n, m))
            obs = synthesize_observer(Plant(A, B, C))
            scale = 1.0 + np.linalg.norm(A)
            for _ in range(10):
                x = rng.standard_normal(n)
                z = rng.standard_normal(obs.order)
                u = rng.standard_normal(m)
                lhs = obs.derivative(z, C @ x, u) - obs.T @ (A @ x + B @ u)
                rhs = obs.F @ (z - obs.T @ x)
                assert np.linalg.norm(lhs - rhs) <= 1e-7 * scale


class TestOrderZero:
    def test_full_measurement_observer(self):
        A = np.diag([-1.0, 2.0])
        C = np.array([[2.0, 0.0], [0.0, 1.0]])
        obs = synthesize_observer(Plant(A, np.ones((2, 1)), C))
        assert obs.order == 0
        assert_allclose(obs.W, np.linalg.inv(C), atol=1e-12)
        x = np.array([0.3, -0.7])
        assert_allclose(obs.estimate_state(C @ x, np.zeros(0)), x, atol=1e-12)

    def test_manual_construction(self):
        obs = ReducedObserver(
            F=np.zeros((0, 0)),
            G=np.zeros((0, 2)),
            P=np.zeros((0, 1)),
            T=np.zeros((0, 2)),
            W=np.eye(2),
        )
        assert obs.order == 0 and obs.n == 2 and obs.p == 2
