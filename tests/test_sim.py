import io
import math

import numpy as np
import pytest

from sylvobs import (
    ConstantInput,
    Plant,
    SimulationConfig,
    SinusoidInput,
    check_detectability,
    error_metrics,
    simulate,
    synthesize_observer,
    write_trace_csv,
)
from sylvobs.simulate import _BLOCK

from tests.conftest import stable_matrix


def worked_setup():
    plant = Plant(
        A=np.array([[0.0, 1.0], [0.0, 0.0]]),
        B=np.array([[0.0], [1.0]]),
        C=np.array([[1.0, 0.0]]),
    )
    obs = synthesize_observer(plant, [-1.0])
    return plant, obs


def random_stable_setup(seed, n, p, m=1):
    """Stable plant of order n with p outputs and m inputs, and its observer."""
    rng = np.random.default_rng(seed)
    while True:
        A = stable_matrix(rng, n)
        C = rng.standard_normal((p, n))
        if check_detectability(A, C).detectable:
            break
    plant = Plant(A, rng.standard_normal((n, m)), C)
    return plant, synthesize_observer(plant)


# the worked 2x2 plant, and a stable n = 32, p = 4 plant over more than one block
BITWISE_SETUPS = {"worked-n2": worked_setup, "seeded-n32-p4": lambda: random_stable_setup(71, 32, 4)}
BITWISE_CFG = dict(t_final=(_BLOCK + 100) * 1e-3, dt=1e-3)


def textbook_rk4(plant, obs, x0, z0, cfg):
    """Classical four-stage RK4 on the coupled [x; z] system, one step at a time."""
    n = plant.n
    u = cfg.input_signal or (lambda t: np.zeros(plant.m))
    Abig = np.block([[plant.A, np.zeros((n, obs.order))], [obs.G @ plant.C, obs.F]])
    Bbig = np.vstack([plant.B, obs.P])

    def f(t, s):
        return Abig @ s + Bbig @ np.asarray(u(t), dtype=float)

    h = cfg.dt
    s = np.concatenate([x0, z0])
    states = [s]
    for i in range(cfg.step_count()):
        t = i * h
        k1 = f(t, s)
        k2 = f(t + 0.5 * h, s + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, s + 0.5 * h * k2)
        k4 = f(t + h, s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(s)
    states = np.array(states)
    return states[:, :n], states[:, n:]


class CountingInput:
    """u(t) = sin(t) on every channel, counting its calls."""

    def __init__(self, m):
        self.m = m
        self.calls = 0

    def __call__(self, t):
        self.calls += 1
        return np.full(self.m, math.sin(t))


def scalar_decay_deviation(dt, t_final=1.0):
    """|recorded ||e(t_final)|| - exp(-t_final)| for the worked observer."""
    plant, obs = worked_setup()
    cfg = SimulationConfig(t_final=t_final, dt=dt)
    trace = simulate(plant, obs, [0.0, 0.0], [1.0], cfg)
    return abs(trace.e_norms[-1] - math.exp(-t_final))


class TestSimulate:
    def test_zero_initial_error_stays_zero(self):
        plant, obs = worked_setup()
        x0 = np.array([1.0, -1.0])
        z0 = obs.T @ x0
        trace = simulate(plant, obs, x0, z0, SimulationConfig(t_final=2.0, dt=1e-3))
        assert trace.e_norms.max() <= 1e-9 * (1.0 + np.linalg.norm(x0))

    def test_scalar_closed_form(self):
        # e(t) = exp(F t) e(0) with scalar F = -1
        assert scalar_decay_deviation(1e-3, 1.0) <= 1e-6
        assert scalar_decay_deviation(1e-3, 5.0) <= 1e-5

    def test_input_independent_error(self):
        plant, obs = worked_setup()
        x0 = [0.5, -0.25]
        z0 = [1.0]
        cfg0 = SimulationConfig(t_final=5.0, dt=1e-3)
        cfg1 = SimulationConfig(
            t_final=5.0, dt=1e-3, input_signal=SinusoidInput([1.0])
        )
        t0 = simulate(plant, obs, x0, z0, cfg0)
        t1 = simulate(plant, obs, x0, z0, cfg1)
        assert np.max(np.abs(t0.e - t1.e)) <= 1e-9

    def test_rk4_order(self):
        # truncation must drop ~16x per halving; need dt coarse enough
        # that truncation dominates round-off
        d1 = scalar_decay_deviation(0.1)
        d2 = scalar_decay_deviation(0.05)
        assert d1 / d2 >= 10.0

    @pytest.mark.parametrize("setup", BITWISE_SETUPS.values(), ids=BITWISE_SETUPS.keys())
    def test_estimate_identity_bitwise(self, setup):
        plant, obs = setup()
        x0 = np.linspace(1.0, 0.0, plant.n)
        z0 = np.full(obs.order, 0.3)
        cfg = SimulationConfig(input_signal=ConstantInput([0.7]), **BITWISE_CFG)
        trace = simulate(plant, obs, x0, z0, cfg)
        assert trace.times.size > _BLOCK
        for i in range(trace.times.size):
            expected = obs.W @ np.concatenate([plant.C @ trace.x[i], trace.z[i]])
            assert np.array_equal(trace.xhat[i], expected)

    @pytest.mark.parametrize("setup", BITWISE_SETUPS.values(), ids=BITWISE_SETUPS.keys())
    def test_error_recomputed_from_states(self, setup):
        plant, obs = setup()
        x0 = np.linspace(0.2, 0.1, plant.n)
        z0 = np.full(obs.order, 0.9)
        trace = simulate(plant, obs, x0, z0, SimulationConfig(**BITWISE_CFG))
        assert trace.times.size > _BLOCK
        for i in range(trace.times.size):
            assert np.array_equal(trace.e[i], trace.z[i] - obs.T @ trace.x[i])

    @pytest.mark.parametrize("steps", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    @pytest.mark.parametrize(
        "signal",
        [None, ConstantInput([0.7, -0.2]), SinusoidInput([1.0, 0.5], 3.0, 0.4)],
        ids=["zero", "constant", "sinusoid"],
    )
    def test_matches_textbook_rk4(self, steps, signal):
        plant, obs = random_stable_setup(72, 8, 2, m=2)
        rng = np.random.default_rng(73)
        x0, z0 = rng.standard_normal(8), rng.standard_normal(obs.order)
        cfg = SimulationConfig(t_final=steps * 1e-3, dt=1e-3, input_signal=signal)
        trace = simulate(plant, obs, x0, z0, cfg)
        x_ref, z_ref = textbook_rk4(plant, obs, x0, z0, cfg)
        assert trace.times.size == steps + 1
        assert np.linalg.norm(trace.x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
        assert np.linalg.norm(trace.z - z_ref) <= 1e-12 * np.linalg.norm(z_ref)

    @pytest.mark.parametrize("steps", [1, _BLOCK, 2 * _BLOCK + 3])
    def test_input_evaluated_once_per_distinct_time(self, steps):
        plant, obs = random_stable_setup(72, 8, 2, m=2)
        u = CountingInput(2)
        cfg = SimulationConfig(t_final=steps * 1e-3, dt=1e-3, input_signal=u)
        simulate(plant, obs, np.ones(8), np.zeros(obs.order), cfg)
        assert u.calls <= 2 * steps + 2

    def test_stiff_observer_step_rejected(self):
        # R(-5) = 13.7: the -5000 mode would grow 13.7x per step at dt = 1e-3
        plant, _ = worked_setup()
        obs = synthesize_observer(plant, [-5000.0])
        with pytest.raises(ValueError, match=r"-5000.*dt = 0\.001|dt = 0\.001.*-5000"):
            simulate(plant, obs, [0.0, 0.0], [1.0], SimulationConfig(t_final=1.0, dt=1e-3))
        trace = simulate(plant, obs, [0.0, 0.0], [1.0], SimulationConfig(t_final=0.01, dt=1e-4))
        assert np.all(np.isfinite(trace.e))

    def test_slow_and_lightly_damped_modes_not_rejected(self):
        # |R(dt * lam)| rounds to 1 in floating point when |dt * lam| is
        # below eps, or for an oscillator with a round-off real part; neither
        # is a step outside the stability region
        C = np.array([[1.0, 0.0]])
        for A, dt in (
            (np.array([[-1e-15, 1.0], [-1.0, -1e-15]]), 1e-3),
            (np.array([[-1.0, 1.0], [0.0, -2.0]]), 1e-17),
        ):
            plant = Plant(A, np.ones((2, 1)), C)
            obs = synthesize_observer(plant, [-1.0])
            cfg = SimulationConfig(t_final=10 * dt, dt=dt)
            trace = simulate(plant, obs, [1.0, 0.0], [0.0], cfg)
            assert np.all(np.isfinite(trace.x))

    def test_trace_lengths(self):
        plant, obs = worked_setup()
        trace = simulate(plant, obs, [0.0, 0.0], [1.0], SimulationConfig(t_final=1.0, dt=0.25))
        assert trace.times.size == 5
        assert trace.x.shape == (5, 2)
        assert trace.z.shape == (5, 1)
        assert trace.e.shape == (5, 1)
        assert trace.xhat.shape == (5, 2)

    def test_config_validation(self):
        plant, obs = worked_setup()
        with pytest.raises(ValueError):
            simulate(plant, obs, [0.0, 0.0], [1.0], SimulationConfig(t_final=0.0))
        with pytest.raises(ValueError):
            simulate(plant, obs, [0.0, 0.0], [1.0], SimulationConfig(t_final=1.0, dt=2.0))
        with pytest.raises(ValueError):
            simulate(plant, obs, [0.0, 0.0], [1.0], SimulationConfig(dt=-1.0))

    def test_dimension_validation(self):
        plant, obs = worked_setup()
        with pytest.raises(ValueError):
            simulate(plant, obs, [0.0], [1.0], SimulationConfig())
        with pytest.raises(ValueError):
            simulate(plant, obs, [0.0, 0.0], [1.0, 2.0], SimulationConfig())
        bad_input = SimulationConfig(input_signal=ConstantInput([1.0, 2.0]))
        with pytest.raises(ValueError):
            simulate(plant, obs, [0.0, 0.0], [1.0], bad_input)

    def test_matrix_exponential_oracle(self):
        # free plant response x(t) = expm(A t) x0 via eigendecomposition,
        # an integration-free route; random A is diagonalizable a.s.
        rng = np.random.default_rng(70)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            A = rng.standard_normal((n, n)) - 1.5 * np.eye(n)
            C = rng.standard_normal((1, n))
            if not check_detectability(A, C).detectable:
                continue
            plant = Plant(A, rng.standard_normal((n, 1)), C)
            obs = synthesize_observer(plant)
            x0 = rng.standard_normal(n)
            z0 = rng.standard_normal(obs.order)
            trace = simulate(plant, obs, x0, z0, SimulationConfig(t_final=1.0, dt=1e-3))
            vals, vecs = np.linalg.eig(A)
            x_exact = (vecs @ np.diag(np.exp(vals)) @ np.linalg.solve(vecs, x0.astype(complex))).real
            assert np.linalg.norm(trace.x[-1] - x_exact) <= 1e-8 * (1.0 + np.linalg.norm(x_exact))


class TestMetrics:
    def test_zero_error_trace(self):
        plant, obs = worked_setup()
        x0 = np.array([1.0, -1.0])
        trace = simulate(plant, obs, x0, obs.T @ x0, SimulationConfig(t_final=1.0, dt=1e-3))
        metrics = error_metrics(trace)
        assert metrics["final_error_norm"] <= 1e-9
        assert np.isfinite(metrics["decay_ratio"])

    def test_scalar_decay_ratio(self):
        plant, obs = worked_setup()
        trace = simulate(plant, obs, [0.0, 0.0], [1.0], SimulationConfig(t_final=1.0, dt=1e-3))
        metrics = error_metrics(trace)
        assert metrics["decay_ratio"] == pytest.approx(math.exp(-1.0), abs=1e-6)
        # xhat - x = W [0; e], and W's z-column is the second unit vector
        assert metrics["estimate_final_error"] == pytest.approx(
            metrics["final_error_norm"], rel=1e-9
        )


class TestCsv:
    @staticmethod
    def per_value_text(trace):
        """The CSV text built one formatted value at a time."""
        n, q = trace.x.shape[1], trace.z.shape[1]
        header = ",".join(
            ["t"]
            + [f"x_{i + 1}" for i in range(n)]
            + [f"z_{i + 1}" for i in range(q)]
            + [f"e_{i + 1}" for i in range(q)]
            + [f"xhat_{i + 1}" for i in range(n)]
            + ["e_norm"]
        )
        rows = np.hstack(
            [trace.times[:, None], trace.x, trace.z, trace.e, trace.xhat, trace.e_norms[:, None]]
        )
        lines = [header] + [",".join(f"{v:.17g}" for v in row) for row in rows]
        return "\n".join(lines) + "\n"

    @staticmethod
    def assert_same_text(got, expected):
        # compare line by line first, so a mismatch reports one short line
        # instead of a diff of the whole trace
        for i, (a, b) in enumerate(zip(got.split("\n"), expected.split("\n"))):
            assert (i, a) == (i, b)
        assert got == expected

    def test_bytes_match_per_value_formatting(self, tmp_path):
        plant, obs = random_stable_setup(75, 6, 2)
        cfg = SimulationConfig(
            t_final=(2 * _BLOCK + 7) * 1e-3, dt=1e-3, input_signal=SinusoidInput([0.3])
        )
        trace = simulate(plant, obs, np.full(6, -0.4), np.full(obs.order, 2.0), cfg)
        assert trace.times.size > 2 * _BLOCK
        expected = self.per_value_text(trace)
        buf = io.StringIO()
        write_trace_csv(trace, buf)
        self.assert_same_text(buf.getvalue(), expected)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, str(path))
        self.assert_same_text(path.read_bytes().decode("utf-8"), expected)
        assert path.read_bytes() == expected.encode("utf-8")

    def test_header_and_shape(self):
        plant, obs = worked_setup()
        trace = simulate(plant, obs, [0.0, 0.0], [1.0], SimulationConfig(t_final=0.1, dt=0.05))
        buf = io.StringIO()
        write_trace_csv(trace, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,x_1,x_2,z_1,e_1,xhat_1,xhat_2,e_norm"
        assert len(lines) == 1 + trace.times.size

    def test_roundtrip_exact(self):
        plant, obs = worked_setup()
        cfg = SimulationConfig(t_final=0.2, dt=0.05, input_signal=SinusoidInput([0.3]))
        trace = simulate(plant, obs, [0.2, -0.1], [0.5], cfg)
        buf = io.StringIO()
        write_trace_csv(trace, buf)
        buf.seek(0)
        data = np.loadtxt(buf, delimiter=",", skiprows=1)
        stacked = np.hstack(
            [
                trace.times[:, None],
                trace.x,
                trace.z,
                trace.e,
                trace.xhat,
                trace.e_norms[:, None],
            ]
        )
        assert np.array_equal(data, stacked)
