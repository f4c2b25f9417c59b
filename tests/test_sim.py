import dataclasses
import io
import itertools
import math
import os
import re
import stat
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from sylvobs import (
    ConstantInput,
    Plant,
    ReducedObserver,
    SimulationConfig,
    SinusoidInput,
    check_detectability,
    error_metrics,
    simulate,
    synthesize_observer,
    write_trace_csv,
)
from sylvobs.simulate import _BLOCK, _CSV_VALUES, SimulationTrace, _format_g17, _summarize

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


def unstable_setup():
    """The seeded n = 8, p = 2 plant shifted by +I, and its observer.

    ``stable_matrix`` puts the spectral abscissa at -0.5, so the shifted
    plant's is +0.5.
    """
    plant, _ = random_stable_setup(72, 8, 2, m=2)
    plant = Plant(plant.A + np.eye(plant.n), plant.B, plant.C)
    return plant, synthesize_observer(plant)


def stored_observer_setup(seed, n, p, m=2):
    """A seeded stable plant of order n with p outputs and m inputs, and a
    stored observer with F = -I: the coupled order is N = 2n - p."""
    rng = np.random.default_rng(seed)
    A = stable_matrix(rng, n)
    B, C = rng.standard_normal((n, m)), rng.standard_normal((p, n))
    q = n - p
    T = rng.standard_normal((q, n))
    obs = ReducedObserver(F=-np.eye(q), G=rng.standard_normal((q, p)), P=T @ B, T=T,
                          W=np.linalg.inv(np.vstack([C, T])))
    return Plant(A, B, C), obs


# runs that end inside a group of 16 steps: 53 = 3 groups and 5 steps, inside
# the first super-group of 64; 181 = 2 super-groups, 3 groups and 5 steps,
# alone and after a whole block
EDGE_STEPS = (53, 181, _BLOCK + 181)

# (setup, steps, input) against textbook RK4: the seeded n = 8 plant with each
# input over partial and whole blocks, groups and super-groups, then the
# n = 32 plant (N = 60) and the unstable plant over three blocks, and a stored
# observer at n = 96 (N = 180)
TEXTBOOK_SIGNALS = {
    "zero": None,
    "constant": ConstantInput([0.7, -0.2]),
    "sinusoid": SinusoidInput([1.0, 0.5], 3.0, 0.4),
}
TEXTBOOK_CASES = [
    pytest.param(lambda: random_stable_setup(72, 8, 2, m=2), steps, signal, id=f"{name}-{steps}")
    for steps in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3)
    for name, signal in TEXTBOOK_SIGNALS.items()
] + [
    pytest.param(BITWISE_SETUPS["seeded-n32-p4"], 2 * _BLOCK + 3, SinusoidInput([1.0], 3.0, 0.4),
                 id=f"seeded-n32-p4-sinusoid-{2 * _BLOCK + 3}"),
    pytest.param(unstable_setup, 2 * _BLOCK + 3, TEXTBOOK_SIGNALS["sinusoid"],
                 id=f"unstable-n8-p2-sinusoid-{2 * _BLOCK + 3}"),
] + [
    pytest.param(lambda: random_stable_setup(72, 8, 2, m=2), steps, signal, id=f"{name}-{steps}")
    for steps in EDGE_STEPS
    for name, signal in TEXTBOOK_SIGNALS.items()
] + [
    pytest.param(lambda: stored_observer_setup(74, 96, 12), steps, TEXTBOOK_SIGNALS["sinusoid"],
                 id=f"stored-n96-p12-sinusoid-{steps}")
    for steps in EDGE_STEPS
]


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

    @pytest.mark.parametrize(("setup", "steps", "signal"), TEXTBOOK_CASES)
    def test_matches_textbook_rk4(self, setup, steps, signal):
        plant, obs = setup()
        rng = np.random.default_rng(73)
        x0, z0 = rng.standard_normal(plant.n), rng.standard_normal(obs.order)
        cfg = SimulationConfig(t_final=steps * 1e-3, dt=1e-3, input_signal=signal)
        trace = simulate(plant, obs, x0, z0, cfg)
        x_ref, z_ref = textbook_rk4(plant, obs, x0, z0, cfg)
        assert trace.times.size == steps + 1
        assert np.linalg.norm(trace.x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
        assert np.linalg.norm(trace.z - z_ref) <= 1e-12 * np.linalg.norm(z_ref)

    @pytest.mark.parametrize("steps", [1, _BLOCK, 2 * _BLOCK + 3, *EDGE_STEPS])
    def test_input_evaluated_once_per_distinct_time(self, steps):
        plant, obs = random_stable_setup(72, 8, 2, m=2)
        u = CountingInput(2)
        cfg = SimulationConfig(t_final=steps * 1e-3, dt=1e-3, input_signal=u)
        simulate(plant, obs, np.ones(8), np.zeros(obs.order), cfg)
        # u(0.0) checks the input's width; then t + dt/2 and t + dt per step
        assert u.calls == 2 * steps + 1

    def test_stiff_observer_step_rejected(self):
        # R(-5) = 13.7: the -5000 mode would grow 13.7x per step at dt = 1e-3
        plant, _ = worked_setup()
        obs = synthesize_observer(plant, [-5000.0])
        with pytest.raises(ValueError, match=r"-5000.*dt = 0\.001|dt = 0\.001.*-5000"):
            simulate(plant, obs, [0.0, 0.0], [1.0], SimulationConfig(t_final=1.0, dt=1e-3))
        trace = simulate(plant, obs, [0.0, 0.0], [1.0], SimulationConfig(t_final=0.01, dt=1e-4))
        assert np.all(np.isfinite(trace.e))

    @pytest.mark.parametrize(("A", "F", "named"), [
        (np.diag([-1e200, -1.0]), [[-1.0]], "plant eigenvalue -1e+200"),
        (np.diag([-1.0, -2.0]), [[-1e200]], "observer eigenvalue -1e+200"),
        (np.array([[0.0, 1e60], [-1e60, 0.0]]), [[-1.0]], "plant eigenvalue 0+1e+60j"),
    ])
    def test_overflowing_step_gain_rejected(self, A, F, named):
        # |R(dt lam)|^2 - 1 overflows for |dt lam| above about 1e77, or 1e51
        # on the imaginary axis; such a mode is far outside the region.  A
        # stored observer, since synthesis at these scales overflows too
        plant = Plant(A, np.ones((2, 1)), np.array([[0.0, 1.0]]))
        obs = ReducedObserver(F=np.array(F), G=np.ones((1, 1)), P=np.ones((1, 1)),
                              T=np.array([[1.0, 0.0]]), W=np.eye(2))
        with pytest.raises(ValueError, match=re.escape(f"{named}: |R(dt * lam)| = inf >= 1")):
            simulate(plant, obs, [1.0, 0.0], [0.0], SimulationConfig(t_final=0.01))

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

    def test_undamped_fast_mode_rejected(self):
        # |R(5i)| = 21.5 at dt = 1e-3: without the check the trace is NaN
        A = np.array([[0.0, 5000.0], [-5000.0, 0.0]])
        plant = Plant(A, np.array([[0.0], [1.0]]), np.array([[1.0, 0.0]]))
        obs = synthesize_observer(plant)
        with pytest.raises(ValueError, match=r"5000j.*\|R\(dt \* lam\)\| = 21\.49"):
            simulate(plant, obs, [1.0, 0.0], [1.0], SimulationConfig(t_final=1.0, dt=1e-3))
        trace = simulate(plant, obs, [1.0, 0.0], [1.0], SimulationConfig(t_final=1e-2, dt=1e-4))
        assert np.all(np.isfinite(trace.x))

    @pytest.mark.parametrize("dt", [1e-3, 1e-5, 1e-7])
    def test_marginal_modes_within_region_pass(self, dt):
        # lam = 0, slow oscillators, and an oscillator just inside the axis
        # bound |dt Im lam| < 2 sqrt(2), with round-off real parts of either sign
        C = np.array([[1.0, 0.0]])
        for A in (
            np.array([[0.0, 1.0], [0.0, 0.0]]),
            np.array([[0.0, 1.0], [-1.0, 0.0]]),
            np.array([[1e-15, 1.0], [-1.0, 1e-15]]),
            np.array([[0.0, 2.8 / dt], [-2.8 / dt, 0.0]]),
        ):
            plant = Plant(A, np.ones((2, 1)), C)
            obs = synthesize_observer(plant, [-1.0])
            trace = simulate(plant, obs, [1.0, 0.0], [0.0], SimulationConfig(t_final=10 * dt, dt=dt))
            assert np.all(np.isfinite(trace.x))

    def test_unstable_modes_not_checked(self):
        # growth of an unstable mode is the plant's own, whatever the step
        plant = Plant(np.array([[3000.0]]), np.ones((1, 1)), np.ones((1, 1)))
        obs = synthesize_observer(plant)
        trace = simulate(plant, obs, [1.0], [], SimulationConfig(t_final=5e-3, dt=1e-3))
        assert np.all(np.diff(trace.x[:, 0]) > 0.0)

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

    @pytest.mark.parametrize(
        ("t_final", "dt", "message"),
        [
            (math.inf, 1e-3, "finite"),
            (1.0, math.nan, "finite"),
            (math.inf, math.inf, "finite"),
            (1e300, 1e-300, "do not fit"),
            (1e20, 1e-3, "do not fit"),
        ],
    )
    def test_unusable_horizon_rejected(self, t_final, dt, message):
        # round(inf) raised OverflowError, which callers do not expect
        cfg = SimulationConfig(t_final=t_final, dt=dt)
        with pytest.raises(ValueError, match=message):
            cfg.step_count()
        plant, obs = worked_setup()
        with pytest.raises(ValueError, match=message):
            simulate(plant, obs, [0.0, 0.0], [1.0], cfg)

    def test_dimension_validation(self):
        plant, obs = worked_setup()
        with pytest.raises(ValueError):
            simulate(plant, obs, [0.0], [1.0], SimulationConfig())
        with pytest.raises(ValueError):
            simulate(plant, obs, [0.0, 0.0], [1.0, 2.0], SimulationConfig())
        bad_input = SimulationConfig(input_signal=ConstantInput([1.0, 2.0]))
        with pytest.raises(ValueError):
            simulate(plant, obs, [0.0, 0.0], [1.0], bad_input)

    @pytest.mark.parametrize(("n", "p"), [(2, 1), (8, 2), (32, 4)])
    def test_error_matches_expm_oracle(self, n, p):
        # e(t) = expm(F t) e(0) at 16 evenly spaced samples; the solve's
        # residual R = T A - F T - G C forces de/dt = F e - R x, which adds
        # max ||expm(F t)|| ||R|| int ||x|| dt to the integrator tolerance
        expm = pytest.importorskip("scipy.linalg").expm
        plant, obs = random_stable_setup(76 + n, n, p)
        rng = np.random.default_rng(77)
        x0, z0 = rng.standard_normal(n), rng.standard_normal(obs.order)
        cfg = SimulationConfig(t_final=5.0, dt=1e-3, input_signal=SinusoidInput([1.0], 2.0))
        trace = simulate(plant, obs, x0, z0, cfg)
        e0 = z0 - obs.T @ x0
        picks = np.linspace(0, trace.times.size - 1, 16).round().astype(int)
        flows = [expm(obs.F * trace.times[k]) for k in picks]
        growth = max([1.0] + [np.linalg.norm(E, 2) for E in flows])
        residual = np.linalg.norm(obs.T @ plant.A - obs.F @ obs.T - obs.G @ plant.C, 2)
        xn = np.linalg.norm(trace.x, axis=1)
        x_integral = np.concatenate([[0.0], np.cumsum(0.5 * (xn[1:] + xn[:-1]) * cfg.dt)])
        for k, E in zip(picks, flows):
            allowed = 1e-6 * (1.0 + np.linalg.norm(e0)) + growth * residual * x_integral[k]
            assert np.linalg.norm(trace.e[k] - E @ e0) <= allowed

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


class ShiftedSinusoid(SinusoidInput):
    """A subclass with its own ``__call__``, which must be called per time."""

    def __call__(self, t):
        return super().__call__(t) + 1.0


class TestInputGrid:
    """``ConstantInput`` and ``SinusoidInput`` fill each block's inputs in one
    pass; every other callable is called per input time."""

    STEPS = 2 * _BLOCK + 3  # two block boundaries and a partial block

    def run(self, signal, csv):
        """The trace of ``signal`` on the seeded two-input plant, and the
        CSV that ``sylvobs simulate`` streams of it, written to ``csv``."""
        plant, obs = random_stable_setup(72, 8, 2, m=2)
        x0, z0 = np.linspace(1.0, -1.0, plant.n), np.full(obs.order, 0.3)
        cfg = SimulationConfig(t_final=self.STEPS * 1e-3, dt=1e-3, input_signal=signal)
        trace = simulate(plant, obs, x0, z0, cfg)
        _summarize(plant, obs, x0, z0, cfg, str(csv))
        return trace, csv.read_bytes()

    @pytest.mark.parametrize("signal", [
        SinusoidInput([1.0, 0.5], 3.0, 0.4),
        ConstantInput([0.7, -0.2]),
        None,
        ShiftedSinusoid([1.0, 0.5], 3.0, 0.4),
    ], ids=["sinusoid", "constant", "zero", "subclass"])
    def test_grid_is_the_per_call_path_bit_for_bit(self, tmp_path, signal):
        per_call = (lambda t: np.zeros(2)) if signal is None else (lambda t, s=signal: s(t))
        grid_trace, grid_csv = self.run(signal, tmp_path / "grid.csv")
        call_trace, call_csv = self.run(per_call, tmp_path / "call.csv")
        assert grid_trace.times.size == self.STEPS + 1
        for field in ("times", "x", "z", "e", "xhat", "e_norms"):
            assert getattr(grid_trace, field).tobytes() == getattr(call_trace, field).tobytes()
        assert grid_csv == call_csv

    def test_library_inputs_evaluated_per_block(self, monkeypatch, tmp_path):
        calls = Counter()

        def counted(name, method):
            def wrapper(*args):
                calls[name] += 1
                return method(*args)
            return wrapper

        for cls in (ConstantInput, SinusoidInput):
            for method in ("__call__", "_fill"):
                name = f"{cls.__name__}.{method}"
                monkeypatch.setattr(cls, method, counted(name, getattr(cls, method)))
        blocks = -(-self.STEPS // _BLOCK)
        # a call of u(0.0) checks the input's width; then one fill per block
        for signal, name in ((SinusoidInput([1.0, 0.5], 3.0, 0.4), "SinusoidInput"),
                             (ConstantInput([0.7, -0.2]), "ConstantInput"),
                             (None, "ConstantInput")):
            calls.clear()
            self.run(signal, tmp_path / "trace.csv")
            assert calls == {f"{name}.__call__": 2, f"{name}._fill": 2 * blocks}

    @pytest.mark.parametrize("field", ["frequency", "phase"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_sinusoid_parameter_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            SinusoidInput([1.0], **{field: value})

    def test_angle_overflow_named(self):
        # 1e308 * t is finite up to t = 1.7975 and inf from the next input
        # time on, on the grid and per call alike
        plant, obs = worked_setup()
        u = SinusoidInput([1.0], 1e308)
        for signal in (u, lambda t: u(t)):
            cfg = SimulationConfig(t_final=10.0, dt=1e-3, input_signal=signal)
            with pytest.raises(ValueError, match=r"phase overflows at t = 1\.798 "):
                simulate(plant, obs, [0.0, 0.0], [1.0], cfg)


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

    def test_writer_memory_does_not_grow_with_the_trace(self, tmp_path):
        # the writer formats every block in one scratch of 186 bytes per value
        # of a kernel call, and holds one block's text (at most 25 bytes per
        # value) at a time, whatever the trace length
        rng = np.random.default_rng(94)
        n, q = 8, 6
        peaks = []
        for rows in (4000, 40000):
            trace = SimulationTrace(
                times=np.arange(rows) * 1e-3, x=rng.standard_normal((rows, n)),
                z=rng.standard_normal((rows, q)), e=rng.standard_normal((rows, q)),
                xhat=rng.standard_normal((rows, n)), e_norms=rng.random(rows))
            path = tmp_path / "trace.csv"
            write_trace_csv(trace, str(path))
            tracemalloc.start()
            try:
                write_trace_csv(trace, str(path))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 16384
        assert max(peaks) < (186 + 25) * _CSV_VALUES + 65536
        assert path.stat().st_size > 10 * peaks[1]

    def test_streamed_run_memory_does_not_grow_with_the_horizon(self, tmp_path):
        # sylvobs simulate --csv holds a window of _BLOCK + 1 samples and one
        # writer, never the trace
        plant, obs = random_stable_setup(96, 16, 2)
        x0, z0 = np.ones(16), np.zeros(obs.order)
        path = tmp_path / "trace.csv"

        def run(t_final):
            cfg = SimulationConfig(t_final=t_final, dt=1e-3, input_signal=SinusoidInput([0.5]))
            _summarize(plant, obs, x0, z0, cfg, csv=str(path))

        run(2.0)
        peaks, lines = [], []
        for t_final in (2.0, 20.0):
            tracemalloc.start()
            try:
                run(t_final)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            with open(path, "rb") as fh:
                lines.append(sum(1 for _ in fh))
        assert peaks[1] <= peaks[0] + 65536
        # the header and the initial sample, then 2000 and 20000 steps
        assert lines == [2 + 2000, 2 + 20000]

    def test_kernel_calls_span_blocks(self, tmp_path, monkeypatch):
        # n = 32, p = 4: 122 columns, 67 rows a kernel call.  The rows left at
        # the end of a block of the run go into the next block's call, so the
        # 10,001 rows take 150 calls, not one short call per block (157)
        sim = sys.modules["sylvobs.simulate"]  # the package's simulate is the function
        plant, obs = random_stable_setup(71, 32, 4)
        x0, z0 = np.ones(32), np.zeros(obs.order)
        cfg = SimulationConfig(t_final=10.0, dt=1e-3, input_signal=SinusoidInput([0.5]))
        calls = []
        format_block = sim._format_block

        def counted(s, rows):
            calls.append((s.rows, rows))
            return format_block(s, rows)

        monkeypatch.setattr(sim, "_format_block", counted)
        path = tmp_path / "trace.csv"
        _summarize(plant, obs, x0, z0, cfg, csv=str(path))
        per_call = calls[0][0]
        assert per_call == 67
        assert len(calls) == math.ceil(10001 / per_call) == 150
        assert all(rows == per_call for _, rows in calls[:-1])
        # the whole trace takes the same calls as the streamed run's blocks
        streamed = calls[:]
        calls.clear()
        buf = io.StringIO()
        write_trace_csv(simulate(plant, obs, x0, z0, cfg), buf)
        assert calls == streamed
        assert path.read_bytes() == buf.getvalue().encode("ascii")

    @staticmethod
    def worked_trace():
        """The worked plant's 3001-row trace: its CSV takes three kernel
        calls, two of 1024 rows and one of 953."""
        plant, obs = worked_setup()
        return simulate(plant, obs, [0.0, 0.0], [1.0], SimulationConfig(t_final=3.0, dt=1e-3))

    def test_short_trace_rejected_before_writing(self, tmp_path):
        # e one row short: the error names it before any byte is written
        trace = self.worked_trace()
        short = dataclasses.replace(trace, e=trace.e[:-1])
        buf = io.StringIO()
        message = "trace e must have shape (3001, 1), got (3000, 1)"
        with pytest.raises(ValueError, match=re.escape(message)):
            write_trace_csv(short, buf)
        assert buf.getvalue() == ""
        path = tmp_path / "trace.csv"
        with pytest.raises(ValueError, match=re.escape(message)):
            write_trace_csv(short, str(path))
        assert not path.exists()

    @pytest.fixture
    def failing_trace(self, monkeypatch):
        """``worked_trace``, whose CSV fails at the last rows, after the header
        and two kernel calls of 1024 rows were written: every write's third
        call raises."""
        sim = sys.modules["sylvobs.simulate"]  # the package's simulate is the function
        trace = self.worked_trace()
        calls = itertools.count()
        format_block = sim._format_block

        def fail_third(s, rows):
            if next(calls) % 3 == 2:
                raise ValueError("the third kernel call fails")
            return format_block(s, rows)

        monkeypatch.setattr(sim, "_format_block", fail_third)
        return trace

    def test_failed_write_leaves_no_file(self, tmp_path, failing_trace):
        buf = io.StringIO()
        with pytest.raises(ValueError, match="third kernel call"):
            write_trace_csv(failing_trace, buf)
        assert buf.getvalue().count("\n") == 1 + 2 * 1024
        path = tmp_path / "trace.csv"
        with pytest.raises(ValueError, match="third kernel call"):
            write_trace_csv(failing_trace, str(path))
        assert not path.exists()

    def test_failed_write_keeps_a_link_and_its_target(self, tmp_path, failing_trace):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"")
        link.symlink_to(target)
        with pytest.raises(ValueError, match="third kernel call"):
            write_trace_csv(failing_trace, str(link))
        assert link.is_symlink() and target.read_bytes().startswith(b"t,x_1,")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    def test_failed_write_keeps_a_fifo(self, tmp_path, failing_trace):
        fifo = tmp_path / "trace.fifo"
        os.mkfifo(fifo)
        read = []
        reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()), daemon=True)
        reader.start()
        with pytest.raises(ValueError, match="third kernel call"):
            write_trace_csv(failing_trace, str(fifo))
        reader.join(30)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode) and read[0].startswith(b"t,x_1,")

    def test_failed_write_keeps_a_device(self, monkeypatch, failing_trace):
        # os.remove is replaced, so a faulty check could not remove the device
        removed = []
        monkeypatch.setattr(os, "remove", removed.append)
        with pytest.raises(ValueError, match="third kernel call"):
            write_trace_csv(failing_trace, os.devnull)
        assert removed == []

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


class TestFormatG17:
    """The CSV writer's kernel against ``"{:.17g}".format``, value by value."""

    @staticmethod
    def per_value_rows(values):
        return "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in values.tolist())

    def assert_formats(self, values, cols=4):
        values = np.asarray(values, dtype=float).ravel()
        values = np.concatenate([values, np.full(-values.size % cols, 0.5)]).reshape(-1, cols)
        got, expected = _format_g17(values), self.per_value_rows(values)
        # line by line first, so a mismatch reports one short line
        for i, (a, b) in enumerate(zip(got.split("\n"), expected.split("\n"))):
            assert (i, a) == (i, b)
        assert got == expected

    @staticmethod
    def with_neighbours(values):
        values = np.asarray(values, dtype=float)
        out = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
        return np.concatenate([out, -out])

    def test_powers_of_ten_and_neighbours(self):
        self.assert_formats(self.with_neighbours([float(f"1e{e}") for e in range(-323, 309)]))

    def test_powers_of_two_and_neighbours(self):
        # every binary exponent, so every first guess of the decimal exponent
        self.assert_formats(self.with_neighbours(2.0 ** np.arange(-1074, 1024)))
        self.assert_formats(self.with_neighbours((2.0**53 - 1) * 2.0 ** np.arange(-1074, 971)))

    def test_layout_switches(self):
        # %g writes k = floor(log10 |x|) in fixed notation for -4 <= k < 17
        edges = [1e-5, 1e-4, 1.0, 1e15, 1e16, 1e17]
        steps = np.linspace(-3, 3, 61)
        self.assert_formats(self.with_neighbours([e * (1 + s * 1e-16) for e in edges for s in steps]))
        self.assert_formats([0.5e-4, 0.25e-4, 1.5e-5, 99999.5e-9, 123456789012345.67, 2.5e16])

    def test_nines_below_a_power_of_ten(self):
        # the double nearest 99999999999999999 is 1e17.  Only the double just
        # below a power of ten could round up to it, and
        # test_powers_of_ten_and_neighbours covers each of those
        assert _format_g17(np.array([[99999999999999999.0]])) == "1e+17\n"
        nines = [float("9" * d + "e" + str(e)) for d in range(15, 20) for e in range(-25, 20)]
        self.assert_formats(self.with_neighbours(nines))

    def test_exact_ties_round_half_to_even(self):
        # 2^-25 = 2.98023223876953125e-08 exactly: 18 digits ending in 5
        assert _format_g17(np.array([[2.0**-25]])) == "2.9802322387695312e-08\n"
        rng = np.random.default_rng(91)
        odd = rng.integers(2**52, 2**53, 400) | 1
        self.assert_formats([float(m) * 2.0**e for m in odd for e in range(-40, 8, 3)])

    def test_signed_zero_inf_and_nan(self):
        signed_nan = -np.array([np.nan])
        assert np.signbit(signed_nan[0])
        values = np.array([[0.0, -0.0, np.inf, -np.inf, np.nan, signed_nan[0]]])
        assert _format_g17(values) == "0,-0,inf,-inf,nan,nan\n"
        self.assert_formats(values)

    def test_extremes_and_random_bit_patterns(self):
        tiny, huge = 5e-324, np.finfo(float).max
        assert _format_g17(np.array([[tiny, huge]])) == (
            "4.9406564584124654e-324,1.7976931348623157e+308\n"
        )
        self.assert_formats([tiny, -tiny, huge, -huge, np.finfo(float).tiny, 2.0**-36, 2.0**57])
        rng = np.random.default_rng(92)
        self.assert_formats(rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64))
        self.assert_formats(rng.standard_normal(20000) * 10.0 ** rng.uniform(-12, 18, 20000))

    def test_one_column_and_one_row_blocks(self):
        values = np.random.default_rng(93).standard_normal(50) * 1e3
        for block in (values[:, None], values[None, :]):
            assert _format_g17(block) == self.per_value_rows(block)

    def test_every_layout_code(self):
        # every decimal exponent k of the kernel's range, every count nd of
        # significant digits and both signs: for each (k, nd), decimal
        # strings are tried until the 17 digits of the nearest double are the
        # string's own
        rng = np.random.default_rng(95)
        values, missing = [], []
        for k, nd in itertools.product(range(-11, 18), range(1, 18)):
            draws = range(1, 10) if nd == 1 else (
                rng.integers(10 ** (nd - 2), 10 ** (nd - 1)) * 10 + rng.integers(1, 10)
                for _ in range(200))
            for digits in map(str, draws):
                value = float(f"{digits[0]}.{digits[1:]}e{k}")
                own = f"{digits[0]}.{digits[1:]:0<16}e{k:+03d}"
                # the kernel's range ends at 2^57, about 1.44e17
                if value < 2**57 and format(value, ".16e") == own:
                    values.append(value)
                    break
            else:
                missing.append((k, nd))
        # no double has 17 digits of one nonzero digit and zeros at 10^-7 .. 10^-5
        assert missing == [(-7, 1), (-6, 1), (-5, 1)]
        values = np.array(values)
        # each value in the middle and at the end of a row
        signed = np.concatenate([values, -values])
        self.assert_formats(np.stack([signed, signed], axis=1), cols=2)
        reached = {"fixed >= 1": set(), "fixed < 1": set(), "exponent": set()}
        for text in map("{:.17g}".format, values.tolist()):
            mantissa, exponent = (text.split("e") + [""])[:2]
            notation = "exponent" if exponent else (
                "fixed < 1" if mantissa.startswith("0.") else "fixed >= 1")
            reached[notation].add(len(mantissa.replace(".", "").strip("0")))
        assert reached == {notation: set(range(1, 18)) for notation in reached}

    def test_blocks_at_the_edges_of_a_kernel_call(self):
        rng = np.random.default_rng(96)
        # a row wider than a call's values is one row per call
        wide = rng.standard_normal((3, _CSV_VALUES + 5))
        assert _format_g17(wide) == self.per_value_rows(wide)
        # a last call of fewer rows than the others
        tall = rng.standard_normal((3 * (_CSV_VALUES // 7) + 5, 7)) * 1e3
        assert _format_g17(tall) == self.per_value_rows(tall)

    def test_tables_built_on_first_use(self):
        # a process that writes no CSV holds no table of the kernel
        check = ("import sys, sylvobs.cli; "
                 "assert sys.modules['sylvobs.simulate']._tables.cache_info().currsize == 0")
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        subprocess.run([sys.executable, "-c", check], check=True, env=env)

    def test_zero_row_trace(self):
        assert _format_g17(np.empty((0, 3))) == ""
        n, q = 2, 1
        trace = SimulationTrace(times=np.empty(0), x=np.empty((0, n)), z=np.empty((0, q)),
                                e=np.empty((0, q)), xhat=np.empty((0, n)), e_norms=np.empty(0))
        buf = io.StringIO()
        write_trace_csv(trace, buf)
        assert buf.getvalue() == "t,x_1,x_2,z_1,e_1,xhat_1,xhat_2,e_norm\n"
        with pytest.raises(ValueError, match="^trace is empty$"):
            error_metrics(trace)

    def test_any_float_block(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis.extra.numpy import arrays

        shapes = hypothesis.strategies.tuples(
            hypothesis.strategies.integers(0, 6), hypothesis.strategies.integers(1, 6)
        )

        @hypothesis.settings(derandomize=True, max_examples=300, database=None, deadline=None)
        @hypothesis.given(arrays(np.float64, shapes))
        def formats_like_str_format(block):
            assert _format_g17(block) == self.per_value_rows(block)

        formats_like_str_format()
