"""Co-simulation of a plant and its reduced-order observer.

Plant and observer are integrated as one coupled system with state
[x; z] (classical fixed-step RK4), so the measurement y = C x seen by the
observer is never interpolated.  For this linear system one RK4 step is
an affine map, s_next = M s + W [u(t); u(t + dt/2); u(t + dt)]; M and W
are precomputed once by applying the four-stage step to identity columns,
so the input is evaluated twice per step (at t and t + dt/2; u(t + dt)
starts the next step) and the loop runs in blocks of rows.  The result is
the same RK4 method, with the same order, to round-off.

A step dt that puts a decaying or marginal mode of the plant or the
observer outside RK4's stability region (|R(dt lam)| >= 1, or > 1 on the
imaginary axis) would make the trace blow up to NaN; ``simulate`` rejects
it with a ``ValueError`` instead.

The recorded error e = z - T x is recomputed from the stored states at
every sample and, for a valid observer, follows e(t) = expm(F t) e(0) up
to integrator truncation.  The CSV writer streams the trace block by block.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .linalg import DEFAULTS, as_vector, eigenvalues

__all__ = [
    "ConstantInput",
    "SinusoidInput",
    "SimulationConfig",
    "SimulationTrace",
    "simulate",
    "error_metrics",
    "write_trace_csv",
]

# rows per block of the integration, the e/xhat recomputation and the CSV
# writer: large enough to amortise per-block numpy calls, small enough that
# block buffers and CSV text stay far below the trace itself
_BLOCK = 512


@dataclass(frozen=True)
class ConstantInput:
    """u(t) = values, constant in time."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", as_vector(self.values, "values"))

    def __call__(self, t):
        return self.values


@dataclass(frozen=True)
class SinusoidInput:
    """u(t) = amplitude * sin(frequency * t + phase), per input channel.

    ``frequency`` is in rad/s and ``phase`` in rad; ``amplitude`` is a
    vector with one entry per input channel.
    """

    amplitude: np.ndarray
    frequency: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "amplitude", as_vector(self.amplitude, "amplitude"))

    def __call__(self, t):
        return self.amplitude * math.sin(self.frequency * t + self.phase)


@dataclass(frozen=True)
class SimulationConfig:
    """Fixed-step integration settings.

    ``input_signal`` is any callable t -> length-m vector; ``None``
    means zero input.  The horizon is rounded to a whole number of
    steps: ``steps = round(t_final / dt) >= 1``.
    """

    t_final: float = 10.0
    dt: float = 1e-3
    input_signal: object = None

    def step_count(self):
        if not (self.t_final > 0.0 and self.dt > 0.0):
            raise ValueError("t_final and dt must be positive")
        if self.dt > self.t_final:
            raise ValueError("dt must not exceed t_final")
        steps = int(round(self.t_final / self.dt))
        if steps < 1:
            raise ValueError("horizon must cover at least one step")
        return steps


@dataclass(frozen=True)
class SimulationTrace:
    """Time-indexed samples from a co-simulation run.

    All arrays share the leading length ``steps + 1``; ``e`` holds
    z - T x recomputed per sample and ``e_norms`` its 2-norms.
    """

    times: np.ndarray
    x: np.ndarray
    z: np.ndarray
    e: np.ndarray
    xhat: np.ndarray
    e_norms: np.ndarray


def _check_step_stability(plant, obs, dt):
    """Reject a step that puts a stable or marginal mode outside RK4's
    stability region.

    RK4 multiplies the mode of each eigenvalue lam of ``plant.A`` and
    ``obs.F`` by ``R(h lam)`` per step, ``R(z) = 1 + z + z^2/2 + z^3/6 +
    z^4/24``.  A stable mode (``Re lam < -DEFAULTS.stability``) is rejected
    when ``|R(h lam)| >= 1``, a marginal one (``|Re lam| <= DEFAULTS.stability``,
    taken as on the imaginary axis) when ``|R(i h Im lam)| > 1``, so lam = 0
    and slow oscillators pass.  Either would grow through the step alone (and
    the trace overflow to NaN), so a ``ValueError`` naming lam, h and |R| is
    raised instead.  Unstable modes are not checked: their growth is real.
    """
    for source, M, hint in (
        ("plant", plant.A, "reduce dt"),
        ("observer", obs.F, "reduce dt or choose slower observer poles"),
    ):
        for lam in eigenvalues(M):
            if lam.real > DEFAULTS.stability:
                continue
            if lam.real >= -DEFAULTS.stability:
                # on the axis |R(iy)|^2 - 1 = y^6 (y^2 - 8) / 576 exactly; the
                # form below loses its sign to rounding for |y| below 4e-4
                y = dt * lam.imag
                outside = y * y > 8.0
                gain = math.sqrt(1.0 + y**6 * (y * y - 8.0) / 576.0)
            else:
                z = dt * lam
                w = z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))  # R(z) - 1
                # |R|^2 - 1 = 2 Re w + |w|^2, free of the rounding of |1 + w| to 1
                # when |z| is tiny
                outside = 2.0 * w.real + abs(w) ** 2 >= 0.0
                gain = abs(1.0 + w)
            if outside:
                value = f"{lam.real:.6g}" if lam.imag == 0.0 else f"{lam:.6g}"
                raise ValueError(
                    f"step dt = {dt:g} is outside the RK4 stability region for the "
                    f"{source} eigenvalue {value}: |R(dt * lam)| = {gain:.6g} >= 1; "
                    f"{hint}"
                )


def simulate(plant, obs, x0, z0, cfg=SimulationConfig()):
    """Integrate plant and observer together and record the trace.

    Parameters
    ----------
    plant : Plant
    obs : ReducedObserver
        Must conform dimensionally with the plant.
    x0, z0 : initial plant state (length n) and observer state
        (length n - p).
    cfg : SimulationConfig

    Raises ``ValueError`` on mismatched dimensions, an invalid config,
    or a step ``cfg.dt`` outside RK4's stability region for a decaying
    or marginal mode of the plant or the observer.
    """
    n, m, p = plant.n, plant.m, plant.p
    if obs.T.shape[1] != n or obs.p != p or obs.P.shape[1] != m:
        raise ValueError("observer dimensions do not match the plant")
    x0 = as_vector(x0, "x0", n)
    z0 = as_vector(z0, "z0", obs.order)
    steps = cfg.step_count()
    dt = cfg.dt
    _check_step_stability(plant, obs, dt)

    u = cfg.input_signal
    if u is None:
        zero = np.zeros(m)
        u = lambda t: zero
    u_start = as_vector(u(0.0), "input_signal(0)", m)  # fail fast on wrong input width

    # coupled linear system: d[x; z]/dt = Abig [x; z] + Bbig u(t)
    q = obs.order
    N = n + q
    Abig = np.zeros((N, N))
    Abig[:n, :n] = plant.A
    Abig[n:, :n] = obs.G @ plant.C
    Abig[n:, n:] = obs.F
    Bbig = np.vstack([plant.B, obs.P])

    def rk4_step(s, u0, uh, u1):
        """One RK4 step from t with inputs u(t), u(t + dt/2), u(t + dt), by columns."""
        k1 = Abig @ s + Bbig @ u0
        k2 = Abig @ (s + 0.5 * dt * k1) + Bbig @ uh
        k3 = Abig @ (s + 0.5 * dt * k2) + Bbig @ uh
        k4 = Abig @ (s + dt * k3) + Bbig @ u1
        return s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    # the step is linear in (s, u0, uh, u1): applied to the columns of the
    # identity it yields s_next = M s + W [u0; uh; u1]
    E = np.eye(N + 3 * m)
    MW = rk4_step(E[:N], E[N : N + m], E[N + m : N + 2 * m], E[N + 2 * m :])
    M = np.ascontiguousarray(MW[:, :N])
    W_T = np.ascontiguousarray(MW[:, N:].T)

    # within a block, uv[2j] = u(t_j) and uv[2j + 1] = u(t_j + dt/2), so
    # row j of uv_windows is the 3m-vector [u0; uh; u1] of the block's step j
    uv = np.empty((2 * _BLOCK + 1, m))
    uv_windows = sliding_window_view(uv.reshape(-1), 3 * m)[:: 2 * m]
    uv[0] = u_start

    states = np.empty((steps + 1, N))
    states[0, :n] = x0
    states[0, n:] = z0
    for lo in range(0, steps, _BLOCK):
        hi = min(lo + _BLOCK, steps)
        k = hi - lo
        # each distinct input time once, in time order; the even ones are
        # exactly times[lo + 1 .. hi]
        for r, t in enumerate((np.arange(2 * lo + 1, 2 * hi + 1) * (0.5 * dt)).tolist(), 1):
            uv[r] = u(t)
        np.matmul(uv_windows[:k], W_T, out=states[lo + 1 : hi + 1])
        for prev, row in zip(states[lo:hi], states[lo + 1 : hi + 1]):
            row += M @ prev
        uv[0] = uv[2 * k]  # u(t_hi) starts the next block

    times = np.arange(steps + 1) * dt
    x = states[:, :n]
    z = states[:, n:]
    # e and xhat block by block with stacked matmul, which reproduces a
    # caller's per-sample obs.T @ x[i] and obs.W @ concatenate([C @ x[i], z[i]])
    # bit for bit (the tests check it), so spot recomputation matches exactly;
    # a plain gemm such as x @ obs.T.T or einsum does not
    e = np.empty((steps + 1, q))
    xhat = np.empty((steps + 1, n))
    e_norms = np.empty(steps + 1)
    yz = np.empty((_BLOCK, n))
    for lo in range(0, steps + 1, _BLOCK):
        hi = min(lo + _BLOCK, steps + 1)
        k = hi - lo
        xb = x[lo:hi, :, None]
        np.matmul(obs.T, xb, out=e[lo:hi, :, None])
        np.subtract(z[lo:hi], e[lo:hi], out=e[lo:hi])
        np.matmul(plant.C, xb, out=yz[:k, :p, None])
        yz[:k, p:] = z[lo:hi]
        np.matmul(obs.W, yz[:k, :, None], out=xhat[lo:hi, :, None])
        e_norms[lo:hi] = np.linalg.norm(e[lo:hi], axis=1)
    return SimulationTrace(times=times, x=x, z=z, e=e, xhat=xhat, e_norms=e_norms)


def error_metrics(trace):
    """Summary figures: final error norm, decay ratio, estimate error.

    ``decay_ratio = ||e(t_final)|| / max(||e(0)||, guard)`` with a tiny
    guard against division by zero when e(0) = 0.
    """
    if trace.times.size == 0:
        raise ValueError("trace is empty")
    final = float(trace.e_norms[-1])
    initial = float(trace.e_norms[0])
    return {
        "final_error_norm": final,
        "decay_ratio": final / max(initial, DEFAULTS.decay_guard),
        "estimate_final_error": float(np.linalg.norm(trace.xhat[-1] - trace.x[-1])),
    }


def write_trace_csv(trace, path_or_file):
    """Write the trace as CSV: t, x_*, z_*, e_*, xhat_*, e_norm.

    Values are written with 17 significant digits so they round-trip
    exactly through decimal text.
    """
    n = trace.x.shape[1]
    q = trace.z.shape[1]
    header = ",".join(
        ["t"]
        + [f"x_{i + 1}" for i in range(n)]
        + [f"z_{i + 1}" for i in range(q)]
        + [f"e_{i + 1}" for i in range(q)]
        + [f"xhat_{i + 1}" for i in range(n)]
        + ["e_norm"]
    )
    columns = (
        trace.times[:, None],
        trace.x,
        trace.z,
        trace.e,
        trace.xhat,
        trace.e_norms[:, None],
    )
    row_format = ",".join(["{:.17g}"] * sum(c.shape[1] for c in columns)) + "\n"

    def write(fh):
        fh.write(header + "\n")
        for lo in range(0, trace.times.size, _BLOCK):
            rows = np.hstack([c[lo : lo + _BLOCK] for c in columns])
            fh.write("".join([row_format.format(*row) for row in rows.tolist()]))

    if hasattr(path_or_file, "write"):
        write(path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            write(fh)
