"""Co-simulation of a plant and its reduced-order observer.

Plant and observer are integrated as one coupled system with state
[x; z] (classical fixed-step RK4), so the measurement y = C x seen by the
observer is never interpolated.  For this linear system one RK4 step is
an affine map, s_{j+1} = M s_j + b_j with b_j = W [u(t_j); u(t_j + dt/2);
u(t_j + dt)]; M and W are precomputed once by applying the four-stage step
to identity columns, so the input is evaluated twice per step (at t and
t + dt/2; u(t + dt) starts the next step).

The trace is built in blocks of ``_BLOCK`` rows.  One matmul forms a
block's forcing rows b_j, and the recurrence is lifted over groups of
``_GROUP`` = L steps: a Horner pass gives each full group its forcing
c_g = sum_{i<L} M^{L-1-i} b_{gL+i}, a sequential loop sets the group heads
s_{(g+1)L} = M^L s_{gL} + c_g, and L - 1 passes, each over every group at
once, fill the rows in between.  L = sqrt(_BLOCK / 2) minimises the
2 (L - 1) + _BLOCK / L Python iterations per block.  The states are those
of the step-by-step recurrence to round-off, not bit for bit: the heads
go through M^L.

A step dt that puts a decaying or marginal mode of the plant or the
observer outside RK4's stability region (|R(dt lam)| >= 1, or > 1 on the
imaginary axis) would make the trace blow up to NaN; ``simulate`` rejects
it with a ``ValueError`` instead.

The recorded error e = z - T x is recomputed from the stored states at
every sample and, for a valid observer, follows e(t) = expm(F t) e(0) up
to integrator truncation.  The CSV writer formats ``_CSV_ROWS`` rows per
call.  ``sylvobs simulate`` runs through ``_summarize``, which integrates
into a buffer of ``_BLOCK + 1`` samples and writes and summarises each
block in turn, so the command never holds the whole trace.
"""

import math
import mmap
from contextlib import nullcontext
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

# rows per block of the integration and the e/xhat recomputation: large
# enough to amortise per-block numpy calls, small enough that block buffers
# stay far below the trace itself
_BLOCK = 512
# rows per str.format call of the CSV writer (see _write_csv_rows)
_CSV_ROWS = 16
# steps per group of the lifted recurrence inside a block (see the module
# docstring): sqrt(_BLOCK / 2) minimises the Python iterations per block
_GROUP = math.isqrt(_BLOCK // 2)


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
    z - T x recomputed per sample and ``e_norms`` its 2-norms.  They are
    views of one buffer, so keeping any of them keeps the whole trace.
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


def _step_maps(Abig, Bbig, dt):
    """M, W.T and M^_GROUP of one RK4 step s_next = M s + W [u0; uh; u1] of
    ds/dt = Abig s + Bbig u, with u0, uh, u1 = u(t), u(t + dt/2), u(t + dt)."""
    N, m = Bbig.shape

    def rk4_step(s, u0, uh, u1):
        """One RK4 step from t, by columns."""
        k1 = Abig @ s + Bbig @ u0
        k2 = Abig @ (s + 0.5 * dt * k1) + Bbig @ uh
        k3 = Abig @ (s + 0.5 * dt * k2) + Bbig @ uh
        k4 = Abig @ (s + dt * k3) + Bbig @ u1
        return s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    # the step is linear in (s, u0, uh, u1): applied to the columns of the
    # identity it yields [M W]
    E = np.eye(N + 3 * m)
    MW = rk4_step(E[:N], E[N : N + m], E[N + m : N + 2 * m], E[N + 2 * m :])
    M = np.ascontiguousarray(MW[:, :N])
    return M, np.ascontiguousarray(MW[:, N:].T), np.linalg.matrix_power(M, _GROUP)


def _integrate(states, Abig, Bbig, dt, u, u_start, steps):
    """Run ``steps`` RK4 steps of ds/dt = Abig s + Bbig u(t) from
    ``states[0]`` block by block; ``u_start`` is u(0).

    After each block, yields its first step ``lo`` and its step count
    ``k``.  With ``steps + 1`` rows, states lo .. lo + k are rows
    lo .. lo + k; with ``_BLOCK + 1`` rows, every block reuses rows 0 .. k,
    and its first row is the last state of the block before.
    """
    N, m = Bbig.shape
    whole = len(states) == steps + 1
    M, W_T, M_L = _step_maps(Abig, Bbig, dt)
    c = np.empty((_BLOCK // _GROUP, N))
    tmp = np.empty((_BLOCK // _GROUP + 1, N))
    # within a block, uv[2j] = u(t_j) and uv[2j + 1] = u(t_j + dt/2), so
    # row j of uv_windows is the 3m-vector [u0; uh; u1] of the block's step j
    uv = np.empty((2 * _BLOCK + 1, m))
    uv_windows = sliding_window_view(uv.reshape(-1), 3 * m)[:: 2 * m]
    uv[0] = u_start
    for lo in range(0, steps, _BLOCK):
        hi = min(lo + _BLOCK, steps)
        k = hi - lo
        a = lo if whole else 0
        if lo and not whole:
            states[0] = states[_BLOCK]
        # each distinct input time once, in time order; the even ones are
        # exactly times[lo + 1 .. hi]
        for r, t in enumerate((np.arange(2 * lo + 1, 2 * hi + 1) * (0.5 * dt)).tolist(), 1):
            uv[r] = u(t)
        np.matmul(uv_windows[:k], W_T, out=states[a + 1 : a + k + 1])
        _recur(states[a : a + k + 1], M, M_L, c, tmp)
        uv[0] = uv[2 * k]  # u(t_hi) starts the next block
        yield lo, k


def _recur(S, M, M_L, c, tmp):
    """Run s_{j+1} = M s_j + b_j in place over the rows of ``S``.

    On entry ``S[0]`` is s_0 and ``S[j + 1]`` holds b_j; on exit ``S[j]``
    is s_j.  ``M_L`` is M^_GROUP; ``c`` and ``tmp`` are scratch of at least
    len(S) // _GROUP and that plus one rows.  States are rows, so M acts as
    ``@ M.T``.
    """
    L = _GROUP
    g = (len(S) - 1) // L
    if g:
        # Horner pass c_g = sum_{i<L} M^{L-1-i} b_{gL+i}, over all full groups
        # at once; it reads the head rows' b before the heads replace them
        b = S[1 : g * L + 1].reshape(g, L, -1)
        cg = c[:g]
        cg[...] = b[:, 0]
        for i in range(1, L):
            np.matmul(cg, M.T, out=tmp[:g])
            np.add(tmp[:g], b[:, i], out=cg)
        heads = S[: g * L + 1 : L]
        heads[1:] = cg
        for prev, row in zip(heads[:-1], heads[1:]):
            row += M_L @ prev
    # the rows inside every group, the partial last one included: pass i
    # sets s_{gL+i} = M s_{gL+i-1} + b_{gL+i-1} for every g
    for i in range(1, min(L, len(S))):
        rows = S[i::L]
        k = len(rows)
        np.matmul(S[i - 1 :: L][:k], M.T, out=tmp[:k])
        rows += tmp[:k]


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

    The group heads step through M^16 (see the module docstring), which
    overflows only when one step grows an unstable mode by more than about
    1e19; the trace then turns non-finite from step 16 on, about where it
    overflows step by step anyway.
    """
    x0, z0, steps, Abig, Bbig, u, u_start = _setup(plant, obs, x0, z0, cfg)
    trace, states = _trace_buffer(steps + 1, plant.n, obs.order)
    states[0, : plant.n] = x0
    states[0, plant.n :] = z0
    for _block in _integrate(states, Abig, Bbig, cfg.dt, u, u_start, steps):
        pass
    np.multiply(np.arange(steps + 1), cfg.dt, out=trace.times)
    yz = np.empty((_BLOCK, plant.n))
    for lo in range(0, steps + 1, _BLOCK):
        _estimates(plant, obs, trace, slice(lo, lo + _BLOCK), yz)
    return trace


def _setup(plant, obs, x0, z0, cfg):
    """Every check of ``simulate``, then what its integration needs:
    x0, z0, steps, Abig, Bbig, the input callable and u(0)."""
    n, m, p = plant.n, plant.m, plant.p
    if obs.T.shape[1] != n or obs.p != p or obs.P.shape[1] != m:
        raise ValueError("observer dimensions do not match the plant")
    x0 = as_vector(x0, "x0", n)
    z0 = as_vector(z0, "z0", obs.order)
    steps = cfg.step_count()
    _check_step_stability(plant, obs, cfg.dt)

    u = cfg.input_signal
    if u is None:
        zero = np.zeros(m)
        u = lambda t: zero
    u_start = as_vector(u(0.0), "input_signal(0)", m)  # fail fast on wrong input width

    # coupled linear system: d[x; z]/dt = Abig [x; z] + Bbig u(t)
    N = n + obs.order
    Abig = np.zeros((N, N))
    Abig[:n, :n] = plant.A
    Abig[n:, :n] = obs.G @ plant.C
    Abig[n:, n:] = obs.F
    Bbig = np.vstack([plant.B, obs.P])
    return x0, z0, steps, Abig, Bbig, u, u_start


def _trace_buffer(rows, n, q, flat=None):
    """A trace of ``rows`` unset samples and its [x z] state rows, cut out of
    ``flat`` (a new array by default).

    The trace is one allocation, cut into contiguous blocks: repeated calls
    then leave fewer large freed blocks in the allocator's heap, which kept
    peak RSS higher.
    """
    N = n + q
    if flat is None:
        flat = np.empty(rows * (N + q + n + 2))
    states, e, xhat = (flat[rows * a : rows * b].reshape(rows, b - a)
                       for a, b in ((0, N), (N, N + q), (N + q, N + q + n)))
    e_norms = flat[rows * (N + q + n) : rows * (N + q + n + 1)]
    times = flat[rows * (N + q + n + 1) :]
    trace = SimulationTrace(times=times, x=states[:, :n], z=states[:, n:], e=e, xhat=xhat,
                            e_norms=e_norms)
    return trace, states


def _estimates(plant, obs, trace, rows, yz):
    """Set e, xhat and e_norms of the samples ``rows`` of ``trace`` from their
    x and z; ``yz`` is scratch of at least as many rows.

    Stacked matmul reproduces a caller's per-sample obs.T @ x[i] and
    obs.W @ concatenate([C @ x[i], z[i]]) bit for bit (the tests check it),
    so spot recomputation matches exactly; a plain gemm such as
    x @ obs.T.T or einsum does not.
    """
    x, z, e = trace.x[rows], trace.z[rows], trace.e[rows]
    k, p = len(x), plant.p
    xb = x[:, :, None]
    np.matmul(obs.T, xb, out=e[:, :, None])
    np.subtract(z, e, out=e)
    np.matmul(plant.C, xb, out=yz[:k, :p, None])
    yz[:k, p:] = z
    np.matmul(obs.W, yz[:k, :, None], out=trace.xhat[rows, :, None])
    trace.e_norms[rows] = np.linalg.norm(e, axis=1)


def _summarize(plant, obs, x0, z0, cfg, csv=None):
    """Run ``simulate`` in a buffer of ``_BLOCK + 1`` samples instead of the
    whole trace.

    Returns ``error_metrics`` of the trace and the step and time of its
    first non-finite sample, or None.  With ``csv``, a path, the trace is
    written there as ``write_trace_csv`` writes it, byte for byte.
    """
    x0, z0, steps, Abig, Bbig, u, u_start = _setup(plant, obs, x0, z0, cfg)
    n, q = plant.n, obs.order
    # the buffer is an anonymous memory map of its own, returned whole when
    # the run ends: it leaves no hole in the heap of a process that runs
    # the command again and again
    nbytes = 8 * (_BLOCK + 1) * (2 * (n + q) + 2)
    window, states = _trace_buffer(
        _BLOCK + 1, n, q, np.frombuffer(mmap.mmap(-1, nbytes), np.float64)
    )
    states[0, :n] = x0
    states[0, n:] = z0
    yz = np.empty((_BLOCK + 1, n))
    initial = None
    nonfinite = None
    with open(csv, "w", encoding="utf-8") if csv else nullcontext() as fh:
        if fh is not None:
            fh.write(_csv_header(n, q))
        for lo, k in _integrate(states, Abig, Bbig, cfg.dt, u, u_start, steps):
            # the block's new samples, and the initial one with the first block
            first = 1 if lo else 0
            rows = slice(first, k + 1)
            np.multiply(np.arange(lo + first, lo + k + 1), cfg.dt, out=window.times[rows])
            _estimates(plant, obs, window, rows, yz)
            block = SimulationTrace(times=window.times[rows], x=window.x[rows],
                                    z=window.z[rows], e=window.e[rows],
                                    xhat=window.xhat[rows], e_norms=window.e_norms[rows])
            if fh is not None:
                _write_csv_rows(fh, block)
            if initial is None:
                initial = float(block.e_norms[0])
            # a non-finite x or z sample makes its e = z - T x sample
            # non-finite, so the short scan of e_norms gates the row-wise scan
            if nonfinite is None and not np.isfinite(block.e_norms).all():
                finite = np.isfinite(block.x).all(axis=1) & np.isfinite(block.z).all(axis=1)
                if not finite.all():
                    row = int(np.argmin(finite))
                    nonfinite = (lo + first + row, float(block.times[row]))
    return _final_metrics(initial, block), nonfinite


def error_metrics(trace):
    """Summary figures: final error norm, decay ratio, estimate error.

    ``decay_ratio = ||e(t_final)|| / max(||e(0)||, guard)`` with a tiny
    guard against division by zero when e(0) = 0.
    """
    if trace.times.size == 0:
        raise ValueError("trace is empty")
    return _final_metrics(float(trace.e_norms[0]), trace)


def _final_metrics(initial, trace):
    """``error_metrics`` of a run whose ||e(0)|| is ``initial`` and whose
    last sample is the last row of ``trace``."""
    final = float(trace.e_norms[-1])
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
    def write(fh):
        fh.write(_csv_header(trace.x.shape[1], trace.z.shape[1]))
        _write_csv_rows(fh, trace)

    if hasattr(path_or_file, "write"):
        write(path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            write(fh)


def _csv_header(n, q):
    return ",".join(
        ["t"]
        + [f"x_{i + 1}" for i in range(n)]
        + [f"z_{i + 1}" for i in range(q)]
        + [f"e_{i + 1}" for i in range(q)]
        + [f"xhat_{i + 1}" for i in range(n)]
        + ["e_norm"]
    ) + "\n"


def _write_csv_rows(fh, trace):
    """Write the samples of ``trace`` as CSV rows, ``_CSV_ROWS`` per format
    call over a flat list of their values.

    No per-row list or string is made: those are small heap blocks that the
    allocator keeps cached once freed, and made next to a large buffer they
    keep its memory from being reused as one block after it is freed.
    """
    columns = (
        trace.times[:, None],
        trace.x,
        trace.z,
        trace.e,
        trace.xhat,
        trace.e_norms[:, None],
    )
    row_format = ",".join(["{:.17g}"] * sum(c.shape[1] for c in columns)) + "\n"
    for lo in range(0, trace.times.size, _CSV_ROWS):
        rows = np.hstack([c[lo : lo + _CSV_ROWS] for c in columns])
        fh.write((row_format * len(rows)).format(*rows.ravel().tolist()))
