"""Co-simulation of a plant and its reduced-order observer.

Plant and observer are integrated as one coupled system with state
[x; z] (classical fixed-step RK4), so the measurement y = C x seen by the
observer is never interpolated.  For this linear system one RK4 step is
an affine map, s_{j+1} = M s_j + b_j with b_j = W [u(t_j); u(t_j + dt/2);
u(t_j + dt)]; M and W are precomputed once by applying the four-stage step
to identity columns, so the input is needed twice per step (at t and
t + dt/2; u(t + dt) starts the next step).  ``ConstantInput`` and
``SinusoidInput`` give a block's inputs in one pass over its times, each
value bit for bit the one their call gives; any other callable, a subclass
of either included, is called once per input time.

The trace is built in blocks of ``_BLOCK`` rows, and the recurrence is
lifted over groups of ``_GROUP`` = L = 16 steps and super-groups of
``_SUPER`` = L2 = 4 groups.  Once per run, ``_step_maps`` builds, besides M
and W, the map K of a group's 2L + 1 input samples to its zero-state end
state c_g = sum_{i<L} M^{L-1-i} b_{gL+i} (by Horner's rule over the L
steps, on K itself), the powers (M^L)^i, i < L2, side by side, and
M^(L L2).  Each block then takes: one matmul for its forcing rows b_j; one
of the groups' windows of input samples with K for every full group's c_g;
one of the c_g, L2 at a time, with the powers for each super-group's
forcing d_h = sum_{j<L2} (M^L)^{L2-1-j} c_{h L2 + j}; a sequential loop
over the _BLOCK / (L L2) = 8 super-group heads, s_{(h+1) L L2} =
M^(L L2) s_{h L L2} + d_h; L2 - 1 passes, each over every super-group at
once, for the group heads between them; and L - 1 passes, each over every
group, for the rows inside the groups.  That is about 55 numpy calls a
block and N^2 flops a row, N the order of [x; z].  For L = 16, L2 = 4
minimises the heads' 2 _BLOCK / (L L2) + 2 (L2 - 1) calls; 8 ties, with
twice the powers and an M^128 that overflows at a growth of 260 per step
instead of 6.6e4 (see ``simulate``).  The states are not those of
step-by-step RK4 to round-off: the heads go through powers of M, and the
gap grows with the eigenvector condition number of the coupled matrix.
On perfbench's ``gen.cli_pool(2, 5)`` plant (n = 4, p = 1, 10 s of a
sinusoid, condition number 1.1e4), z is 1.66e-11 off RK4 in long double,
against 1.7e-13 for step-by-step RK4 in double.

A step dt that puts a decaying or marginal mode of the plant or the
observer outside RK4's stability region (|R(dt lam)| >= 1, or > 1 on the
imaginary axis) would make the trace blow up to NaN; ``simulate`` rejects
it with a ``ValueError`` instead.

The recorded error e = z - T x is recomputed from the stored states at
every sample and, for a valid observer, follows e(t) = expm(F t) e(0) up
to integrator truncation.

One loop, ``_run``, makes every run: it checks everything first, then
integrates block by block, and sets each block's times, e, xhat and e_norms
before it yields the block.  ``simulate`` runs it over the whole trace.
``sylvobs simulate`` runs it through ``_summarize`` in a window of
``_BLOCK + 1`` samples, and writes and summarises each block as it comes, so
the command never holds the whole trace and its samples are ``simulate``'s.
One writer, ``_CsvWriter``, writes every CSV: ``write_trace_csv`` gives it
the whole trace, ``_summarize`` each block in turn, so both write the same
bytes, and both write a path through ``_file_sink``.

The CSV holds every value as ``"{:.17g}".format`` writes it, byte for byte,
but the text comes from a numpy kernel, ``_format_block``, about
``_CSV_VALUES`` values at a time.  ``_decimal17`` finds the 17 digits from an
exact integer product (the mantissa times 5^q, in two 64-bit words) and
rounds them half to even from the bits shifted out.  The layout of %g (fixed
or exponent notation, the trailing zeros cut) and the separator after it
depend on the decimal exponent, the number of significant digits, the sign
and the row end alone, so one code of the four picks each value's layout
words from a table.  They fill fixed slots, and one selection of the bytes
that are not padding joins them.  Zero and magnitudes in [2^-36, 2^57) take
this path.  Any other value (subnormal, smaller, larger, inf or nan) is
formatted by ``str.format`` itself, which is thus both the exact path for
those values and the tests' oracle.
"""

import functools
import math
import os
import stat
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .linalg import DEFAULTS, _eigenvalues, as_vector

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
# values per kernel call of the CSV writer (see _CsvWriter)
_CSV_VALUES = 8192
# steps per group of the lifted recurrence inside a block, and groups per
# super-group (see the module docstring)
_GROUP = 16
_SUPER = 4


@dataclass(frozen=True)
class ConstantInput:
    """u(t) = values, constant in time."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", as_vector(self.values, "values"))

    def __call__(self, t):
        return self.values

    def _fill(self, times, out):
        """Set row i of ``out`` to u(times[i]) for each of ``times``."""
        out[...] = self.values


@dataclass(frozen=True)
class SinusoidInput:
    """u(t) = amplitude * sin(frequency * t + phase), per input channel.

    ``frequency`` is in rad/s and ``phase`` in rad, both finite; ``amplitude``
    is a vector with one entry per input channel.  An angle that overflows
    to inf is a ``ValueError`` naming its time.
    """

    amplitude: np.ndarray
    frequency: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "amplitude", as_vector(self.amplitude, "amplitude"))
        for name in ("frequency", "phase"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)

    def __call__(self, t):
        try:
            return self.amplitude * math.sin(self.frequency * t + self.phase)
        except ValueError:  # math.sin of an infinite angle
            raise self._overflow(t) from None

    def _fill(self, times, out):
        """Set row i of ``out`` to u(times[i]) for each of ``times``, bit for
        bit the call's value: the same two float operations before the sine,
        ``math.sin`` itself (numpy's sine may round otherwise) and the same
        product after it."""
        with np.errstate(over="ignore"):
            angles = self.frequency * times + self.phase
        try:
            sines = np.fromiter(map(math.sin, angles.tolist()), np.float64, len(angles))
        except ValueError:
            raise self._overflow(float(times[np.argmin(np.isfinite(angles))])) from None
        np.multiply(sines[:, None], self.amplitude, out=out)

    def _overflow(self, t):
        return ValueError(f"the sinusoid's angle frequency * t + phase overflows at t = {t:g} "
                          f"(frequency = {self.frequency:g})")


@dataclass(frozen=True)
class SimulationConfig:
    """Fixed-step integration settings.

    ``input_signal`` is any callable t -> length-m vector; ``None``
    means zero input.  ``ConstantInput`` and ``SinusoidInput`` are sampled
    over each block's times at once, any other callable once per input
    time (twice per step).  The horizon is rounded to a whole number of
    steps: ``steps = round(t_final / dt) >= 1``, which must fit a numpy
    index.
    """

    t_final: float = 10.0
    dt: float = 1e-3
    input_signal: object = None

    def step_count(self):
        if not (math.isfinite(self.t_final) and math.isfinite(self.dt)):
            raise ValueError("t_final and dt must be finite")
        if not (self.t_final > 0.0 and self.dt > 0.0):
            raise ValueError("t_final and dt must be positive")
        if self.dt > self.t_final:
            raise ValueError("dt must not exceed t_final")
        ratio = self.t_final / self.dt
        if not ratio < np.iinfo(np.intp).max:
            raise ValueError(f"t_final / dt = {ratio:g} steps do not fit an index")
        # dt <= t_final, so the ratio is at least 1 and so is its rounding
        return int(round(ratio))


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
    R overflows only far outside the region, so a mode whose |R|^2 - 1 is
    not finite is rejected too, with |R| = inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for source, M, hint in (
            ("plant", plant.A, "reduce dt"),
            ("observer", obs.F, "reduce dt or choose slower observer poles"),
        ):
            for lam in _eigenvalues(M):
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
                    outside = not 2.0 * w.real + abs(w) ** 2 < 0.0
                    gain = abs(1.0 + w)
                if outside:
                    gain = gain if math.isfinite(gain) else math.inf
                    value = f"{lam.real:.6g}" if lam.imag == 0.0 else f"{lam:.6g}"
                    raise ValueError(
                        f"step dt = {dt:g} is outside the RK4 stability region for the "
                        f"{source} eigenvalue {value}: |R(dt * lam)| = {gain:.6g} >= 1; "
                        f"{hint}"
                    )


@dataclass(frozen=True)
class _StepMaps:
    """The maps of one RK4 step s_next = M s + W [u0; uh; u1] and of its
    lifted recurrence, for states and inputs as rows (so M acts as ``@ M.T``).

    ``W_T`` is W.T, ``K`` maps a group's 2L + 1 input samples, its rows of
    ``uv`` end to end, to the group's zero-state end state c_g, and
    ``powers`` stacks ((M^L)^(L2-1-j)).T for j < L2, so that one super-group's
    c_g end to end times ``powers`` is its forcing.  ``M_T``, ``M_L_T`` and
    ``M_S_T`` are M.T, (M^L).T and (M^(L L2)).T.
    """

    W_T: np.ndarray
    K: np.ndarray
    M_T: np.ndarray
    M_L_T: np.ndarray
    powers: np.ndarray
    M_S_T: np.ndarray


def _step_maps(Abig, Bbig, dt):
    """The ``_StepMaps`` of one RK4 step of ds/dt = Abig s + Bbig u, with
    u0, uh, u1 = u(t), u(t + dt/2), u(t + dt)."""
    N, m = Bbig.shape
    L, L2 = _GROUP, _SUPER

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
    M_T = np.ascontiguousarray(MW[:, :N].T)
    W_T = np.ascontiguousarray(MW[:, N:].T)
    # K holds step i's part W.T (M^(L-1-i)).T at the rows of its samples,
    # 2im .. (2i + 3)m, the parts of shared samples added.  Horner's rule
    # multiplies the rows filled so far
    K = np.zeros(((2 * L + 1) * m, N))
    for i in range(L):
        K[: (2 * i + 1) * m] = K[: (2 * i + 1) * m] @ M_T
        K[2 * i * m : (2 * i + 3) * m] += W_T
    M_L_T = np.linalg.matrix_power(M_T, L)
    powers = [np.eye(N)]
    for _ in range(L2 - 1):
        powers.append(powers[-1] @ M_L_T)
    return _StepMaps(W_T=W_T, K=K, M_T=M_T, M_L_T=M_L_T, powers=np.concatenate(powers[::-1]),
                     M_S_T=np.linalg.matrix_power(M_L_T, L2))


def _recur(S, windows, maps, c, tmp):
    """Run s_{j+1} = M s_j + b_j in place over the rows of ``S``.

    On entry ``S[0]`` is s_0 and ``S[j + 1]`` holds b_j, and ``windows[g]``
    is the 2L + 1 input samples of group g, steps gL .. gL + L - 1, end to
    end; on exit ``S[j]`` is s_j.  ``maps`` is a ``_StepMaps``; ``c`` and
    ``tmp`` are scratch of at least len(S) // _GROUP and that plus one rows.
    """
    L, L2 = _GROUP, _SUPER
    g = (len(S) - 1) // L
    if g:
        # every full group's forcing c_g, then the heads s_{h L L2} of the
        # super-groups, one after another through M^(L L2), each from the
        # forcing of the L2 groups before it
        cg = np.matmul(windows[:g], maps.K, out=c[:g])
        heads = S[: g * L + 1 : L]
        supers = heads[::L2]
        h = len(supers) - 1
        np.matmul(cg[: h * L2].reshape(h, L2 * S.shape[1]), maps.powers, out=supers[1:])
        for prev, row in zip(supers[:-1], supers[1:]):
            row += prev @ maps.M_S_T
        # the group heads in between, the partial last super-group's too:
        # pass j sets s_{(h L2 + j) L} = M^L s_{(h L2 + j - 1) L} + c_{h L2 + j - 1}
        for j in range(1, min(L2, len(heads))):
            rows = heads[j::L2]
            k = len(rows)
            np.matmul(heads[j - 1 :: L2][:k], maps.M_L_T, out=tmp[:k])
            np.add(tmp[:k], cg[j - 1 :: L2], out=rows)
    # the rows inside every group, the partial last one included: pass i
    # sets s_{gL+i} = M s_{gL+i-1} + b_{gL+i-1} for every g
    for i in range(1, min(L, len(S))):
        rows = S[i::L]
        k = len(rows)
        np.matmul(S[i - 1 :: L][:k], maps.M_T, out=tmp[:k])
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

    The super-group heads step through M^64 (see the module docstring),
    which overflows when one step grows an unstable mode by more than about
    6.6e4, the 64th root of the largest double; the trace then turns
    non-finite from step 64 on, about where a state of order one overflows
    step by step anyway.
    """
    trace, blocks = _run(plant, obs, x0, z0, cfg)
    for _block in blocks:
        pass
    return trace


def _run(plant, obs, x0, z0, cfg, window=False):
    """Every check of ``simulate``, then its trace and the loop that fills it.

    Returns the trace, of ``steps + 1`` samples or, with ``window``, of
    ``_BLOCK + 1`` samples that every block reuses (its first row is the
    last state of the block before), and a generator that integrates the
    run block by block.  After each block it yields the step of the block's
    first new sample and those samples (the initial one with the first
    block) as a ``SimulationTrace`` of views, times and estimates set.
    """
    n, m, q = plant.n, plant.m, obs.order
    for name, given, shape in (("G", obs.G, (q, plant.p)), ("P", obs.P, (q, m)),
                               ("W", obs.W, (n, n))):
        if given.shape != shape:
            raise ValueError(f"observer {name} must have shape {shape} for this plant, "
                             f"got {given.shape}")
    x0 = as_vector(x0, "x0", n)
    z0 = as_vector(z0, "z0", q)
    steps = cfg.step_count()
    dt = cfg.dt
    _check_step_stability(plant, obs, dt)

    u = ConstantInput(np.zeros(m)) if cfg.input_signal is None else cfg.input_signal
    u_start = as_vector(u(0.0), "input_signal(0)", m)  # fail fast on wrong input width
    sample = _sampler(u)

    # coupled linear system: d[x; z]/dt = Abig [x; z] + Bbig u(t)
    N = n + q
    Abig = np.zeros((N, N))
    Abig[:n, :n] = plant.A
    Abig[n:, :n] = obs.G @ plant.C
    Abig[n:, n:] = obs.F
    maps = _step_maps(Abig, np.vstack([plant.B, obs.P]), dt)

    trace, states = _trace_buffer(_BLOCK + 1 if window else steps + 1, n, q)
    states[0, :n] = x0
    states[0, n:] = z0

    def blocks():
        c = np.empty((_BLOCK // _GROUP, N))
        tmp = np.empty((_BLOCK // _GROUP + 1, N))
        yz = np.empty((_BLOCK + 1, n))
        # within a block, uv[2j] = u(t_j) and uv[2j + 1] = u(t_j + dt/2), so
        # row j of uv_windows is the 3m-vector [u0; uh; u1] of the block's
        # step j, and row g of group_windows the (2L + 1)m samples of group g
        uv = np.empty((2 * _BLOCK + 1, m))
        flat = uv.reshape(-1)
        uv_windows = sliding_window_view(flat, 3 * m)[:: 2 * m]
        group_windows = sliding_window_view(flat, (2 * _GROUP + 1) * m)[:: 2 * _GROUP * m]
        uv[0] = u_start
        for lo in range(0, steps, _BLOCK):
            hi = min(lo + _BLOCK, steps)
            k = hi - lo
            a = 0 if window else lo  # the row of step lo
            if window and lo:
                states[0] = states[_BLOCK]
            # each distinct input time once, in time order; the even ones are
            # exactly times[lo + 1 .. hi]
            sample(np.arange(2 * lo + 1, 2 * hi + 1) * (0.5 * dt), uv[1 : 2 * k + 1])
            np.matmul(uv_windows[:k], maps.W_T, out=states[a + 1 : a + k + 1])
            _recur(states[a : a + k + 1], group_windows, maps, c, tmp)
            uv[0] = uv[2 * k]  # u(t_hi) starts the next block
            # the block's new samples, and the initial one with the first block
            skip = 1 if lo else 0
            new = slice(a + skip, a + k + 1)
            np.multiply(np.arange(lo + skip, hi + 1), dt, out=trace.times[new])
            _estimates(plant, obs, trace, new, yz)
            yield lo + skip, SimulationTrace(
                times=trace.times[new], x=trace.x[new], z=trace.z[new], e=trace.e[new],
                xhat=trace.xhat[new], e_norms=trace.e_norms[new])

    return trace, blocks()


def _sampler(u):
    """The function ``(times, out)`` that sets row i of ``out`` to u(times[i]).

    ``ConstantInput`` and ``SinusoidInput`` fill the rows in one pass.  The
    type must match exactly: a subclass may override ``__call__``, so it is
    called once per time like any other callable, and the rows it filled
    are checked at once: a non-finite value is a ``ValueError`` naming its
    time.
    """
    if type(u) in (ConstantInput, SinusoidInput):
        return u._fill

    def call_each(times, out):
        for r, t in enumerate(times.tolist()):
            out[r] = u(t)
        if not np.isfinite(out).all():
            t = times[np.argmin(np.isfinite(out).all(axis=1))]
            raise ValueError(f"input_signal returned a non-finite value at t = {t:g}")

    return call_each


def _trace_buffer(rows, n, q):
    """A trace of ``rows`` unset samples and its [x z] state rows.

    The trace is one allocation, cut into contiguous blocks: repeated calls
    then leave fewer large freed blocks in the allocator's heap, which kept
    peak RSS higher.
    """
    N = n + q
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
    """Run ``simulate`` in a window of ``_BLOCK + 1`` samples instead of the
    whole trace.

    Returns ``error_metrics`` of the trace and the step and time of its
    first non-finite sample, or None.  With ``csv``, a path, each block is
    written there by ``write_trace_csv``'s writer as it comes.  Every check
    runs before the file is opened, and a run that fails after it removes
    the file it created (see ``_file_sink``): its rows would be a prefix
    of no finished trace.
    """
    window, blocks = _run(plant, obs, x0, z0, cfg, window=True)
    initial = None
    nonfinite = None
    with _file_sink(csv) if csv else nullcontext() as write:
        writer = _trace_writer(write, window) if csv else None
        for start, block in blocks:
            if writer:
                writer.add(_columns(block))
            if initial is None:
                initial = float(block.e_norms[0])
            # a non-finite x or z sample makes its e = z - T x sample
            # non-finite, so the short scan of e_norms gates the row-wise scan
            if nonfinite is None and not np.isfinite(block.e_norms).all():
                finite = np.isfinite(block.x).all(axis=1) & np.isfinite(block.z).all(axis=1)
                if not finite.all():
                    row = int(np.argmin(finite))
                    nonfinite = (start + row, float(block.times[row]))
        if writer:
            writer.flush()
    return _final_metrics(initial, block), nonfinite


@contextmanager
def _file_sink(path):
    """Open ``path`` for writing bytes and give the file's ``write``.  When
    the body raises, a regular file named by the path itself is removed: a
    device, a FIFO or a symbolic link stays, and so does a link's target.
    """
    owned = False
    try:
        with open(path, "wb") as fh:
            st = os.fstat(fh.fileno())
            owned = stat.S_ISREG(st.st_mode) and os.path.samestat(st, os.lstat(path))
            yield fh.write
    except BaseException:
        if owned:
            with suppress(OSError):  # the body's own error is the one to report
                os.remove(path)
        raise


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
    exactly through decimal text.  A path is written as bytes, with LF
    line ends on every platform; a file object gets the same text as
    ``str``.  A write to a path that fails removes the file it created,
    but never a device, a FIFO, a symbolic link or a link's target.  A
    trace of the wrong shapes is a ``ValueError`` naming the field, raised
    before anything is written or opened.
    """
    _check_trace(trace)
    if hasattr(path_or_file, "write"):
        sink = nullcontext(lambda text: path_or_file.write(bytes(text).decode("ascii")))
    else:
        sink = _file_sink(path_or_file)
    with sink as write:
        writer = _trace_writer(write, trace)
        writer.add(_columns(trace))
        writer.flush()


def _check_trace(trace):
    """Raise a ``ValueError`` naming the first field of ``trace`` whose shape
    is not a trace's: of R entries for ``times`` and ``e_norms``, and (R, n),
    (R, q), (R, q) and (R, n) for ``x``, ``z``, ``e`` and ``xhat``."""
    shapes = {name: np.shape(getattr(trace, name))
              for name in ("times", "x", "z", "e", "xhat", "e_norms")}
    rows = shapes["times"][:1] if len(shapes["times"]) == 1 else ("R",)
    n = shapes["x"][1:] if len(shapes["x"]) == 2 else ("n",)
    q = shapes["z"][1:] if len(shapes["z"]) == 2 else ("q",)
    for name, want in (("times", rows), ("x", rows + n), ("z", rows + q), ("e", rows + q),
                       ("xhat", rows + n), ("e_norms", rows)):
        if shapes[name] != want:
            want = str(want).replace("'", "")
            raise ValueError(f"trace {name} must have shape {want}, got {shapes[name]}")


def _trace_writer(write, trace):
    """Write the CSV header of traces shaped as ``trace`` through ``write``,
    as ASCII bytes, and return the ``_CsvWriter`` of their rows."""
    n, q = trace.x.shape[1], trace.z.shape[1]
    header = (
        ["t"]
        + [f"x_{i + 1}" for i in range(n)]
        + [f"z_{i + 1}" for i in range(q)]
        + [f"e_{i + 1}" for i in range(q)]
        + [f"xhat_{i + 1}" for i in range(n)]
        + ["e_norm"]
    )
    write((",".join(header) + "\n").encode("ascii"))
    return _CsvWriter(write, len(header))


def _columns(trace):
    """The CSV columns of a ``SimulationTrace``, 2-D arrays side by side."""
    return (trace.times[:, None], trace.x, trace.z, trace.e, trace.xhat, trace.e_norms[:, None])


def _format_g17(values):
    """CSV text of a 2-D float array, as ``_CsvWriter`` writes it."""
    values = np.asarray(values, dtype=np.float64)
    texts = []
    writer = _CsvWriter(texts.append, values.shape[1])
    writer.add((values,))
    writer.flush()
    return b"".join(t.tobytes() for t in texts).decode("ascii")


_U64 = np.uint64
# binary exponents e2 (2^e2 <= |x| < 2^(e2 + 1)) that _format_block formats
# itself: those whose scale 10^q = 5^q 2^q has q = 0 .. 27, so that 5^q fits
# one word (5^27 < 2^64 <= 5^28).  That is |x| in [2^-36, 2^57), about
# [1.5e-11, 1.4e17), of decimal exponents k = -11 .. 17
_E2_MIN, _E2_MAX = -36, 56
_K_MIN, _K_MAX = -11, 17
_POW5 = np.array([5**q for q in range(28)], dtype=np.uint64)
# layout codes: 4 ((k - _K_MIN) 18 + nd) + 2 (1 for a row's last value) +
# sign bit, for nd = 0 .. 17 significant digits (0 stands for zero)
_CODES = 72 * (_K_MAX - _K_MIN + 1)
_LOW32 = _U64(2**32 - 1)


@functools.cache
def _tables():
    """The tables of ``_format_block``: the four decimal digits of each of
    0 .. 9999 in the four bytes of one word; for the four groups of four
    digits and the last digit, each value's part of the layout code (the
    largest part over the groups is the code's part 4 nd); and the words of
    each layout code.

    Built on first use, so that a process that writes no CSV does not hold
    them.  No temporary of the build reaches 128 KiB: freeing one that large
    raises glibc's threshold for giving a block a map of its own, and the
    heap then keeps the later blocks of that size.
    """
    quad = np.zeros(10000, np.uint64)
    layout = np.empty((7, _CODES), np.uint64)
    parts = np.empty(40010, np.uint16)
    group = np.arange(10000, dtype=np.uint16)
    nd = np.zeros(10000, np.uint16)  # the digits up to the last nonzero one
    for j in range(4):
        digit = group // np.uint16(10 ** (3 - j)) % np.uint16(10)
        quad |= digit.astype(np.uint64) << _U64(8 * j)
        nd[digit != 0] = j + 1
    offset = 72 * -_K_MIN
    for i in range(4):
        parts[10000 * i : 10000 * (i + 1)] = np.where(nd, offset + 4 * (4 * i + nd), offset)
    parts[40000:] = [offset] + [offset + 4 * 17] * 9

    code = np.arange(_CODES)
    sign, row_end, nd, k = code % 2, code // 2 % 2, code // 4 % 18, code // 72 + _K_MIN
    k = np.where(nd, k, 0)  # zero, whatever its k, is "0"
    nd = np.maximum(nd, 1)
    # the point goes before byte `point` of the digit field, whose first
    # `keep` bytes are text.  In fixed notation (-4 <= k < 17) below 1 the
    # point is in the lead and `point` = 17 lies past the digits
    fixed = (-4 <= k) & (k < 17)
    below_one = fixed & (k < 0)
    point = np.where(below_one, 17, np.where(fixed, k + 1, 1))
    keep = np.where(below_one, nd, np.where(nd <= point, point, nd + 1))[:, None]
    point, byte = point[:, None], np.arange(24)
    field = np.zeros((2, _CODES, 24), np.uint8)
    field[0][byte >= point] = 0xFF  # the digits that move up one byte
    field[1][byte < keep] = ord("0")
    field[1][(byte == point) & (byte < keep)] = ord(".")
    # the exponent and the separator follow the text of the digits, and the
    # lead ends where it begins, so that each value's text is one run of bytes
    field[1, code[:, None], keep + np.arange(5)] = np.frombuffer(b"".join(
        ((b"" if f else b"e%+03d" % e) + b",\n"[r : r + 1]).ljust(5, b"\0")
        for e, f, r in zip(k.tolist(), fixed.tolist(), row_end.tolist())), np.uint8).reshape(-1, 5)
    layout[:6] = field.view("<u8").transpose(2, 0, 1).reshape(6, _CODES)
    layout[6] = np.frombuffer(b"".join(
        (b"-" * s + (b"0." + b"0" * (-e - 1) if lead else b"")).rjust(8, b"\0")
        for s, e, lead in zip(sign.tolist(), k.tolist(), below_one.tolist())), "<u8")
    return quad, tuple(parts[i : i + 10000] for i in range(0, 40001, 10000)), layout


def _split(a, d, high, low):
    """``high, low = divmod(a, d)`` of a uint64 array by a scalar: numpy's
    floor_divide divides by a scalar with a multiplication, divmod does not."""
    np.floor_divide(a, d, out=high)
    np.multiply(high, d, out=low)
    np.subtract(a, low, out=low)


class _CsvWriter:
    """Passes CSV rows to ``write``, ``"{:.17g}".format`` of every value byte
    for byte, as uint8 arrays of ASCII text, and holds every working array
    of ``_format_block`` for calls of ``rows`` rows of ``width`` values.

    ``add`` copies rows into ``values`` after the ``held`` rows it holds and
    formats them each time it is full, so a kernel call may span the blocks
    of a run and its rows take the fewest calls; ``flush`` writes the rest.
    ``rows`` is ``_CSV_VALUES // width`` (at least one row), so the arrays
    hold 186 bytes per value, near 1.5 MB, and the only allocation per call
    is the text it returns.
    """

    def __init__(self, write, width):
        self.write = write
        self.width = width
        self.rows = max(1, _CSV_VALUES // width)
        self.held = 0  # rows of ``values`` not yet formatted
        size = self.rows * width
        self.values = np.empty(size)
        self.slots = np.empty((size, 4), np.uint64)
        self.u = np.empty((8, size), np.uint64)
        self.i = np.empty((5, size), np.int64)
        self.n = np.empty((2, size), np.uint16)
        self.b = np.empty((5, size), np.bool_)
        self.text = np.empty(32 * size, np.bool_)
        # each value's part of the layout code for its separator
        self.row_end = np.zeros(size, np.uint8)
        self.row_end.reshape(self.rows, width)[:, -1] = 2

    def add(self, columns):
        """Take the rows of ``columns``, 2-D arrays side by side."""
        total, width = len(columns[0]), self.width
        lo = 0
        while lo < total:
            held = self.held
            rows = min(self.rows - held, total - lo)
            block = self.values[held * width : (held + rows) * width].reshape(rows, width)
            np.concatenate([c[lo : lo + rows] for c in columns], axis=1, out=block)
            self.held += rows
            lo += rows
            if self.held == self.rows:
                self.flush()

    def flush(self):
        """Write the rows held, if any."""
        if self.held:
            self.write(_format_block(self, self.held))
            self.held = 0


def _decimal17(s, count):
    """Exact %.17g digits of the first ``count`` values in ``s.values``
    whose binary exponents e2 (2^e2 <= |x| < 2^(e2 + 1)) lie in
    [_E2_MIN, _E2_MAX].

    |x| rounded half to even to 17 significant digits is D 10^(k - 16), with
    10^16 <= D < 10^17.  For x = m 2^(e2 - 52)
    (2^52 <= m < 2^53) the guess k0 = floor(e2 log10 2) is k or k - 1.  With
    q = 16 - k0, the exact product m 5^q (at most 116 bits, in two words)
    shifted by e2 - 52 + q is |x| 10^q: its integer part has 17 digits when
    k = k0 and 18 when k = k0 + 1, and the bits shifted out decide the
    rounding.  Rounding never carries to 10^17: that would take a double
    within 5e-18 relative below a power of ten, and the range has none.

    Leaves D in ``s.u[5]``, k in ``s.i[1]`` and whether e2 is in the range
    in ``s.b[3]``, each over ``count`` values, and overwrites ``s.u[:8]``,
    ``s.i[:4]`` and ``s.b[:3]``.  The other values are taken with e2
    clipped into the range; their D and k are of no use.
    """
    bits = s.values[:count].view(np.uint64)
    u0, u1, u2, u3, u4, u5, u6, u7 = (a[:count] for a in s.u[:8])
    i0, i1 = (a[:count] for a in s.u[:2].view(np.int64))
    e2, k, q, shift = (a[:count] for a in s.i[:4])
    b0, b1, b2, in_range = (a[:count] for a in s.b[:4])

    np.right_shift(bits, _U64(52), out=u0)
    np.bitwise_and(u0, _U64(0x7FF), out=u0)
    np.subtract(i0, 1023, out=e2)
    np.greater_equal(e2, _E2_MIN, out=in_range)
    np.less_equal(e2, _E2_MAX, out=b0)
    np.logical_and(in_range, b0, out=in_range)
    np.maximum(e2, _E2_MIN, out=e2)
    np.minimum(e2, _E2_MAX, out=e2)
    np.multiply(e2, 78913, out=k)
    np.right_shift(k, 18, out=k)  # floor(e2 log10 2) for |e2| < 1650
    np.subtract(16, k, out=q)
    np.subtract(e2, 52, out=shift)
    np.add(shift, q, out=shift)
    # the product m 5^q = hi 2^64 + lo: lo is the product modulo 2^64, and
    # hi comes from the 32-bit halves of m (u4, u3) and 5^q (u2, u5), whose
    # two cross products sum to less than 2^64
    np.bitwise_and(bits, _U64(2**52 - 1), out=u1)
    np.bitwise_or(u1, _U64(2**52), out=u1)
    np.take(_POW5, q, out=u2, mode="clip")
    np.multiply(u1, u2, out=u6)  # lo
    np.bitwise_and(u1, _LOW32, out=u3)
    np.right_shift(u1, _U64(32), out=u4)
    np.bitwise_and(u2, _LOW32, out=u5)
    np.right_shift(u2, _U64(32), out=u2)
    np.multiply(u3, u2, out=u7)
    np.multiply(u4, u5, out=u1)
    np.add(u7, u1, out=u7)  # cross
    np.multiply(u3, u5, out=u3)
    np.multiply(u4, u2, out=u5)  # hi, less the carries from below
    np.right_shift(u3, _U64(32), out=u3)
    np.bitwise_and(u7, _LOW32, out=u4)
    np.add(u3, u4, out=u3)
    np.right_shift(u3, _U64(32), out=u3)
    np.add(u5, u3, out=u5)
    np.right_shift(u7, _U64(32), out=u7)
    np.add(u5, u7, out=u5)
    # |x| 10^q = (hi 2^64 + lo) 2^shift, with -62 <= shift <= 4 (and hi = 0
    # when shift > 0): the bits shifted out all lie in lo.  right in u0,
    # left in u1
    np.negative(shift, out=q)
    np.maximum(q, 0, out=i0)
    np.maximum(shift, 0, out=i1)
    # digits = (hi << 1 << (63 - right) | lo >> right) << left, in u5
    np.subtract(_U64(63), u0, out=u2)
    np.left_shift(u5, _U64(1), out=u5)
    np.left_shift(u5, u2, out=u5)
    np.right_shift(u6, u0, out=u3)
    np.bitwise_or(u5, u3, out=u5)
    np.left_shift(u5, u1, out=u5)
    # the bits dropped (u6), of weight W = 2^right (u2).  Half to even, 17
    # digits round up when 2 dropped + (digits odd) > W.  With 18 (b0) the
    # last digit goes too, and they round up when last + (dropped > 0 or
    # tenth odd) > 5
    np.left_shift(_U64(1), u0, out=u2)
    np.subtract(u2, _U64(1), out=u3)
    np.bitwise_and(u6, u3, out=u6)
    np.greater_equal(u5, _U64(10**17), out=b0)
    _split(u5, _U64(10), u3, u4)  # tenth, last
    np.minimum(u6, _U64(1), out=u7)
    np.bitwise_or(u7, u3, out=u7)
    np.bitwise_and(u7, _U64(1), out=u7)
    np.add(u4, u7, out=u4)
    np.greater(u4, _U64(5), out=b1)  # up18
    np.add(u6, u6, out=u6)
    np.bitwise_and(u5, _U64(1), out=u7)
    np.add(u6, u7, out=u6)
    np.greater(u6, u2, out=b2)  # up17
    # D = digits + up17 + b0 (tenth + up18 - digits - up17), modulo 2^64
    np.add(u5, b2, out=u5)
    np.add(u3, b1, out=u3)
    np.subtract(u3, u5, out=u3)
    np.multiply(u3, b0, out=u3)
    np.add(u5, u3, out=u5)
    np.add(k, b0, out=k)


def _format_block(s, rows):
    """CSV text of the first ``rows`` rows of ``s.values``: each value as
    ``"{:.17g}".format`` gives it, byte for byte, "," between columns and a
    newline after each row, as a new uint8 array.

    The digits come from ``_decimal17``.  Each value's text is laid out in a
    slot of four words, in one run of bytes with NUL around it: the sign and
    the "0.00" of fixed notation below 1, at the end of the first word; the
    17 digits with the point after digit k (fixed notation, -4 <= k < 17)
    or digit 0 (exponent notation), cut after the last nonzero digit of the
    fraction; the exponent; the separator.  All of it but the digits depends
    on k, the number nd of significant digits, the sign and whether the
    value ends its row alone, so one code of the four picks from the tables
    of ``_tables`` the lead and, for each of the three words of the digit
    field, the mask of the digits that move up one byte to make room for
    the point and the text that the word adds to its digits.  One selection
    of the bytes that are not NUL joins the slots.

    Zero is formatted here too: a run from x0 = 0 without input writes
    little else.  The other values outside [2^-36, 2^57): subnormals,
    smaller and larger magnitudes, inf and nan, are formatted by
    ``str.format`` itself, and their text (at most 24 bytes) fills the slot.
    """
    count = rows * s.width
    _decimal17(s, count)
    quad, parts, layout = _tables()
    values, slots, row_end = s.values[:count], s.slots[:count], s.row_end[:count]
    u0, u1, u2, u3, u4, u5, u6, u7 = (a[:count] for a in s.u)
    _, _, _, i3, i4, i5, i6, i7 = (a[:count] for a in s.u.view(np.int64))
    k, code = s.i[1, :count], s.i[4, :count]
    b0, b1, _, in_range, zero = (a[:count] for a in s.b)
    n0, n1 = (a[:count] for a in s.n)

    np.equal(values, 0.0, out=zero)  # zero takes the digits 0, so nd = 0
    np.copyto(u5, _U64(0), where=zero)
    # the digits D (u5) in groups of 4 + 4 | 4 + 4 | 1: g1 .. g4 (u4 .. u7)
    # and the last digit (u3)
    _split(u5, _U64(10**9), u0, u1)
    _split(u1, _U64(10), u2, u3)
    _split(u0, _U64(10**4), u4, u5)
    _split(u2, _U64(10**4), u6, u7)
    # the code, whose part 4 nd is the largest of the groups' parts
    np.take(parts[0], i4, out=n0, mode="clip")
    for part, group in zip(parts[1:], (i5, i6, i7, i3)):
        np.take(part, group, out=n1, mode="clip")
        np.maximum(n0, n1, out=n0)
    np.multiply(k, 72, out=code)
    np.add(code, n0, out=code)
    np.add(code, row_end, out=code)
    np.signbit(values, out=b0)
    np.add(code, b0, out=code)
    # the digits, one per byte and the most significant at byte 0, in u0,
    # u1 and u3; the zeros after the last significant digit are NUL
    for word, high, low in ((u0, i4, i5), (u1, i6, i7)):
        np.take(quad, high, out=word, mode="clip")
        np.take(quad, low, out=u2, mode="clip")
        np.left_shift(u2, _U64(32), out=u2)
        np.bitwise_or(word, u2, out=word)

    np.take(layout[6], code, out=u2, mode="clip")  # the lead
    slots[:, 0] = u2
    # in each word the digits from the point on (u2) move up one byte:
    # word + 255 u2 modulo 2^64, their top byte (u4) into the next word.
    # Then the word adds "0" to each digit of the text, and the point, the
    # exponent and the separator
    for w, word in enumerate((u0, u1, u3)):
        moved, added = layout[2 * w : 2 * w + 2]
        np.take(moved, code, out=u2, mode="clip")
        np.bitwise_and(word, u2, out=u2)
        np.multiply(u2, _U64(255), out=u5)
        np.add(word, u5, out=word)
        if w:
            np.bitwise_or(word, u4, out=word)
        if w < 2:
            np.right_shift(u2, _U64(56), out=u4)
        np.take(added, code, out=u5, mode="clip")
        np.bitwise_or(word, u5, out=slots[:, 1 + w])

    formatted = np.logical_or(in_range, zero, out=b1)
    if not formatted.all():
        others = np.logical_not(formatted, out=b1)
        texts = ["{:.17g}".format(v) for v in values[others].tolist()]
        slots[others, :3] = np.array(texts, dtype="S24").view(np.uint64).reshape(-1, 3)
        slots[others, 3] = np.where(row_end[others], ord("\n"), ord(","))
    text = slots.view(np.uint8).reshape(-1)
    keep_byte = s.text[: text.size]
    np.not_equal(text, 0, out=keep_byte)
    return text[keep_byte]
