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
to integrator truncation.

One loop, ``_run``, makes every run: it checks everything first, then
integrates block by block, and sets each block's times, e, xhat and e_norms
before it yields the block.  ``simulate`` runs it over the whole trace.
``sylvobs simulate`` runs it through ``_summarize`` in a window of
``_BLOCK + 1`` samples, and writes and summarises each block as it comes, so
the command never holds the whole trace and its samples are ``simulate``'s.
One writer, ``_csv_writer``, writes every CSV: ``write_trace_csv`` gives it
the whole trace, ``_summarize`` each block in turn, so both write the same
bytes.

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
from contextlib import nullcontext, suppress
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
# values per block of the CSV writer (see _Scratch)
_CSV_VALUES = 8192
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
    M, W_T, M_L = _step_maps(Abig, np.vstack([plant.B, obs.P]), dt)

    trace, states = _trace_buffer(_BLOCK + 1 if window else steps + 1, n, q)
    states[0, :n] = x0
    states[0, n:] = z0

    def blocks():
        c = np.empty((_BLOCK // _GROUP, N))
        tmp = np.empty((_BLOCK // _GROUP + 1, N))
        yz = np.empty((_BLOCK + 1, n))
        # within a block, uv[2j] = u(t_j) and uv[2j + 1] = u(t_j + dt/2), so
        # row j of uv_windows is the 3m-vector [u0; uh; u1] of the block's step j
        uv = np.empty((2 * _BLOCK + 1, m))
        uv_windows = sliding_window_view(uv.reshape(-1), 3 * m)[:: 2 * m]
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
            np.matmul(uv_windows[:k], W_T, out=states[a + 1 : a + k + 1])
            _recur(states[a : a + k + 1], M, M_L, c, tmp)
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
    called once per time like any other callable.
    """
    if type(u) in (ConstantInput, SinusoidInput):
        return u._fill

    def call_each(times, out):
        for r, t in enumerate(times.tolist()):
            out[r] = u(t)

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
    runs before the file is opened.  A run that fails after it removes a
    regular file named by the path itself (no device, FIFO or symbolic
    link): its rows would be a prefix of no finished trace.
    """
    window, blocks = _run(plant, obs, x0, z0, cfg, window=True)
    initial = None
    nonfinite = None
    fh = open(csv, "wb") if csv else nullcontext()
    owned = False
    try:
        with fh:
            if csv:
                st = os.fstat(fh.fileno())
                owned = stat.S_ISREG(st.st_mode) and os.path.samestat(st, os.lstat(csv))
            write_block, flush = (_csv_writer(fh.write, window) if csv
                                  else (lambda block: None, lambda: None))
            for start, block in blocks:
                write_block(block)
                if initial is None:
                    initial = float(block.e_norms[0])
                # a non-finite x or z sample makes its e = z - T x sample
                # non-finite, so the short scan of e_norms gates the row-wise scan
                if nonfinite is None and not np.isfinite(block.e_norms).all():
                    finite = np.isfinite(block.x).all(axis=1) & np.isfinite(block.z).all(axis=1)
                    if not finite.all():
                        row = int(np.argmin(finite))
                        nonfinite = (start + row, float(block.times[row]))
            flush()
    except BaseException:
        if owned:
            with suppress(OSError):  # the run's own error is the one to report
                os.remove(csv)
        raise
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
    exactly through decimal text.  A path is written as bytes, with LF
    line ends on every platform; a file object gets the same text as
    ``str``.
    """
    if hasattr(path_or_file, "write"):
        fh = nullcontext()
        write = lambda text: path_or_file.write(bytes(text).decode("ascii"))
    else:
        fh = open(path_or_file, "wb")
        write = fh.write
    with fh:
        write_block, flush = _csv_writer(write, trace)
        write_block(trace)
        flush()


def _csv_writer(write, trace):
    """Write the CSV header of traces shaped as ``trace`` through ``write``,
    as ASCII bytes, and return the function that writes the rows of one
    ``SimulationTrace`` (a whole trace or a block of one) through it and
    the function that writes the rows it still holds.

    Every block is formatted in the one ``_Scratch`` of the writer, and a
    kernel call may span blocks, so a run's rows take the fewest calls.
    """
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
    scratch = _Scratch(len(header))

    def write_block(b):
        columns = (b.times[:, None], b.x, b.z, b.e, b.xhat, b.e_norms[:, None])
        _write_csv_rows(write, columns, scratch)

    return write_block, lambda: _flush_csv_rows(write, scratch)


def _write_csv_rows(write, columns, scratch):
    """Pass the CSV rows of ``columns`` (2-D arrays side by side) to
    ``write``, ``"{:.17g}".format`` of every value byte for byte, as uint8
    arrays of ASCII text.

    The rows are copied into ``scratch`` after the ``scratch.held`` rows it
    holds, and formatted there by ``_format_block`` each time it is full;
    ``_flush_csv_rows`` writes the rest.  No per-row list or string is
    made, and the only heap allocation per call of the kernel is the text
    itself.
    """
    total, width = len(columns[0]), scratch.width
    lo = 0
    while lo < total:
        held = scratch.held
        rows = min(scratch.rows - held, total - lo)
        block = scratch.values[held * width : (held + rows) * width].reshape(rows, width)
        np.concatenate([c[lo : lo + rows] for c in columns], axis=1, out=block)
        scratch.held += rows
        lo += rows
        if scratch.held == scratch.rows:
            _flush_csv_rows(write, scratch)


def _flush_csv_rows(write, scratch):
    """Pass the CSV rows that ``scratch`` holds to ``write``, if any."""
    if scratch.held:
        write(_format_block(scratch, scratch.held))
        scratch.held = 0


def _format_g17(values):
    """CSV text of a 2-D float array, as ``_write_csv_rows`` writes it."""
    values = np.asarray(values, dtype=np.float64)
    texts = []
    scratch = _Scratch(values.shape[1])
    _write_csv_rows(texts.append, (values,), scratch)
    _flush_csv_rows(texts.append, scratch)
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


class _Scratch:
    """Every working array of ``_format_block`` for blocks of ``rows`` rows
    of ``width`` values.

    ``rows`` is ``_CSV_VALUES // width`` (at least one row), so the arrays
    hold 186 bytes per value, near 1.5 MB.  A writer makes one
    ``_Scratch`` and formats every block in it, so the only allocation per
    block is the text it returns.
    """

    def __init__(self, width):
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
