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
to integrator truncation.

One loop, ``_run``, makes every run: it checks everything first, then
integrates block by block, and sets each block's times, e, xhat and e_norms
before it yields the block.  ``simulate`` runs it over the whole trace.
``sylvobs simulate`` runs it through ``_summarize`` in a window of
``_BLOCK + 1`` samples, and writes and summarises each block as it comes, so
the command never holds the whole trace and its samples are ``simulate``'s.

The CSV holds every value as ``"{:.17g}".format`` writes it, byte for byte,
but the text comes from a numpy kernel, ``_format_block``, about
``_CSV_VALUES`` values at a time.  ``_decimal17`` finds the 17 digits from an
exact integer product (the mantissa times 5^q, in two 64-bit words) and
rounds them half to even from the bits shifted out.  The layout of %g (fixed
or exponent notation, the trailing zeros cut) is built in fixed slots, and
one selection of the bytes that are not padding joins them.  Zero and
magnitudes in [2^-36, 2^57) take this path.  Any other value (subnormal,
smaller, larger, inf or nan) is formatted by ``str.format`` itself, which is
thus both the exact path for those values and the tests' oracle.  Every
working array of the kernel lives in a ``_Scratch``, one anonymous memory
map per writer, so writing a CSV allocates nothing in the process heap but
each block's text.
"""

import functools
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
# values per block of the CSV writer (see _Scratch)
_CSV_VALUES = 4096
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
    n, m, p, q = plant.n, plant.m, plant.p, obs.order
    for name, given, shape in (("F", obs.F, (q, q)), ("G", obs.G, (q, p)), ("P", obs.P, (q, m)),
                               ("T", obs.T, (q, n)), ("W", obs.W, (n, n))):
        if given.shape != shape:
            raise ValueError(f"observer {name} must have shape {shape} for this plant, "
                             f"got {given.shape}")
    x0 = as_vector(x0, "x0", n)
    z0 = as_vector(z0, "z0", q)
    steps = cfg.step_count()
    dt = cfg.dt
    _check_step_stability(plant, obs, dt)

    u = cfg.input_signal
    if u is None:
        zero = np.zeros(m)
        u = lambda t: zero
    u_start = as_vector(u(0.0), "input_signal(0)", m)  # fail fast on wrong input width

    # coupled linear system: d[x; z]/dt = Abig [x; z] + Bbig u(t)
    N = n + q
    Abig = np.zeros((N, N))
    Abig[:n, :n] = plant.A
    Abig[n:, :n] = obs.G @ plant.C
    Abig[n:, n:] = obs.F
    M, W_T, M_L = _step_maps(Abig, np.vstack([plant.B, obs.P]), dt)

    rows = _BLOCK + 1 if window else steps + 1
    # the window is an anonymous memory map of its own, returned whole when
    # the run ends: it leaves no hole in the heap of a process that runs
    # the command again and again
    flat = _anonymous(8 * rows * (2 * N + 2)).view(np.float64) if window else None
    trace, states = _trace_buffer(rows, n, q, flat)
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
            for r, t in enumerate((np.arange(2 * lo + 1, 2 * hi + 1) * (0.5 * dt)).tolist(), 1):
                uv[r] = u(t)
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
    """Run ``simulate`` in a window of ``_BLOCK + 1`` samples instead of the
    whole trace.

    Returns ``error_metrics`` of the trace and the step and time of its
    first non-finite sample, or None.  With ``csv``, a path, the trace is
    written there as ``write_trace_csv`` writes it, byte for byte.  Every
    check runs before the file is opened.
    """
    window, blocks = _run(plant, obs, x0, z0, cfg, window=True)
    initial = None
    nonfinite = None
    with open(csv, "wb") if csv else nullcontext() as fh:
        if fh is not None:
            n, q = window.x.shape[1], window.z.shape[1]
            fh.write(_csv_header(n, q).encode("ascii"))
            scratch = _Scratch(2 * (n + q) + 2)
        for start, block in blocks:
            if fh is not None:
                _write_csv_rows(fh.write, _csv_columns(block), scratch)
            if initial is None:
                initial = float(block.e_norms[0])
            # a non-finite x or z sample makes its e = z - T x sample
            # non-finite, so the short scan of e_norms gates the row-wise scan
            if nonfinite is None and not np.isfinite(block.e_norms).all():
                finite = np.isfinite(block.x).all(axis=1) & np.isfinite(block.z).all(axis=1)
                if not finite.all():
                    row = int(np.argmin(finite))
                    nonfinite = (start + row, float(block.times[row]))
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
    n, q = trace.x.shape[1], trace.z.shape[1]
    header = _csv_header(n, q)
    scratch = _Scratch(2 * (n + q) + 2)
    if hasattr(path_or_file, "write"):
        path_or_file.write(header)
        _write_csv_rows(lambda text: path_or_file.write(text.tobytes().decode("ascii")),
                        _csv_columns(trace), scratch)
    else:
        with open(path_or_file, "wb") as fh:
            fh.write(header.encode("ascii"))
            _write_csv_rows(fh.write, _csv_columns(trace), scratch)


def _csv_header(n, q):
    return ",".join(
        ["t"]
        + [f"x_{i + 1}" for i in range(n)]
        + [f"z_{i + 1}" for i in range(q)]
        + [f"e_{i + 1}" for i in range(q)]
        + [f"xhat_{i + 1}" for i in range(n)]
        + ["e_norm"]
    ) + "\n"


def _csv_columns(trace):
    return (
        trace.times[:, None],
        trace.x,
        trace.z,
        trace.e,
        trace.xhat,
        trace.e_norms[:, None],
    )


def _write_csv_rows(write, columns, scratch):
    """Pass the CSV rows of ``columns`` (2-D arrays side by side) to
    ``write``, ``"{:.17g}".format`` of every value byte for byte, as uint8
    arrays of ASCII text.

    The rows are copied into ``scratch`` and formatted there by
    ``_format_block``, ``scratch.rows`` at a time.  No per-row list or
    string is made, and the only heap allocation per block is the text
    itself.
    """
    total, step = len(columns[0]), scratch.rows
    for lo in range(0, total, step):
        rows = min(step, total - lo)
        block = scratch.values[: rows * scratch.width].reshape(rows, scratch.width)
        np.concatenate([c[lo : lo + rows] for c in columns], axis=1, out=block)
        write(_format_block(scratch, rows))


def _format_g17(values):
    """CSV text of a 2-D float array, as ``_write_csv_rows`` writes it."""
    values = np.asarray(values, dtype=np.float64)
    texts = []
    _write_csv_rows(texts.append, (values,), _Scratch(values.shape[1]))
    return b"".join(t.tobytes() for t in texts).decode("ascii")


def _packed(texts):
    """ASCII byte strings of at most 8 bytes as little-endian uint64 words,
    NUL-padded: byte i of a text is bits 8i .. 8i + 7 of its word."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), "<u8").astype(np.uint64)


_U64 = np.uint64
# binary exponents e2 (2^e2 <= |x| < 2^(e2 + 1)) that _format_block formats
# itself: those whose scale 10^q = 5^q 2^q has q = 0 .. 27, so that 5^q fits
# one word (5^27 < 2^64 <= 5^28).  That is |x| in [2^-36, 2^57), about
# [1.5e-11, 1.4e17)
_E2_MIN, _E2_MAX = -36, 56
_POW5 = np.array([5**q for q in range(28)], dtype=np.uint64)
# the 24-byte digit field is three words; in word w, _BELOW[w, P] masks the
# field's bytes 0 .. P - 1 and _POINT[w, P] is "." at its byte P
_BELOW = np.array([[sum(0xFF << 8 * (j - 8 * w) for j in range(8 * w, min(P, 8 * w + 8)))
                    for P in range(25)] for w in range(3)], dtype=np.uint64)
_POINT = np.array([[0x2E << 8 * (P - 8 * w) if 8 * w <= P < 8 * w + 8 else 0 for P in range(25)]
                   for w in range(3)], dtype=np.uint64)
# the exponent ("e-05") at bytes 2 .. 5 of a slot's last word, by decimal
# exponent k; empty where %g writes k in fixed notation (-4 <= k < 17)
_K_MIN = -16
_EXPONENT = _packed([b"\0\0" + b"e%+03d" % k if not -4 <= k < 17 else b""
                     for k in range(_K_MIN, 25)])
# sign and the "0.0.." of fixed notation below 1, by 2 * (-k) + sign bit
_LEAD = _packed([sign + (b"0." + b"0" * (z - 1) if z else b"")
                 for z in range(5) for sign in (b"", b"-")])
_COMMA, _NEWLINE = _U64(ord(",") << 48), _U64(ord("\n") << 48)
_LOW32 = _U64(2**32 - 1)


def _anonymous(nbytes):
    """``nbytes`` zero bytes in an anonymous memory map of their own, as a
    uint8 array.  The map is returned whole when the array is dropped, and
    the process heap never sees it."""
    return np.frombuffer(mmap.mmap(-1, nbytes), np.uint8)


@functools.cache
def _quad_tables():
    """Four ASCII digits of each of 0 .. 9999 in one word, and the trailing
    zero digits of each (4 for 0).

    Built on first use, so that a process that writes no CSV does not hold
    them, and kept in a map of their own: made in the heap, they would stay
    wherever the heap had room at that moment, for the life of the process.
    """
    table = _anonymous(9 * 10000)
    quad, zeros = table[:80000].view(np.uint64), table[80000:]
    for j in range(4):
        quad |= (np.arange(10000, dtype=np.uint64) // _U64(10 ** (3 - j)) % _U64(10)
                 + _U64(ord("0"))) << _U64(8 * j)
        zeros += np.arange(10000, dtype=np.uint16) % np.uint16(10 ** (j + 1)) == 0
    return quad, zeros


class _Scratch:
    """Every working array of ``_format_block`` for blocks of ``rows`` rows
    of ``width`` values, in one anonymous memory map.

    ``rows`` is ``_CSV_VALUES // width`` (at least one row), so the map
    holds 224 bytes per value, near 1 MB.  A writer makes one
    ``_Scratch`` and formats every block in it; the map goes back whole
    when the writer ends.  Formatting thus adds no array to the process
    heap but the text it returns: with temporaries of a few tens of KiB
    per block, the heap's layout after a CSV, and so where later large
    arrays land and how much memory the process peaks at, would depend
    on the history of the process.
    """

    # rows of each kind of working array (uint64, intp, bool)
    _U, _I, _B = 8, 10, 7

    def __init__(self, width):
        self.width = width
        self.rows = max(1, _CSV_VALUES // width)
        size = self.rows * width
        buf = _anonymous((8 + 32 + 8 * (self._U + self._I) + self._B + 32 + 1) * size)
        offset = 0

        def carve(dtype, count):
            nonlocal offset
            arr = np.frombuffer(buf, dtype, count, offset)
            offset += arr.nbytes
            return arr

        self.values = carve(np.float64, size)
        self.slots = carve(np.uint64, 4 * size).reshape(size, 4)
        self.u = carve(np.uint64, self._U * size).reshape(self._U, size)
        self.i = carve(np.intp, self._I * size).reshape(self._I, size)
        self.b = carve(np.bool_, self._B * size).reshape(self._B, size)
        self.text = carve(np.bool_, 32 * size)
        self.small = carve(np.uint8, size)


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
    in ``s.b[5]``, each over ``count`` values, and overwrites ``s.u[:8]``,
    ``s.i[:4]`` and ``s.b[:5]``.  The other
    values are taken with e2 clipped into the range; their D and k are of
    no use.
    """
    bits = s.values[:count].view(np.uint64)
    u0, u1, u2, u3, u4, u5, u6, u7 = (a[:count] for a in s.u[:8])
    e2, k, q, shift = (a[:count] for a in s.i[:4])
    b0, b1, b2, b3, b4, in_range = (a[:count] for a in s.b[:6])

    np.right_shift(bits, _U64(52), out=u0)
    np.bitwise_and(u0, _U64(0x7FF), out=u0)
    e2[...] = u0
    np.subtract(e2, 1023, out=e2)
    np.greater_equal(e2, _E2_MIN, out=in_range)
    np.less_equal(e2, _E2_MAX, out=b0)
    np.logical_and(in_range, b0, out=in_range)
    np.clip(e2, _E2_MIN, _E2_MAX, out=e2)
    np.multiply(e2, 78913, out=k)
    np.right_shift(k, 18, out=k)  # floor(e2 log10 2) for |e2| < 1650
    np.subtract(16, k, out=q)
    np.subtract(e2, 52, out=shift)
    np.add(shift, q, out=shift)
    # the product m 5^q = hi 2^64 + lo, from 32-bit halves: m in u3 (low)
    # and u4 (high), 5^q in u5 (low) and u2 (high)
    np.bitwise_and(bits, _U64(2**52 - 1), out=u1)
    np.bitwise_or(u1, _U64(2**52), out=u1)
    np.bitwise_and(u1, _LOW32, out=u3)
    np.right_shift(u1, _U64(32), out=u4)
    np.take(_POW5, q, out=u2, mode="clip")
    np.bitwise_and(u2, _LOW32, out=u5)
    np.right_shift(u2, _U64(32), out=u2)
    np.multiply(u3, u5, out=u6)  # lo
    np.multiply(u3, u2, out=u7)  # cross1
    np.multiply(u4, u5, out=u3)  # cross2
    np.multiply(u4, u2, out=u5)  # hi
    np.right_shift(u6, _U64(32), out=u2)  # mid
    np.bitwise_and(u7, _LOW32, out=u4)
    np.add(u2, u4, out=u2)
    np.bitwise_and(u3, _LOW32, out=u4)
    np.add(u2, u4, out=u2)
    np.right_shift(u7, _U64(32), out=u7)
    np.add(u5, u7, out=u5)
    np.right_shift(u3, _U64(32), out=u3)
    np.add(u5, u3, out=u5)
    np.right_shift(u2, _U64(32), out=u4)
    np.add(u5, u4, out=u5)
    np.bitwise_and(u6, _LOW32, out=u6)
    np.left_shift(u2, _U64(32), out=u2)
    np.bitwise_or(u6, u2, out=u6)
    # |x| 10^q = (hi 2^64 + lo) 2^shift, with -62 <= shift <= 4 (and hi = 0
    # when shift > 0): the bits shifted out all lie in lo.  right in u0,
    # left in u1
    np.negative(shift, out=q)
    np.maximum(q, 0, out=q)
    u0[...] = q
    np.maximum(shift, 0, out=q)
    u1[...] = q
    # digits = (hi << 1 << (63 - right) | lo >> right) << left, in u5
    np.subtract(_U64(63), u0, out=u2)
    np.left_shift(u5, _U64(1), out=u5)
    np.left_shift(u5, u2, out=u5)
    np.right_shift(u6, u0, out=u3)
    np.bitwise_or(u5, u3, out=u5)
    np.left_shift(u5, u1, out=u5)
    # the bits dropped (u6), and half of their weight (u2)
    np.left_shift(_U64(1), u0, out=u2)
    np.subtract(u2, _U64(1), out=u3)
    np.bitwise_and(u6, u3, out=u6)
    np.right_shift(u2, _U64(1), out=u2)
    # with 18 digits (b0) the last one goes too, and it decides the
    # rounding together with the bits below it
    np.greater_equal(u5, _U64(10**17), out=b0)
    np.divmod(u5, _U64(10), out=(u3, u4))  # tenth, last
    np.greater(u4, _U64(5), out=b1)
    np.equal(u4, _U64(5), out=b2)
    np.not_equal(u6, _U64(0), out=b3)
    np.bitwise_and(u3, _U64(1), out=u7)
    np.not_equal(u7, _U64(0), out=b4)
    np.logical_or(b3, b4, out=b3)
    np.logical_and(b2, b3, out=b2)
    np.logical_or(b1, b2, out=b1)  # round up, with 18 digits
    np.greater(u6, u2, out=b2)
    np.equal(u6, u2, out=b3)
    np.not_equal(u0, _U64(0), out=b4)
    np.logical_and(b3, b4, out=b3)
    np.bitwise_and(u5, _U64(1), out=u7)
    np.not_equal(u7, _U64(0), out=b4)
    np.logical_and(b3, b4, out=b3)
    np.logical_or(b2, b3, out=b2)  # round up, with 17 digits
    np.copyto(b2, b1, where=b0)
    np.copyto(u5, u3, where=b0)
    np.add(u5, b2, out=u5)
    np.add(k, b0, out=k)


def _format_block(s, rows):
    """CSV text of the first ``rows`` rows of ``s.values``: each value as
    ``"{:.17g}".format`` gives it, byte for byte, "," between columns and a
    newline after each row, as a new uint8 array.

    The digits come from ``_decimal17``.  Each value's text is laid out in a
    slot of four words, with NUL bytes where %g writes nothing: the sign and
    the "0.00" of fixed notation below 1; the 17 digits with the point after
    digit k (fixed notation, -4 <= k < 17) or digit 0 (exponent notation),
    cut after the last nonzero digit of the fraction; the exponent; the
    separator.  One selection of the bytes that are not NUL joins the
    slots.

    Zero is formatted here too: a run from x0 = 0 without input writes
    little else.  The other values outside [2^-36, 2^57): subnormals,
    smaller and larger magnitudes, inf and nan, are formatted by
    ``str.format`` itself, and their text (at most 24 bytes) fills the slot.
    """
    count = rows * s.width
    _decimal17(s, count)
    quad, quad_zeros = _quad_tables()
    bits = s.values[:count].view(np.uint64)
    slots = s.slots[:count]
    u0, u1, u2, u3, u4, u5, u6, _ = (a[:count] for a in s.u)
    sign, k, g1, g2, g3, g4, nd, idx, point, keep = (a[:count] for a in s.i)
    b0, b1, b2, b3, _, in_range, zero = (a[:count] for a in s.b)
    small = s.small[:count]

    np.left_shift(bits, _U64(1), out=u0)
    np.equal(u0, _U64(0), out=zero)
    np.copyto(k, 0, where=zero)
    # the digits D (u5) in groups of 4 + 4 | 4 + 4 | 1, as table indices
    # g1 .. g4 and the last digit (u2)
    np.divmod(u5, _U64(10**9), out=(u0, u1))
    np.divmod(u1, _U64(10), out=(u3, u2))
    np.divmod(u0, _U64(10**4), out=(u1, u4))
    g1[...], g2[...] = u1, u4
    np.divmod(u3, _U64(10**4), out=(u1, u4))
    g3[...], g4[...] = u1, u4
    # significant digits: 17 less the trailing zeros
    np.take(quad_zeros, g1, out=small, mode="clip")
    np.subtract(4, small, out=nd)
    for g, length in ((g2, 8), (g3, 12), (g4, 16)):
        np.not_equal(g, 0, out=b0)
        np.take(quad_zeros, g, out=small, mode="clip")
        np.subtract(length, small, out=idx)
        np.copyto(nd, idx, where=b0)
    np.not_equal(u2, _U64(0), out=b0)
    np.copyto(nd, 17, where=b0)
    np.copyto(nd, 1, where=zero)
    # the digits in ASCII, most significant at byte 0, in three words
    # (u0, u3, u4)
    np.take(quad, g1, out=u0, mode="clip")
    np.take(quad, g2, out=u1, mode="clip")
    np.left_shift(u1, _U64(32), out=u1)
    np.bitwise_or(u0, u1, out=u0)
    np.take(quad, g3, out=u3, mode="clip")
    np.take(quad, g4, out=u1, mode="clip")
    np.left_shift(u1, _U64(32), out=u1)
    np.bitwise_or(u3, u1, out=u3)
    np.add(u2, _U64(ord("0")), out=u4)
    np.copyto(u0, _U64(ord("0")), where=zero)

    # the point goes before byte `point` of the digit field, which keeps its
    # first `keep` bytes.  In fixed notation (b1) below 1 (b2) the point is
    # in the lead and `point` = 17 lies past the digits
    np.greater_equal(k, -4, out=b1)
    np.less(k, 17, out=b2)
    np.logical_and(b1, b2, out=b1)
    np.less(k, 0, out=b2)
    np.logical_and(b1, b2, out=b2)
    np.add(k, 1, out=point)
    np.logical_not(b1, out=b3)
    np.copyto(point, 1, where=b3)
    np.copyto(point, 17, where=b2)
    np.add(nd, 1, out=keep)
    np.less_equal(nd, point, out=b3)
    np.copyto(keep, point, where=b3)
    np.copyto(keep, nd, where=b2)
    # the lead, by 2 * (-k below 1, else 0) + sign bit
    np.negative(k, out=idx)
    np.logical_not(b2, out=b3)
    np.copyto(idx, 0, where=b3)
    np.multiply(idx, 2, out=idx)
    np.right_shift(bits, _U64(63), out=u1)
    sign[...] = u1
    np.add(idx, sign, out=idx)
    np.take(_LEAD, idx, out=u1, mode="clip")
    slots[:, 0] = u1
    # bytes from `point` on move up one, the top byte of a word into the
    # next (u6); u1 masks the bytes below the point, u2 holds those above
    for w, word in enumerate((u0, u3, u4)):
        np.take(_BELOW[w], point, out=u1, mode="clip")
        np.invert(u1, out=u2)
        np.bitwise_and(word, u2, out=u2)
        np.bitwise_and(word, u1, out=word)
        np.left_shift(u2, _U64(8), out=u5)
        np.bitwise_or(word, u5, out=word)
        if w:
            np.bitwise_or(word, u6, out=word)
        np.take(_POINT[w], point, out=u5, mode="clip")
        np.bitwise_or(word, u5, out=word)
        np.take(_BELOW[w], keep, out=u5, mode="clip")
        np.bitwise_and(word, u5, out=word)
        slots[:, 1 + w] = word
        np.right_shift(u2, _U64(56), out=u6)
    np.subtract(k, _K_MIN, out=idx)
    np.take(_EXPONENT, idx, out=u1, mode="clip")
    slots[:, 3] |= u1

    others = np.logical_or(in_range, zero, out=b3)
    np.logical_not(others, out=others)
    if others.any():
        texts = ["{:.17g}".format(v) for v in s.values[:count][others].tolist()]
        slots[others, :3] = np.array(texts, dtype="S24").view(np.uint64).reshape(-1, 3)
        slots[others, 3] = 0
    separators = slots.reshape(rows, s.width, 4)[..., 3]
    separators[:, :-1] |= _COMMA
    separators[:, -1] |= _NEWLINE
    text = slots.view(np.uint8).reshape(-1)
    keep_byte = s.text[: text.size]
    np.not_equal(text, 0, out=keep_byte)
    return text[keep_byte]
