"""Independent outcome checks for the sylvobs benchmark.

Every operation's outcome is judged here with the benchmark's own numpy
(and ``scipy.linalg.expm``) code, never with the library's
``verify_solution``.  A failed operation is labelled with the gate it hit:

- ``undetectable``: wrong detectability verdict, or the wrong eigenvalue named;
- ``placement``: pole placement failed, ``F`` is not Hurwitz, or a planted
  hidden mode ``lam`` is missing from ``F`` (``F - lam I`` is not singular);
- ``verification``: residual, ``sigma_min([C; T])``, rank of ``T`` or ``P = T B``;
- ``recombination``: ``W [C; T] != I``;
- ``nonfinite_trace``: the co-simulated error is not finite;
- ``decay_mismatch``: the error departs from ``expm(F t) e(0)``;
- ``exit_code``: a command's exit status, or the output it claims to have
  written, disagrees with the expected outcome.

An outcome is ``wrong`` when the library handed back an answer as if it
were right and the check refutes it (an observer that fails a check, a
wrong verdict, a finite trace that does not decay as it must).  Failures
the library reports itself, by raising or by a non-finite trace, are
counted as failed but are not wrong answers.
"""

import json
import os
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

GATES = (
    "undetectable",
    "placement",
    "verification",
    "recombination",
    "nonfinite_trace",
    "decay_mismatch",
    "exit_code",
)

RESIDUAL_RTOL = 1e-8
MIN_STACKED_SV = 1e-10
RECOMBINATION_TOL = 1e-6
EIG_MATCH = 1e-6
# F - lam I must be singular to within this many ulps of ||F||.  The spectrum
# of the (often far from normal) F is too ill-conditioned to compare directly.
HIDDEN_SV_ULPS = 64
DECAY_RTOL = 1e-6
SAMPLES_CHECKED = 16

# module of the library's innermost frame -> the gate its exception belongs to
_GATE_OF_MODULE = {"gains": "placement", "sylvester": "verification", "observer": "recombination"}


@dataclass(frozen=True)
class Outcome:
    gate: str | None = None
    wrong: bool = False

    @property
    def ok(self):
        return self.gate is None


OK = Outcome()


def gate_of_exception(exc):
    """Gate of a library exception, from the innermost library module it left."""
    gate = "verification"
    tb = exc.__traceback__
    while tb is not None:
        path = tb.tb_frame.f_code.co_filename
        if os.path.basename(os.path.dirname(path)) == "sylvobs":
            gate = _GATE_OF_MODULE.get(os.path.splitext(os.path.basename(path))[0], gate)
        tb = tb.tb_next
    return gate


def _rank(M):
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.count_nonzero(s > max(M.shape) * np.finfo(float).eps * s[0]))


def observer_gate(A, B, C, F, G, P, T, W, hidden=()):
    """First gate a candidate observer fails, or None when it passes all."""
    n, p = A.shape[0], C.shape[0]
    q = n - p
    if not all(np.all(np.isfinite(M)) for M in (F, G, P, T, W)):
        return "verification"
    if T.shape != (q, n) or F.shape != (q, q) or G.shape != (q, p) or W.shape != (n, n):
        return "verification"
    residual = np.linalg.norm(T @ A - F @ T - G @ C)
    if residual > RESIDUAL_RTOL * (1.0 + np.linalg.norm(A)):
        return "verification"
    stacked = np.vstack([C, T])
    if np.linalg.svd(stacked, compute_uv=False)[-1] <= MIN_STACKED_SV:
        return "verification"
    if _rank(T) != q:
        return "verification"
    if np.linalg.norm(P - T @ B) > RESIDUAL_RTOL * (1.0 + np.linalg.norm(T) * np.linalg.norm(B)):
        return "verification"
    if q:
        if np.max(np.linalg.eigvals(F).real) >= 0.0:
            return "placement"
        cutoff = HIDDEN_SV_ULPS * np.finfo(float).eps * (1.0 + np.linalg.norm(F))
        for lam in hidden:
            if np.linalg.svd(F - lam * np.eye(q), compute_uv=False)[-1] > cutoff:
                return "placement"
    if np.linalg.norm(W @ stacked - np.eye(n)) > RECOMBINATION_TOL * n:
        return "recombination"
    return None


def check_design(case, obs, exc, undetectable_error):
    """Outcome of ``synthesize_observer(Plant(A, B, C))`` on a generated case."""
    if exc is not None:
        if isinstance(exc, undetectable_error):
            if case.expect != "undetectable":
                return Outcome("undetectable", True)
            named = [complex(v) for v in getattr(exc, "offending", ())]
            if any(abs(v - case.offending) <= EIG_MATCH * (1.0 + abs(case.offending)) for v in named):
                return OK
            return Outcome("undetectable", True)
        if case.expect == "undetectable":
            return Outcome("undetectable", False)
        return Outcome(gate_of_exception(exc), False)
    if case.expect == "undetectable":
        return Outcome("undetectable", True)
    gate = observer_gate(case.A, case.B, case.C, obs.F, obs.G, obs.P, obs.T, obs.W, case.hidden)
    return OK if gate is None else Outcome(gate, True)


def error_gate(times, e, x, e0, A, C, T, F, G):
    """Gate a recorded error trace fails against ``expm(F t) e(0)``, or None.

    Checks every sample for finiteness and ``SAMPLES_CHECKED`` evenly spaced
    samples (the last included) against the closed form.  An accepted
    solution leaves a residual ``R = T A - F T - G C``, which drives the error
    as ``de/dt = F e - R x``; the allowance adds that forcing's bound
    ``max ||expm(F t)|| * ||R|| * int ||x|| dt`` to the integrator tolerance.
    """
    if not np.all(np.isfinite(e)):
        return "nonfinite_trace"
    picks = np.unique(np.linspace(0, len(times) - 1, SAMPLES_CHECKED).round().astype(int))
    flows = [expm(F * times[k]) for k in picks]
    growth = max([1.0] + [np.linalg.norm(E, 2) for E in flows])
    xn = np.linalg.norm(x, axis=1)
    x_integral = np.concatenate([[0.0], np.cumsum(0.5 * (xn[1:] + xn[:-1]) * np.diff(times))])
    forcing = growth * np.linalg.norm(T @ A - F @ T - G @ C, 2)
    for k, E in zip(picks, flows):
        allowed = DECAY_RTOL * (1.0 + np.linalg.norm(e0)) + forcing * x_integral[k]
        if np.linalg.norm(e[k] - E @ e0) > allowed:
            return "decay_mismatch"
    return None


def check_cosim(case, obs, result, exc):
    """Outcome of ``simulate`` + ``error_metrics`` against the closed-form decay."""
    if exc is not None:
        return Outcome(gate_of_exception(exc), False)
    trace, metrics = result
    e0 = case.z0 - obs.T @ case.x0
    gate = error_gate(trace.times, trace.e, trace.x, e0, case.A, case.C, obs.T, obs.F, obs.G)
    if gate is None and not np.all(np.isfinite(list(metrics.values()))):
        gate = "nonfinite_trace"
    if gate is None:
        return OK
    return Outcome(gate, gate != "nonfinite_trace")


def read_matrix_file(path):
    """The benchmark's own reader of the JSON matrix format."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {k: np.array(v["data"], dtype=float).reshape(v["rows"], v["cols"]) for k, v in doc.items()}


def check_cli_check(code, stdout):
    """``check --json`` on a detectable plant: exit 0 and a detectable verdict."""
    if code != 0:
        return Outcome("exit_code", code == 2)
    try:
        verdict = json.loads(stdout)
    except ValueError:
        return Outcome("exit_code", True)
    return OK if verdict.get("detectable") is True else Outcome("undetectable", True)


def check_cli_observe(case, code, out_path):
    """``observe --json --out``: exit 0, and the written observer re-checks."""
    if code != 0:
        return Outcome("exit_code", False)
    try:
        obs = read_matrix_file(out_path)
    except (OSError, ValueError, KeyError):
        return Outcome("exit_code", True)
    gate = observer_gate(case.A, case.B, case.C, *(obs[k] for k in "FGPTW"))
    return OK if gate is None else Outcome(gate, True)


def check_cli_simulate(case, code, obs_path, csv_path, steps, dt):
    """``simulate --observer --csv``: exit 0, row count, and sample rows.

    The ``e`` columns must equal ``z - T x`` on each row and follow
    ``expm(F t) e(0)`` on the sampled rows.
    """
    if code != 0:
        return Outcome("exit_code", False)
    try:
        obs = read_matrix_file(obs_path)
        rows = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError, KeyError):
        return Outcome("exit_code", True)
    n, q = case.n, case.n - case.p
    if rows.shape != (steps + 1, 2 * n + 2 * q + 2):
        return Outcome("exit_code", True)
    t, x, z, e = rows[:, 0], rows[:, 1:1 + n], rows[:, 1 + n:1 + n + q], rows[:, 1 + n + q:1 + n + 2 * q]
    if np.max(np.abs(t - dt * np.arange(steps + 1))) > 1e-9 * dt * steps:
        return Outcome("exit_code", True)
    T = obs["T"]
    tol = DECAY_RTOL * (1.0 + np.linalg.norm(T) * np.max(np.linalg.norm(x, axis=1)))
    if np.max(np.linalg.norm(e - (z - x @ T.T), axis=1), initial=0.0) > tol:
        return Outcome("decay_mismatch", True)
    gate = error_gate(t, e, x, case.z0 - T @ case.x0, case.A, case.C, T, obs["F"], obs["G"])
    return OK if gate is None else Outcome(gate, gate != "nonfinite_trace")
