"""Seeded, numpy-only input generator for the sylvobs benchmark.

Every input comes from ``numpy.random.default_rng((seed, stream, instance))``
and plain numpy arithmetic, never from the library under test, so the same
seed gives byte-identical inputs.  ``instance`` picks one of the plants a
run cycles through for each cell, so a run's timings average over several
plants per cell instead of resting on one draw.  Each case
carries the answer planted in it (hidden spectrum, offending eigenvalue,
scale factor, stiff poles); the outcome checks in ``checks.py`` compare
against those answers.

Each workload has two pools.  The timed pool holds the cells the library
solves on every draw today, so no timed operation fails.  The probe pool
holds the cells it fails on today (the known defects); the traced run runs
it once and reports its failures by gate.  A cell is never dropped from both,
and a seed is never chosen, to make a failure go away.
"""

from dataclasses import dataclass

import numpy as np

# (n, p) plain pairs, planted hidden modes (n, p, hidden dimension) and planted
# undetectable pairs (n, p) that the library got right on 2000 of 2000 draws.
# No plain pair of the n x p in {1, 2, n/8} grid above n = 8 verified on every
# draw, so plain pairs have p = n/4.
PLAIN_CELLS = ((8, 2), (32, 8), (64, 16))
HIDDEN_CELLS = ((8, 2, 2), (16, 2, 3), (32, 4, 4), (64, 8, 4))
UNDETECTABLE_CELLS = ((32, 4), (64, 8))
# known defects: the rest of the n x p in {1, 2, n/8} grid (n16-p2 and n32-p4
# fail verification on about one draw in 500 to 1000, n8-p1 and n64-p8 on a
# few in 30, n16-p1 on most, the others on all); undetectable pairs at n = 8,
# where about one draw in 500 raises LinAlgError instead of naming the
# unstable mode; and A scaled by 1e-6 and 1e6
DEFECT_CELLS = ((8, 1), (16, 1), (16, 2), (32, 1), (32, 2), (32, 4), (64, 1), (64, 2),
                (64, 8), (128, 1), (128, 2), (128, 16))
UNDETECTABLE_DEFECT_CELLS = ((8, 1), (8, 2))
SCALED_CELLS = ((8, 2), (16, 2))
SCALES = (1e-6, 1e6)

COSIM_CELLS = ((2, 1), (8, 2), (32, 4))
# stiff observers: poles in [-5000, -3000], outside RK4's region at dt = 1e-3
# (the observer orders are 1 and 2: stiff targets of higher order fail synthesis)
STIFF_CELLS = ((2, 1), (8, 6))
STIFF_RANGE = (-5000.0, -3000.0)

CLI_CELLS = ((4, 1), (16, 2), (32, 4))

_STREAMS = {"design": 1, "cosim": 2, "cli": 3}
_PROBE_STREAM = 10


@dataclass(frozen=True, eq=False)
class Case:
    """One generated plant and the outcome planted in it.

    ``expect`` is ``"observer"`` when a verified observer must come back
    and ``"undetectable"`` when the correct outcome is an
    ``UndetectableError`` naming ``offending``.
    """

    name: str
    kind: str
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    expect: str = "observer"
    hidden: tuple = ()
    offending: float | None = None
    scale: float = 1.0
    poles: tuple | None = None
    x0: np.ndarray | None = None
    z0: np.ndarray | None = None

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def p(self):
        return self.C.shape[0]


def _rng(seed, workload, instance, probes=False):
    stream = _STREAMS[workload] + (_PROBE_STREAM if probes else 0)
    return np.random.default_rng((int(seed), stream, int(instance)))


def _orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.where(np.diag(R) < 0.0, -1.0, 1.0)


def _plain(rng, n, p, m=1):
    return rng.standard_normal((n, n)), rng.standard_normal((n, m)), rng.standard_normal((p, n))


def _planted(rng, n, p, modes):
    """Pair whose unobservable subspace carries exactly the eigenvalues ``modes``.

    Built in staircase form ``[[A11, 0], [A21, A22]]``, ``C = [C1, 0]`` with
    triangular ``A22``, then rotated by a random orthogonal matrix.
    """
    h = len(modes)
    A = rng.standard_normal((n, n))
    A[: n - h, n - h:] = 0.0
    A[n - h:, n - h:] = np.triu(rng.standard_normal((h, h)), 1) + np.diag(modes)
    C = rng.standard_normal((p, n))
    C[:, n - h:] = 0.0
    Q = _orthogonal(rng, n)
    return Q @ A @ Q.T, rng.standard_normal((n, 1)), C @ Q.T


def _stable(rng, n, p, margin=0.5):
    A0 = rng.standard_normal((n, n))
    shift = np.max(np.linalg.eigvals(A0).real) + margin
    return A0 - shift * np.eye(n), rng.standard_normal((n, 1)), rng.standard_normal((p, n))


def design_pool(seed, instance, probes=False):
    """Timed pool: plain pairs, planted hidden modes and undetectable pairs.

    With ``probes``, the known defects instead: the failing plain cells,
    undetectable pairs at n = 8 and scaled ``A``.
    """
    rng = _rng(seed, "design", instance, probes)
    if probes:
        pool = [Case(f"plain-n{n}-p{p}", "plain", *_plain(rng, n, p)) for n, p in DEFECT_CELLS]
        pool += [_undetectable(rng, n, p) for n, p in UNDETECTABLE_DEFECT_CELLS]
        for n, p in SCALED_CELLS:
            A, B, C = _plain(rng, n, p)
            pool += [Case(f"scaled{s:.0e}-n{n}-p{p}", "scaled", s * A, B, C, scale=s)
                     for s in SCALES]
        return pool
    pool = [Case(f"plain-n{n}-p{p}", "plain", *_plain(rng, n, p)) for n, p in PLAIN_CELLS]
    for n, p, h in HIDDEN_CELLS:
        modes = np.sort(-rng.uniform(1.0, 3.0, h))
        A, B, C = _planted(rng, n, p, modes)
        pool.append(Case(f"hidden-n{n}-p{p}", "hidden", A, B, C, hidden=tuple(modes)))
    return pool + [_undetectable(rng, n, p) for n, p in UNDETECTABLE_CELLS]


def _undetectable(rng, n, p):
    bad = float(rng.uniform(0.5, 2.0))
    A, B, C = _planted(rng, n, p, [bad, -float(rng.uniform(1.0, 3.0))])
    return Case(f"undetectable-n{n}-p{p}", "undetectable", A, B, C,
                expect="undetectable", offending=bad)


def _with_states(rng, case_args, name, kind, poles=None):
    A, B, C = case_args
    n, p = A.shape[0], C.shape[0]
    return Case(name, kind, A, B, C, poles=poles,
                x0=rng.standard_normal(n), z0=rng.standard_normal(n - p))


def cosim_pool(seed, instance, probes=False):
    """Timed pool: stable plants at n in {2, 8, 32}; probes: stiff observers."""
    rng = _rng(seed, "cosim", instance, probes)
    if not probes:
        return [_with_states(rng, _stable(rng, n, p), f"stable-n{n}-p{p}", "stable")
                for n, p in COSIM_CELLS]
    pool = []
    for n, p in STIFF_CELLS:
        poles = tuple(np.linspace(STIFF_RANGE[0], STIFF_RANGE[1], n - p))
        pool.append(_with_states(rng, _stable(rng, n, p), f"stiff-n{n}-p{p}", "stiff", poles))
    return pool


def cli_pool(seed, instance, probes=False):
    """One stable plant per size, each with initial states for ``simulate``.

    ``cli`` has no known-defect cells, so its probe pool is empty.
    """
    if probes:
        return []
    rng = _rng(seed, "cli", instance)
    return [_with_states(rng, _stable(rng, n, p), f"plant-n{n}-p{p}", "stable")
            for n, p in CLI_CELLS]
