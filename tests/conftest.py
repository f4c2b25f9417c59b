"""Shared test helpers: random pair generators with known ground truth.

Detectable pairs are built from a rejection-sampled observable core with
optional stable hidden (unobservable) modes attached through a
block-triangular embedding and a random orthogonal similarity, so both
the accept and reject paths have planted, known answers.
"""

import contextlib
import sys

import numpy as np

from sylvobs import obs_decompose, spectral_abscissa

# tolerance used by tests that classify planted hidden structure.  See the
# library docs: the eps-level default rank rule is for honest rank
# questions, not for structure buried under round-off.
STRUCT_TOL = 1e-9


def random_observable_pair(rng, n, p):
    while True:
        A = rng.standard_normal((n, n))
        C = rng.standard_normal((p, n))
        if obs_decompose(A, C).no == n:
            return A, C


def stable_matrix(rng, q, margin=0.5):
    """Random q x q matrix with spectral abscissa exactly -margin."""
    M = rng.standard_normal((q, q))
    return M - (spectral_abscissa(M) + margin) * np.eye(q)


def embed_hidden_modes(rng, Ao, Co, S):
    """Hide the modes of S behind (Ao, Co), then rotate orthogonally.

    Returns (A, C) where sigma(S) are exactly the unobservable modes.
    """
    no, q = Ao.shape[0], S.shape[0]
    n = no + q
    X = rng.standard_normal((q, no))
    Abar = np.block([[Ao, np.zeros((no, q))], [X, S]])
    Cbar = np.hstack([Co, np.zeros((Co.shape[0], q))])
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return Q.T @ Abar @ Q, Cbar @ Q


def random_detectable_pair(rng, n, p, n_hidden=None):
    """Detectable pair with ``n_hidden`` stable unobservable modes.

    Returns (A, C, hidden) where ``hidden`` is the planted unobservable
    spectrum (empty when the pair is observable).
    """
    if n_hidden is None:
        n_hidden = int(rng.integers(0, n - p + 1))
    if not 0 <= n_hidden <= n - p:
        raise ValueError("need 0 <= n_hidden <= n - p")
    Ao, Co = random_observable_pair(rng, n - n_hidden, p)
    if n_hidden == 0:
        return Ao, Co, np.zeros(0, dtype=complex)
    S = stable_matrix(rng, n_hidden)
    A, C = embed_hidden_modes(rng, Ao, Co, S)
    return A, C, np.linalg.eigvals(S).astype(complex)


def random_undetectable_pair(rng, n, p):
    """Pair with at least one planted unstable unobservable mode.

    Returns (A, C, bad) with ``bad`` the planted unstable mode.  Zeroing
    the first row and column of the stable S can leave other hidden modes
    unstable too, so ``bad`` need not list all of them.  Requires p < n.
    """
    q = int(rng.integers(1, n - p + 1))
    Ao, Co = random_observable_pair(rng, n - q, p)
    S = stable_matrix(rng, q)
    lam_u = float(rng.uniform(0.3, 2.0))
    S[0, :] = 0.0
    S[:, 0] = 0.0
    S[0, 0] = lam_u
    A, C = embed_hidden_modes(rng, Ao, Co, S)
    return A, C, np.array([lam_u], dtype=complex)


def random_stable_poles(rng, k):
    """Conjugate-closed spectrum with k values, all real parts negative."""
    poles = []
    left = k
    while left > 0:
        if left >= 2 and rng.random() < 0.4:
            re = -float(rng.uniform(0.5, 3.0))
            im = float(rng.uniform(0.2, 2.0))
            poles += [complex(re, im), complex(re, -im)]
            left -= 2
        else:
            poles.append(complex(-float(rng.uniform(0.5, 3.0))))
            left -= 1
    return np.array(poles)


def assert_multiset_close(got, expected, tol=1e-6):
    """Greedy conjugate-robust multiset match of two complex collections."""
    got = list(np.atleast_1d(np.asarray(got, dtype=complex)))
    expected = list(np.atleast_1d(np.asarray(expected, dtype=complex)))
    assert len(got) == len(expected), f"sizes differ: {len(got)} vs {len(expected)}"
    for e in expected:
        dists = [abs(g - e) for g in got]
        j = int(np.argmin(dists))
        assert dists[j] <= tol * (1.0 + abs(e)), (
            f"no match for {e}: nearest {got[j]} at distance {dists[j]}"
        )
        got.pop(j)


@contextlib.contextmanager
def recursion_headroom(frames):
    """Lower the recursion limit to the current stack depth plus ``frames``
    for the block, so a call that nests a frame per stage or pole fails."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)
