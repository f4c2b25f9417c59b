"""Output-injection gain synthesis.

``place_poles`` assigns an exact closed-loop spectrum ``A + K @ C`` for
observable pairs.  ``stabilizing_gain`` stabilizes any detectable pair.
Both decide observability by the one split of ``analysis``: poles go on
its observable block, its unobservable modes are left in place, and one
of them that is not stable makes the pair undetectable.  The placement is
the private ``_staircase_gain``, which takes a decomposition already
computed: ``stabilizing_gain`` calls it after its own, and the Sylvester
solve after the staircase that gave its verdict, so poles are placed on
exactly the block the verdict called observable.

The assignment works on the dual state-feedback problem ``(A11.T, C1.T)``
of that staircase, which is block upper Hessenberg on the staircase's
stage ranks r_1 >= r_2 >= ... and fed through its first block only (cf.
Van Dooren 1984; Miminis and Paige 1988).  Each stage takes a
conjugate-closed share of r_i targets, in descending (real, imag) order,
so the slowest go to the first stage.  The stages are then placed from
the last up, each on its own r_i x r_i block: given the gain of the
stages below, the top block that needs the least gain comes from one
small linear solve, and the stage's share is placed on it by the per-pole
rule.  The per-pole rule inserts one real eigenvalue, or one
complex-conjugate pair as a real 2x2 block, as an invariant subspace of
the closed loop, deflates it with a Householder similarity and recurses
on the remainder.  It finds each pole's null direction from the
least-norm input on a stage block, whose input has full row rank, if
that input's condition number is at most 1e2; and from an SVD of the
whole pencil on a more graded stage block and in the base case: from the
first stage that cannot take a conjugate-closed share (odd r_i and no
real target left, e.g. one output and complex targets) down, the rest of
the pair is placed pole by pole whole.  Gains stay real throughout;
repeated poles (single- or multi-output) are supported.  For p > 1 the
gain is not unique; the result is deterministic but only the spectrum is
contracted.
"""

import itertools

import numpy as np

from .analysis import _decompose, _undetectable, _unstable_hidden_modes
from .linalg import _rank_cutoff, as_matrix, as_square, eigenvalues, spectral_abscissa

__all__ = ["default_stable_poles", "place_poles", "stabilizing_gain"]

# imaginary parts below this (relative) size are snapped to the real axis
_REAL_SNAP = 1e-9
# conjugate-closure matching tolerance, relative to 1 + |pole|
_PAIR_TOL = 1e-9
# defensive gate on achieved characteristic coefficients (relative)
_COEFF_GATE = 1e-4
# largest condition number of a stage input whose poles are placed from
# least-norm inputs: their normal equations square it, to at most 1e4
_LEAST_NORM_COND = 1e2


def default_stable_poles(k):
    """Default stabilization targets: -1.0, -1.5, -2.0, ... (k values).

    Distinct real values avoid defective closed loops; the 0.5 spacing
    keeps conditioning moderate.
    """
    return -1.0 - 0.5 * np.arange(k, dtype=float) + 0j


def _as_pole_array(values, name="poles"):
    try:
        vals = np.atleast_1d(np.asarray(values, dtype=complex)).ravel()
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be numbers: {exc}") from None
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{name} must be finite")
    snap = np.abs(vals.imag) <= _REAL_SNAP * (1.0 + np.abs(vals.real))
    return np.where(snap, vals.real + 0j, vals)


def _check_conjugate_closed(vals, name="poles"):
    unmatched = [v for v in vals if v.imag != 0.0]
    while unmatched:
        v = unmatched.pop()
        target = np.conj(v)
        dists = [abs(target - u) for u in unmatched]
        tol = _PAIR_TOL * (1.0 + abs(v))
        if not dists or min(dists) > tol:
            raise ValueError(f"{name} must be closed under conjugation; {v} is unmatched")
        unmatched.pop(int(np.argmin(dists)))


def _pencil_directions(S, B):
    """Null directions ``(X, W)`` of ``[S, B]`` (real or complex S) as the
    columns of their state and input parts, largest state part first: one
    SVD of the pencil for an orthonormal null basis, one of its state part
    to order it.  Any B."""
    n, M = len(S), np.hstack([S, B])
    _, s, Vh = np.linalg.svd(M)
    N = Vh[int(np.count_nonzero(s > _rank_cutoff(M.shape, s, 0.0))):].conj().T
    V = np.linalg.svd(N[:n])[2].conj().T
    return N[:n] @ V, N[n:] @ V


def _least_norm_directions(S, B):
    """``_pencil_directions`` without those of zero state part, for B of
    full row rank (every stage block and its deflations).  The null space
    of ``[S, B]`` is then ``{(x, -P x)}`` plus ``{0} x null(B)``, with
    ``P = B+ S = B.T solve(B B.T, S)``, and the directions are
    ``(x_j, -P x_j)``, ``x_j = v_j / sqrt(1 + s_j^2)`` over the right
    singular vectors of P in ascending s: one solve and one SVD of order r.
    ``B B.T`` is diagonal for a stage block, whose rows are orthogonal, but
    not for its deflations: it squares their condition number, which is
    at most that of the stage block."""
    P = B.T @ np.linalg.solve(B @ B.T, S)
    _, s, Vh = np.linalg.svd(P, full_matrices=False)
    X = Vh[::-1].conj().T / np.sqrt(1.0 + s[::-1] ** 2)
    return X, -P @ X


def _insert_invariant_block(A, B, mu, directions):
    """Real F0 and an orthonormal basis U of the orthogonal complement of an
    (A + B F0)-invariant subspace, so that ``U.T (A + B F0) U`` deflates it.

    The invariant subspace carries eigenvalue ``mu`` (U has n - 1 columns)
    or the pair ``mu, conj(mu)`` (n - 2 columns, mu.imag > 0).  Derived from
    a null vector [x; w] of [A - mu*I, B]: then A x + B w = mu x, and any
    real F0 with F0 x = w makes x (or span{Re x, Im x}) invariant.  The
    caller names the rule ``directions`` (``_least_norm_directions`` on a
    stage block whose input is not graded, ``_pencil_directions`` on any
    other pair); its columns for ``A - mu*I`` are the candidates, then for
    a pair ``(x_j + i x_k) / sqrt(2)``.  U is the rest of one Householder
    reflector for a real x, and of a complete QR of [Re x, Im x] for a
    pair.
    """
    n = A.shape[0]
    X, W = directions(A - (mu.real if mu.imag == 0.0 else mu) * np.eye(n), B)
    if X.shape[1] == 0:
        raise np.linalg.LinAlgError(f"cannot assign eigenvalue {mu}: no null direction")
    candidates = zip(X.T, W.T)
    if mu.imag != 0.0:
        pairs = (
            ((X[:, j] + 1j * X[:, k]) / np.sqrt(2.0), (W[:, j] + 1j * W[:, k]) / np.sqrt(2.0))
            for j, k in itertools.combinations(range(X.shape[1]), 2)
        )
        candidates = itertools.chain(candidates, pairs)
    for x, w in candidates:
        nx = np.linalg.norm(x)
        if nx <= 1e-12:
            continue
        if mu.imag == 0.0:
            x, w = x.real, w.real
            F0 = np.outer(w, x) / float(x @ x)
            h = x / nx
            h[0] += np.copysign(1.0, h[0])
            return F0, np.eye(n)[:, 1:] - np.outer(h, h[1:] / abs(h[0]))
        M2 = np.column_stack([x.real, x.imag])
        s2 = np.linalg.svd(M2, compute_uv=False)
        if s2[-1] <= 1e-8 * s2[0]:
            continue
        F0 = np.column_stack([w.real, w.imag]) @ np.linalg.pinv(M2)
        return F0, np.linalg.qr(M2, mode="complete")[0][:, 2:]
    raise np.linalg.LinAlgError(f"cannot assign eigenvalue {mu}: degenerate null space")


def _placement_order(poles):
    """``poles`` as placement items: each real pole, and the +imag member of
    each conjugate pair, once, in descending (real, imag) order.  A complex
    pole takes the nearest conjugate of itself out of the rest as its
    partner."""
    rest = list(poles[np.lexsort((-poles.imag, -poles.real))])
    items = []
    while rest:
        mu = complex(rest.pop(0))
        if mu.imag != 0.0:
            mu = complex(mu.real, abs(mu.imag))
            rest.pop(min(range(len(rest)), key=lambda j: abs(rest[j] - mu.conjugate())))
        items.append(mu)
    return items


def _place_feedback(A, B, items, directions):
    """Real F with the spectrum of ``A + B @ F`` equal to the placement
    ``items`` (each pair item places both members), one pole at a time by
    the rule ``directions`` (see ``_insert_invariant_block``)."""
    if A.shape[0] == 0:
        return np.zeros((B.shape[1], 0))
    F0, U = _insert_invariant_block(A, B, items[0], directions)
    if U.shape[1] == 0:
        return F0
    G = _place_feedback(U.T @ (A + B @ F0) @ U, U.T @ B, items[1:], directions)
    return F0 + G @ U.T


def _take_share(items, r):
    """A conjugate-closed share of ``r`` poles of ``items``, and the items
    left, both in order.  Items are taken in order; a pair that overflows
    the share is passed over for a later real, and when only pairs remain
    for its last slot, the share's last real makes way for the first pair
    passed over.  ``(None, items)`` when r is odd and no real is left."""
    share, passed, left = [], [], r
    for j, mu in enumerate(items):
        if left == 0:
            return share, passed + items[j:]
        width = 1 if mu.imag == 0.0 else 2
        if width <= left:
            share.append(mu)
            left -= width
        else:
            passed.append(mu)
    if left == 0:
        return share, passed
    reals = [j for j, mu in enumerate(share) if mu.imag == 0.0]
    if not reals:
        return None, items
    j = reals[-1]
    return share[:j] + share[j + 1:] + passed[:1], [share[j], *passed[1:]]


def _stage_feedback(H, B, stages, poles):
    """Real F with the spectrum of ``H + B @ F`` equal to ``poles``, for a
    pair in the staircase form of ``ObsDecomposition``: H block upper
    Hessenberg with diagonal blocks of sizes ``stages``, and B zero below
    its first ``stages[0]`` rows.

    Stage i sees the pair from its block down, fed through the block to its
    left (through B for the first).  Stages take conjugate-closed shares of
    the poles in placement order, the first stage the slowest; from the
    first stage that cannot (odd size, no real pole left) down, the pair is
    placed whole by ``_place_feedback``.  The stages above it are placed
    from the last up by ``_stage_gain``, each on its own block given the
    gain of the stages below.
    """
    items = _placement_order(poles)
    shares = []
    for r in stages:
        share, rest = _take_share(items, r)
        if share is None:
            break
        shares.append(share)
        items = rest
    starts = np.cumsum((0, *stages))

    def stage_pair(i):
        o = starts[i]
        return H[o:, o:], B if i == 0 else H[o:, starts[i - 1]:o]

    K = _place_feedback(*stage_pair(len(shares)), items, _pencil_directions)
    for i in reversed(range(len(shares))):
        Hi, Bi = stage_pair(i)
        K = _stage_gain(Hi, Bi[: stages[i]], K, shares[i])
    return K


def _stage_gain(H, B1, K2, items):
    """Gain F of one stage: ``H + [B1; 0] F`` has the poles of ``items`` and
    those ``K2`` gave the stages below.  B1 (r rows, full row rank) is the
    stage's input block.

    With Z = [I, -K2] and E = K2 H[r:] - H[:r], any F with
    ``B1 F = D1 Z + E`` makes the closed loop similar to
    ``[[D1, 0], [H[r:, :r], H[r:, r:] + H[r:, :r] K2]]``.
    ``D1* = -E Z+`` minimises ``||D1 Z + E||``, and ``D1 = D1* + B1 G``
    takes the stage's poles by the per-pole rule on ``(D1*, B1)``; F is the
    least-norm solution.  Both solves are of order r.  The rows of B1 are
    orthogonal up to round-off (the staircase takes every block from an
    SVD), so ``B1 B1.T`` is diagonal up to round-off and its normal
    equations do not square the conditioning of B1.  So the ratio of its
    row norms is its condition number, which bounds its deflations': up to
    ``_LEAST_NORM_COND`` the poles are placed from least-norm inputs, and
    beyond it, where their normal equations would lose more than four
    digits, from the pencil."""
    r = B1.shape[0]
    E = K2 @ H[r:] - H[:r]
    EZt = E[:, :r] - E[:, r:] @ K2.T
    D = -np.linalg.solve(np.eye(r) + K2 @ K2.T, EZt.T).T
    norms = np.linalg.norm(B1, axis=1)
    graded = norms.max() > _LEAST_NORM_COND * norms.min()
    directions = _pencil_directions if graded else _least_norm_directions
    D += B1 @ _place_feedback(D, B1, items, directions)
    E[:, :r] += D
    E[:, r:] -= D @ K2
    return B1.T @ np.linalg.solve(B1 @ B1.T, E)


def _verify_assignment(Acl, poles):
    target = np.real(np.poly(poles))
    achieved = np.real(np.atleast_1d(np.poly(Acl)))
    err = np.max(np.abs(achieved - target)) / max(1.0, np.max(np.abs(target)))
    if err > _COEFF_GATE:
        raise np.linalg.LinAlgError(
            f"eigenvalue assignment failed verification (coefficient error {err:.2e})"
        )


def place_poles(Ao, Co, desired, tol=0.0):
    """Gain K making the spectrum of ``Ao + K @ Co`` equal to ``desired``.

    Parameters
    ----------
    Ao : (n, n) array_like
    Co : (p, n) array_like, nonzero
    desired : length-n sequence of numbers, closed under conjugation.
        Any target spectrum is allowed (not only stable ones).
    tol : float
        Rank cutoff for C and for the staircase of the observability
        split (see ``analysis``); 0 selects the default rules.

    Returns
    -------
    K : (n, p) ndarray

    Raises
    ------
    ValueError
        Unobservable pair, length mismatch, or targets not conjugate-closed.
    """
    A = as_square(Ao, "Ao")
    C = as_matrix(Co, "Co")
    n = A.shape[0]
    if C.shape[1] != n:
        raise ValueError(f"Co must have {n} columns, got {C.shape[1]}")
    poles = _as_pole_array(desired)
    if poles.size != n:
        raise ValueError(f"desired must list {n} poles, got {poles.size}")
    _check_conjugate_closed(poles, "desired")
    dec = _decompose(A, C, tol)
    if dec.no < n:
        raise ValueError("pair is not observable; exact eigenvalue assignment impossible")
    return dec.Tsim @ _place_output_injection(dec, poles)


def _place_output_injection(dec, poles):
    """Gain K1 placing ``poles`` as the spectrum of ``A11 + K1 C1``: the
    dual state feedback on the staircase, transposed back and verified."""
    K = _stage_feedback(dec.A11.T, dec.C1.T, dec.stages, poles).T
    _verify_assignment(dec.A11 + K @ dec.C1, poles)
    return K


def stabilizing_gain(Ao, Co, desired=None, tol=0.0):
    """Gain K making ``Ao + K @ Co`` Hurwitz stable, for detectable pairs.

    The pair is split as in :func:`obs_decompose` (``tol`` is its rank
    cutoff for C and the staircase), poles are placed on the observable
    block only, and the gain is embedded as ``Tsim @ [K1; 0]`` so the
    stable unobservable modes keep their eigenvalues in the closed loop.
    An observable pair gets a full spectrum assignment; a zero Co has an
    empty observable block, so the gain is zero and Ao must be stable.

    ``desired`` applies to the observable block and must match its
    dimension; all targets need negative real parts.  When omitted, the
    defaults from :func:`default_stable_poles` are used.

    Raises
    ------
    UndetectableError
        When an eigenvalue of the unobservable block is not stable
        (``Re >= -DEFAULTS.stability``); ``offending`` lists those values.
    """
    A = as_square(Ao, "Ao")
    C = as_matrix(Co, "Co")
    if C.shape[1] != A.shape[0]:
        raise ValueError(f"Co must have {A.shape[0]} columns, got {C.shape[1]}")
    dec = _decompose(A, C, tol)
    offending = _unstable_hidden_modes(eigenvalues(dec.A22))
    if offending:
        raise _undetectable(offending)
    return _staircase_gain(A, C, dec, desired)


def _staircase_gain(A, C, dec, desired):
    """``stabilizing_gain`` of a validated pair whose staircase ``dec`` has
    no unstable unobservable mode."""
    n = A.shape[0]
    if desired is None:
        poles = default_stable_poles(dec.no)
    else:
        poles = _as_pole_array(desired)
        if poles.size and np.max(poles.real) >= 0.0:
            raise ValueError("stabilization targets must have negative real parts")
        if poles.size != dec.no:
            raise ValueError(
                f"desired must list {dec.no} poles for the observable block, got {poles.size}"
            )
        _check_conjugate_closed(poles, "desired")
    if dec.no == 0:
        K = np.zeros((n, C.shape[0]))
    else:
        K = dec.Tsim[:, : dec.no] @ _place_output_injection(dec, poles)

    if spectral_abscissa(A + K @ C) >= 0.0:
        raise np.linalg.LinAlgError("stabilization failed verification")
    return K
