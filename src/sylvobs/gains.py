"""Output-injection gain synthesis.

``place_poles`` assigns an exact closed-loop spectrum ``A + K @ C`` for
observable pairs.  ``stabilizing_gain`` stabilizes any detectable pair.
Both decide observability by the one split of ``analysis``: poles go on
its observable block, its unobservable modes are left in place, and one
of them that is not stable makes the pair undetectable.  The placement is
the private ``_staircase_gain``, which takes a decomposition already
computed: ``stabilizing_gain`` calls it after its own, and the Sylvester
solve after the staircase that gave its verdict, so poles are placed on
exactly the block the verdict called observable.  Its gain is checked
twice: the achieved characteristic coefficients against the targets'
here, and the stability of the closed loop by ``_placement_gate``, which
``stabilizing_gain`` applies to ``A + K @ C`` and the solve to the F of
its verification report, so F's spectrum is computed once.  Every target
list, the defaults too, passes one check, ``_targets``.

The assignment works on the dual state-feedback problem ``(A11.T, C1.T)``
of that staircase, block upper Hessenberg on its stage ranks r_1 >= r_2
>= ... and fed through its first block only (cf. Van Dooren 1984; Miminis
and Paige 1988).  Each stage takes a conjugate-closed share of r_i
targets, in descending (real, imag) order, so the slowest go to the first
stage.  The stages are placed from the last up, each on its own r_i x r_i
block: given the gain of the stages below, the stage's input has full row
rank, so its block can be set to any real matrix, and it is set to the
real block-diagonal matrix of its share in one step (``mu`` for a real
pole, ``[[a, b], [-b, a]]`` for a pair ``a + ib``); one small linear solve
gives the least-norm gain that does so.  A stage whose input rows are
graded (norm ratio above ``_LEAST_NORM_COND``) keeps the per-pole rule
instead, and so does the base case: from the first stage that cannot take
a conjugate-closed share (odd r_i and no real target left, e.g. one output
and complex targets) down, the pair is placed pole by pole whole.  That
rule inserts one real eigenvalue, or one complex-conjugate pair as a real
2x2 block, as an invariant subspace of the closed loop and deflates it to
``U.T A U``, U the rest of a Householder reflector (the step's gain
vanishes on U), taking its null direction from an SVD of the pencil; the
last pole, on a 1x1 block, takes its gain directly.  Gains stay real;
repeated poles are supported.  For p > 1 the gain is not unique; it is
deterministic, but only the spectrum is contracted.
"""

import itertools
import math

import numpy as np

from .analysis import _decompose, _undetectable, _unstable_hidden_modes
from .linalg import DEFAULTS, _as_pair, _eigenvalues, _rank_cutoff, _spectral_abscissa

__all__ = ["default_stable_poles", "place_poles", "stabilizing_gain"]

# imaginary parts below this (relative) size are snapped to the real axis
_REAL_SNAP = 1e-9
# conjugate-closure matching tolerance, relative to 1 + |pole|
_PAIR_TOL = 1e-9
# defensive gate on achieved characteristic coefficients (relative)
_COEFF_GATE = 1e-4
# largest condition number of a stage input whose block is set to its
# targets directly; a more graded stage input takes the per-pole rule
_LEAST_NORM_COND = 1e2


def default_stable_poles(k):
    """Default stabilization targets: -1.0, -1.5, -2.0, ... (k values).

    Distinct real values avoid defective closed loops; the 0.5 spacing
    keeps conditioning moderate.
    """
    return -1.0 - 0.5 * np.arange(k, dtype=float) + 0j


def _targets(desired, k, stable):
    """``(poles, items)``: the targets ``desired`` of a block of order ``k``,
    checked once (numbers, finite, snapped to the real axis within
    ``_REAL_SNAP``, stable by the verdict's band when ``stable``, ``k`` of
    them), and their ``_placement_order``."""
    try:
        poles = np.asarray(desired, dtype=complex).ravel()
    except (TypeError, ValueError) as exc:
        raise ValueError(f"desired must be numbers: {exc}") from None
    if not np.all(np.isfinite(poles)):
        raise ValueError("desired must be finite")
    snap = np.abs(poles.imag) <= _REAL_SNAP * (1.0 + np.abs(poles.real))
    poles = np.where(snap, poles.real + 0j, poles)
    if stable and _unstable_hidden_modes(poles):
        raise ValueError(f"desired must have real parts below -{DEFAULTS.stability:g}")
    if poles.size != k:
        raise ValueError(f"desired must list {k} poles, got {poles.size}")
    return poles, _placement_order(poles)


def _pencil_directions(S, B, k=None):
    """The first ``k`` (default all) null directions ``(X, W)`` of ``[S, B]``
    (real or complex S) as the columns of their state and input parts,
    largest state part first: one SVD of the pencil for an orthonormal null
    basis, one of its state part to order it.  Any B."""
    n, M = len(S), np.hstack([S, B])
    _, s, Vh = np.linalg.svd(M)
    N = Vh[int(np.count_nonzero(s > _rank_cutoff(M.shape, s, 0.0))):].conj().T
    V = np.linalg.svd(N[:n])[2][:k].conj().T
    return N[:n] @ V, N[n:] @ V


def _insert_invariant_block(A, B, mu):
    """Real F0 and an orthonormal basis U of the orthogonal complement of an
    (A + B F0)-invariant subspace, so that ``U.T (A + B F0) U`` deflates it.

    The subspace carries ``mu`` (U has n - 1 columns) or the pair ``mu,
    conj(mu)`` (n - 2 columns, mu.imag > 0): a null vector [x; w] of
    [A - mu*I, B] has A x + B w = mu x, so a real F0 with F0 x = w makes x
    (or span{Re x, Im x}) invariant.  A real mu takes the first of the
    ``_pencil_directions``, of largest state part, and U is the rest of its
    Householder reflector; a pair tries their columns, then ``(x_j + i x_k)
    / sqrt(2)``, and U is the rest of a complete QR of [Re x, Im x].  A 1 x 1
    block [a] with input row b needs no SVD: its null vector of largest
    state part, ``|b| / hypot(a - mu, |b|)``, gives ``F0 = (mu - a) b.T /
    (b b.T)``; b = 0 takes only ``mu == a``, with F0 = 0.
    """
    n = A.shape[0]
    if n == 1:
        d, nb = mu.real - A[0, 0], math.sqrt(B[0] @ B[0])
        if d == nb == 0.0 or nb / math.hypot(d, nb) > 1e-12:
            return B.T * (d / nb / nb if nb else 0.0), np.empty((1, 0))
    elif mu.imag == 0.0:
        S = A.copy()
        S.flat[:: n + 1] -= mu.real
        X, W = _pencil_directions(S, B, 1)
        x = X[:, 0]
        xx = float(x @ x)
        nx = math.sqrt(xx)
        if nx > 1e-12:
            return np.outer(W[:, 0], x) / xx, _reflector_rest(x / nx)
    else:
        X, W = _pencil_directions(A - mu * np.eye(n), B)
        pairs = (((X[:, j] + 1j * X[:, k]) / np.sqrt(2.0), (W[:, j] + 1j * W[:, k]) / np.sqrt(2.0))
                 for j, k in itertools.combinations(range(X.shape[1]), 2))
        for x, w in itertools.chain(zip(X.T, W.T), pairs):
            M2 = np.column_stack([x.real, x.imag])
            s2 = np.linalg.svd(M2, compute_uv=False)
            if np.linalg.norm(x) > 1e-12 and s2[-1] > 1e-8 * s2[0]:
                F0 = np.column_stack([w.real, w.imag]) @ np.linalg.pinv(M2)
                return F0, np.linalg.qr(M2, mode="complete")[0][:, 2:]
    raise np.linalg.LinAlgError(f"cannot assign eigenvalue {mu}: degenerate null space")


def _reflector_rest(h):
    """The last n - 1 columns of the Householder reflector that maps the unit
    vector h to a multiple of e_0: an orthonormal basis of h's complement."""
    n = h.size
    h[0] += math.copysign(1.0, h[0])
    U = h[:, None] * (h[1:] / -abs(h[0]))
    U.reshape(-1)[n - 1 :: n] += 1.0
    return U


def _placement_order(poles):
    """``poles`` as placement items: each real pole, and each conjugate pair
    once, in descending (real, imag) order, a pair by its member that comes
    first made +imag.  The pairs are a maximum matching (augmenting paths)
    of +imag to -imag members, b a partner of a when ``|b - conj(a)| <=
    _PAIR_TOL * (1 + max(|a|, |b|))``; members of one sign are never that
    near after ``_REAL_SNAP``, so an unmatched one has no pairing at all."""
    values = poles.tolist()
    upper = [j for j, v in enumerate(values) if v.imag > 0.0]
    lower = [j for j, v in enumerate(values) if v.imag < 0.0]
    owner = {}

    def augment(i, seen):
        a = values[i]
        for j in lower:
            b = values[j]
            if j not in seen and abs(b - a.conjugate()) <= _PAIR_TOL * (1.0 + max(abs(a), abs(b))):
                seen.add(j)
                if j not in owner or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    for i in upper:
        augment(i, set())
    partner = {**owner, **{i: j for j, i in owner.items()}}
    for j in upper + lower:
        if j not in partner:
            raise ValueError(f"desired must be closed under conjugation; {poles[j]} is unmatched")
    items, placed = [], set()
    for j in np.lexsort((-poles.imag, -poles.real)).tolist():
        if partner.get(j) not in placed:
            placed.add(j)
            items.append(complex(values[j].real, abs(values[j].imag)))
    return items


def _place_feedback(A, B, items):
    """Real F with the spectrum of ``A + B @ F`` equal to the placement ``items``
    (a pair item places both members), any B: one deflation per item
    (``_insert_invariant_block``), the gains composed last first.  Each
    step's ``F0 = W X+`` vanishes on its U, which is orthogonal to X, so the
    deflated block ``U.T (A + B F0) U`` is ``U.T A U``."""
    F, steps = np.zeros((B.shape[1], 0)), []
    for mu in items:
        F, U = _insert_invariant_block(A, B, mu)
        if U.shape[1] == 0:
            break
        steps.append((F, U))
        A, B = U.T @ A @ U, U.T @ B
    for F0, U in reversed(steps):
        F = F0 + F @ U.T
    return F


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


def _stage_feedback(H, B, stages, items):
    """Real F with the spectrum of ``H + B @ F`` equal to the placement
    ``items`` (``_placement_order``), for a pair in the staircase form of
    ``ObsDecomposition``: H block upper Hessenberg with diagonal blocks of
    sizes ``stages``, and B zero below its first ``stages[0]`` rows.

    Stage i sees the pair from its block down, fed through the block to its
    left (through B for the first).  Stages take conjugate-closed shares of
    the items in order, the first stage the slowest; from the first stage
    that cannot (odd size, no real pole left) down, the pair is placed
    whole by ``_place_feedback``.  The stages above it are placed from the
    last up by ``_stage_gain``, each on its own block given the gain of the
    stages below.
    """
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

    K = _place_feedback(*stage_pair(len(shares)), items)
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
    ``[[D1, 0], [H[r:, :r], H[r:, r:] + H[r:, :r] K2]]``, and F is the
    least-norm solution, one solve of order r.  As B1 has full row rank, D1
    can be any real r x r matrix: it is ``_share_block(items)``, which has
    the stage's poles by construction.  The rows of B1 are orthogonal up to
    round-off (the staircase takes every block from an SVD: a stage's basis
    is its coupling's left singular vectors), so ``B1 B1.T`` is diagonal up
    to round-off, and the ratio of its row norms is the condition number of
    B1.  Beyond ``_LEAST_NORM_COND`` the stage is graded, and a block set
    directly would be amplified by it into F; there ``D1* = -E Z+``
    minimises ``||D1 Z + E||``, and ``D1 = D1* + B1 G`` takes the stage's
    poles by the per-pole rule on ``(D1*, B1)``."""
    r = B1.shape[0]
    E = K2 @ H[r:] - H[:r]
    norms = np.sqrt(np.add.reduce(B1 * B1, axis=1))
    if norms.max() > _LEAST_NORM_COND * norms.min():
        EZt = E[:, :r] - E[:, r:] @ K2.T
        D = -np.linalg.solve(np.eye(r) + K2 @ K2.T, EZt.T).T
        D += B1 @ _place_feedback(D, B1, items)
    else:
        D = _share_block(items)
    E[:, :r] += D
    E[:, r:] -= D @ K2
    return B1.T @ np.linalg.solve(B1 @ B1.T, E)


def _share_block(items):
    """The real block-diagonal matrix of the placement ``items``: ``mu`` for
    a real pole, ``[[a, b], [-b, a]]`` for a pair item ``a + ib``, in
    descending modulus.  The rows of a stage input come in descending norm
    (its coupling's singular values), so the targets that need the most
    input go where the input is strongest, and the gain is smaller."""
    r = sum(1 if mu.imag == 0.0 else 2 for mu in items)
    D, k = np.zeros((r, r)), 0
    for mu in sorted(items, key=abs, reverse=True):
        if mu.imag == 0.0:
            D[k, k] = mu.real
            k += 1
        else:
            D[k : k + 2, k : k + 2] = [[mu.real, mu.imag], [-mu.imag, mu.real]]
            k += 2
    return D


def _char_poly(roots):
    """Coefficients of ``prod(x - roots)``, highest power first, in the dtype
    of ``roots``: one in-place product per root, as ``np.poly`` forms them."""
    a = np.zeros(roots.size + 1, roots.dtype)
    a[0] = 1.0
    for k, z in enumerate(roots.tolist()):
        a[1 : k + 2] -= z * a[: k + 1]
    return a


def _verify_assignment(Acl, poles):
    """The coefficient gate: the characteristic coefficients of ``Acl`` must
    match those of ``poles`` to ``_COEFF_GATE`` relative.  Where the product
    loop's coefficients overflow, ``np.poly``'s, whose NaNs differ, give the
    verdict.  An error that is still NaN fails the gate when the targets'
    coefficients are finite; when they overflow too, no verdict can be read
    off them and the gate passes, leaving the result to the stability gate
    and, in the solve, to its residual, ``[C; T]`` and rank gates."""
    with np.errstate(over="ignore", invalid="ignore"):
        roots = np.linalg.eigvals(Acl)
        for char_poly in (_char_poly, np.poly):
            target, achieved = np.real(char_poly(poles)), np.real(char_poly(roots))
            err = np.max(np.abs(achieved - target)) / max(1.0, np.max(np.abs(target)))
            if math.isfinite(err):
                break
    if err > _COEFF_GATE or (math.isnan(err) and np.isfinite(target).all()):
        raise np.linalg.LinAlgError(
            f"eigenvalue assignment failed verification (coefficient error {err:.2e})"
        )


def place_poles(Ao, Co, desired, tol=0.0):
    """Gain K making the spectrum of ``Ao + K @ Co`` equal to ``desired``.

    Parameters
    ----------
    Ao : (n, n) array_like
    Co : (p, n) array_like
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
        Unobservable pair, or not n finite, conjugate-closed targets.
    """
    A, C = _as_pair(Ao, Co, ("Ao", "Co"))
    poles, items = _targets(desired, A.shape[0], stable=False)
    dec = _decompose(A, C, tol)
    if dec.no < A.shape[0]:
        raise ValueError("pair is not observable; exact eigenvalue assignment impossible")
    return dec.Tsim @ _place_output_injection(dec, poles, items)


def _place_output_injection(dec, poles, items):
    """Gain K1 placing ``poles``, in placement order ``items``, as the
    spectrum of ``A11 + K1 C1``: the dual state feedback on the staircase,
    transposed back and verified."""
    K = _stage_feedback(dec.A11.T, dec.C1.T, dec.stages, items).T
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
    dimension; each target needs ``Re < -DEFAULTS.stability``, the band of
    a stable hidden mode.  By default :func:`default_stable_poles`.

    Raises
    ------
    UndetectableError
        When an eigenvalue of the unobservable block is not stable
        (``Re >= -DEFAULTS.stability``); ``offending`` lists those values.
    """
    A, C = _as_pair(Ao, Co, ("Ao", "Co"))
    dec = _decompose(A, C, tol)
    offending = _unstable_hidden_modes(_eigenvalues(dec.A22))
    if offending:
        raise _undetectable(offending)
    K = _staircase_gain(A, C, dec, desired)
    _placement_gate(_spectral_abscissa(A + K @ C))
    return K


def _placement_gate(abscissa):
    """The placement gate: a closed loop's spectral abscissa must be < 0."""
    if abscissa >= 0.0:
        raise np.linalg.LinAlgError("stabilization failed verification")


def _staircase_gain(A, C, dec, desired):
    """``stabilizing_gain`` of a validated pair whose staircase ``dec`` has
    no unstable unobservable mode, before the caller's ``_placement_gate``."""
    desired = default_stable_poles(dec.no) if desired is None else desired
    poles, items = _targets(desired, dec.no, stable=True)
    if dec.no == 0:
        return np.zeros((A.shape[0], C.shape[0]))
    return dec.Tsim[:, : dec.no] @ _place_output_injection(dec, poles, items)
