"""Output-injection gain synthesis.

``place_poles`` assigns an exact closed-loop spectrum ``A + K @ C`` for
observable pairs.  ``stabilizing_gain`` stabilizes any detectable pair
from the observability staircase alone: poles go on its observable block,
its unobservable modes are left in place, and one of them that is not
stable makes the pair undetectable.  No PBH sweep runs here.  The
placement is the private ``_staircase_gain``, which takes a staircase
already computed: ``stabilizing_gain`` calls it after its own, and the
Sylvester solve after the one that gave its verdict, so poles are placed
on exactly the block the verdict called observable.

The assignment algorithm works on the dual state-feedback problem
(A.T, C.T) and is recursive: each step inserts one real eigenvalue, or
one complex-conjugate pair as a real 2x2 block, as an invariant subspace
of the closed loop, deflates it with an orthogonal similarity, and
recurses on the remainder.  Gains stay real throughout; repeated poles
(single- or multi-output) are supported.  For p > 1 the gain is not
unique; the result is deterministic but only the spectrum is contracted.
"""

import numpy as np

from .analysis import _staircase, _undetectable, _unstable_hidden_modes, check_observability
from .linalg import _rank_cutoff, as_matrix, as_square, spectral_abscissa

__all__ = ["default_stable_poles", "place_poles", "stabilizing_gain"]

# imaginary parts below this (relative) size are snapped to the real axis
_REAL_SNAP = 1e-9
# conjugate-closure matching tolerance, relative to 1 + |pole|
_PAIR_TOL = 1e-9
# defensive gate on achieved characteristic coefficients (relative)
_COEFF_GATE = 1e-4


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


def _null_space(M, tol=0.0):
    """Orthonormal basis of the right null space (real or complex M)."""
    _, s, Vh = np.linalg.svd(M)
    r = int(np.count_nonzero(s > _rank_cutoff(M.shape, s, tol)))
    return Vh[r:].conj().T


def _insert_invariant_block(A, B, mu):
    """Real F0 and orthonormal Q spanning an (A + B F0)-invariant subspace.

    The invariant block carries eigenvalue ``mu`` (Q is n x 1) or the
    pair ``mu, conj(mu)`` (Q is n x 2, mu.imag > 0).  Derived from a
    null vector [x; w] of [A - mu*I, B]: then A x + B w = mu x, and any
    real F0 with F0 x = w makes x (or span{Re x, Im x}) invariant.
    """
    n = A.shape[0]
    if mu.imag == 0.0:
        M = np.hstack([A - mu.real * np.eye(n), B])
    else:
        M = np.hstack([A - mu * np.eye(n, dtype=complex), B.astype(complex)])
    N = _null_space(M)
    if N.shape[1] == 0:
        raise np.linalg.LinAlgError(f"cannot assign eigenvalue {mu}: no null direction")
    X, W = N[:n], N[n:]
    # pick null-space combinations with the largest state component first
    Vxh = np.linalg.svd(X)[2]
    basis = Vxh.conj().T
    candidates = [basis[:, j] for j in range(basis.shape[1])]
    if mu.imag != 0.0:
        for j in range(basis.shape[1]):
            for k in range(j + 1, basis.shape[1]):
                candidates.append((basis[:, j] + 1j * basis[:, k]) / np.sqrt(2.0))
    for v in candidates:
        x = X @ v
        w = W @ v
        nx = np.linalg.norm(x)
        if nx <= 1e-12:
            continue
        if mu.imag == 0.0:
            x, w = x.real, w.real
            F0 = np.outer(w, x) / float(x @ x)
            return F0, (x / nx).reshape(n, 1)
        M2 = np.column_stack([x.real, x.imag])
        s2 = np.linalg.svd(M2, compute_uv=False)
        if s2[-1] <= 1e-8 * s2[0]:
            continue
        F0 = np.column_stack([w.real, w.imag]) @ np.linalg.pinv(M2)
        return F0, np.linalg.qr(M2)[0]
    raise np.linalg.LinAlgError(f"cannot assign eigenvalue {mu}: degenerate null space")


def _pop_next_pole(poles):
    """Split poles into (mu, rest); mu is real or the +imag member of a pair.

    Poles are consumed in descending (real, imag) order; a complex pole
    consumes its conjugate partner from the list as well.
    """
    order = np.lexsort((-poles.imag, -poles.real))
    poles = poles[order]
    mu = complex(poles[0])
    rest = poles[1:]
    if mu.imag == 0.0:
        return mu, rest
    if mu.imag < 0.0:
        mu = np.conj(mu)
    j = int(np.argmin(np.abs(rest - np.conj(mu))))
    return mu, np.delete(rest, j)


def _place_feedback(A, B, poles):
    """Real F with the spectrum of ``A + B @ F`` equal to ``poles``."""
    n, m = A.shape[0], B.shape[1]
    if n == 0:
        return np.zeros((m, 0))
    mu, rest = _pop_next_pole(poles)
    F0, Q = _insert_invariant_block(A, B, mu)
    k = Q.shape[1]
    Qfull = np.linalg.qr(Q, mode="complete")[0]
    M = Qfull.T @ (A + B @ F0) @ Qfull
    Bt = Qfull.T @ B
    Ghat = _place_feedback(M[k:, k:], Bt[k:, :], rest)
    G = np.zeros((m, n))
    G[:, k:] = Ghat
    return F0 + G @ Qfull.T


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
        Rank tolerance forwarded to the observability check; 0 selects
        the default rule.

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
    if not check_observability(A, C, tol):
        raise ValueError("pair is not observable; exact eigenvalue assignment impossible")
    return _place_output_injection(A, C, poles)


def _place_output_injection(A, C, poles):
    # dualize to state feedback, place, transpose back; verify the result
    K = _place_feedback(A.T, C.T, poles).T
    _verify_assignment(A + K @ C, poles)
    return K


def stabilizing_gain(Ao, Co, desired=None, tol=0.0, stability_tol=None):
    """Gain K making ``Ao + K @ Co`` Hurwitz stable, for detectable pairs.

    The pair is staircase-decomposed, poles are placed on the observable
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
        (``Re >= -stability_tol``); ``offending`` lists those values.
    """
    A = as_square(Ao, "Ao")
    C = as_matrix(Co, "Co")
    if C.shape[1] != A.shape[0]:
        raise ValueError(f"Co must have {A.shape[0]} columns, got {C.shape[1]}")
    dec = _staircase(A, C, tol)
    offending = _unstable_hidden_modes(dec, stability_tol)
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
    elif dec.no == n:
        K = _place_output_injection(A, C, poles)
    else:
        K = dec.Tsim[:, : dec.no] @ _place_output_injection(dec.A11, dec.C1, poles)

    if spectral_abscissa(A + K @ C) >= 0.0:
        raise np.linalg.LinAlgError("stabilization failed verification")
    return K
