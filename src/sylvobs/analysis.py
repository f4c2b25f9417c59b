"""Observability and detectability analysis of a measurement pair (A, C).

The per-eigenvalue test is the PBH rank criterion: an eigenvalue ``lam``
of A is observable iff the stacked matrix ``[C; lam*I - A]`` has full
column rank n (evaluated in complex arithmetic).  A pair is detectable
iff every unstable eigenvalue is observable.

``obs_decompose`` computes the orthogonal staircase form separating the
observable subsystem from the unobservable one:

    Tsim.T @ A @ Tsim = [[A11, 0], [A21, A22]],   C @ Tsim = [C1, 0]

with (A11, C1) observable and the eigenvalues of A22 exactly the
unobservable modes.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULTS,
    _canonical_signs,
    _rank_any,
    as_matrix,
    as_square,
    eigenvalues,
)

__all__ = [
    "UndetectableError",
    "EigAnalysis",
    "DetectabilityVerdict",
    "ObsDecomposition",
    "pbh_eig_observable",
    "check_detectability",
    "check_observability",
    "obs_decompose",
]


class UndetectableError(ValueError):
    """The pair has an unstable eigenvalue that no output injection can move.

    ``offending`` lists the unstable unobservable eigenvalues, when known.
    """

    def __init__(self, message, offending=()):
        super().__init__(message)
        self.offending = list(offending)


@dataclass(frozen=True)
class EigAnalysis:
    """Classification of one (distinct) eigenvalue of A."""

    eigenvalue: complex
    observable: bool
    stable: bool


@dataclass(frozen=True)
class DetectabilityVerdict:
    """Outcome of a detectability check, with the per-eigenvalue detail."""

    detectable: bool
    per_eigenvalue: list[EigAnalysis] = field(default_factory=list)
    offending: list[complex] = field(default_factory=list)


@dataclass(frozen=True)
class ObsDecomposition:
    """Orthogonal staircase split into observable/unobservable blocks.

    ``no`` is the dimension of the observable subsystem (A11, C1);
    A21/A22 are empty when the pair is observable.
    """

    Tsim: np.ndarray
    A11: np.ndarray
    A21: np.ndarray
    A22: np.ndarray
    C1: np.ndarray
    no: int


def _validated_pair(A, C):
    A = as_square(A, "A")
    C = as_matrix(C, "C")
    if C.shape[1] != A.shape[0]:
        raise ValueError(
            f"C must have {A.shape[0]} columns to match A, got {C.shape[1]}"
        )
    if not np.any(C):
        raise ValueError("C must be nonzero")
    return A, C


def pbh_eig_observable(A, C, lam, tol=0.0):
    """True iff the stacked matrix ``[C; lam*I - A]`` has numerical rank n."""
    A, C = _validated_pair(A, C)
    n = A.shape[0]
    stacked = np.vstack([C.astype(complex), complex(lam) * np.eye(n) - A])
    return _rank_any(stacked, tol) == n


def _distinct_eigenvalues(vals, match_tol):
    reps = []
    for lam in vals:
        if not any(abs(lam - r) <= match_tol * (1.0 + abs(r)) for r in reps):
            reps.append(complex(lam))
    return reps


def _analyze_eigenvalues(A, C, tol, stability_tol):
    reps = _distinct_eigenvalues(eigenvalues(A), DEFAULTS.eig_match)
    return [
        EigAnalysis(
            eigenvalue=lam,
            observable=pbh_eig_observable(A, C, lam, tol),
            stable=lam.real < -stability_tol,
        )
        for lam in reps
    ]


def check_detectability(A, C, tol=0.0, stability_tol=None):
    """PBH detectability verdict: every unstable eigenvalue must be observable.

    Eigenvalues within the stability band (``Re >= -stability_tol``) are
    treated as unstable, so marginal modes must be observable to pass.
    Stable eigenvalues are analyzed and reported but never offending.
    """
    band = DEFAULTS.stability if stability_tol is None else stability_tol
    per = _analyze_eigenvalues(*_validated_pair(A, C), tol, band)
    offending = [e.eigenvalue for e in per if not e.stable and not e.observable]
    return DetectabilityVerdict(
        detectable=not offending, per_eigenvalue=per, offending=offending
    )


def check_observability(A, C, tol=0.0):
    """True iff every eigenvalue of A passes the PBH rank test."""
    per = _analyze_eigenvalues(*_validated_pair(A, C), tol, DEFAULTS.stability)
    return all(e.observable for e in per)


def _row_compress(B, cutoff):
    """Orthogonal U and r such that ``U.T @ B`` has zeros below row r.

    ``cutoff`` is an absolute singular-value threshold; rank decisions
    must be made at the scale of the parent problem, not per block, or
    round-off garbage blocks masquerade as full rank.
    """
    if B.shape[0] == 0 or B.shape[1] == 0:
        return np.eye(B.shape[0]), 0
    U, s, _ = np.linalg.svd(B)
    r = int(np.count_nonzero(s > cutoff))
    return _canonical_signs(U), r


def _stair_recurse(A, B, cutoff):
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0)), 0
    U1, r = _row_compress(B, cutoff)
    if r == 0:
        return np.eye(n), 0
    A1 = U1.T @ A @ U1
    if r == n:
        return U1, n
    U2, nc2 = _stair_recurse(A1[r:, r:], A1[r:, :r], cutoff)
    U = U1.copy()
    U[:, r:] = U1[:, r:] @ U2
    return U, r + nc2


def _ctrb_staircase(A, B, tol):
    """Orthogonal U with U.T A U = [[Ac, X], [0, Auc]], U.T B = [B1; 0].

    Returns ``(U, nc)`` where nc is the controllable-subspace dimension.
    Recursive: compress the input block, then stair the trailing pair.
    All stages share one absolute cutoff derived from the full pair.

    The default cutoff is sqrt(eps) * max(||A||, ||B||): structural
    splits must treat coupling blocks at accumulated-round-off size
    (which upstream similarity transforms can push well above eps) as
    zero, or garbage blocks masquerade as observable directions.
    """
    if tol > 0:
        cutoff = tol
    else:
        scale = 0.0
        for M in (A, B):
            if M.size:
                scale = max(scale, float(np.linalg.norm(M, 2)))
        cutoff = np.sqrt(np.finfo(float).eps) * scale
    return _stair_recurse(A, B, cutoff)


def obs_decompose(A, C, tol=0.0):
    """Observability staircase decomposition with orthogonal Tsim.

    ``no == n`` (empty A21/A22) when the pair is observable; otherwise
    the eigenvalues of A22 are exactly the unobservable modes.

    Rank decisions default to a sqrt(eps)-relative structural cutoff
    (coarser than the PBH tests, which use the exact SVD rank rule);
    pass ``tol`` explicitly for a different split.
    """
    return _staircase(*_validated_pair(A, C), tol)


def _staircase(A, C, tol):
    """``obs_decompose`` of a validated pair; a zero C gives ``no == 0``."""
    Tsim, no = _ctrb_staircase(A.T, C.T, tol)
    At = Tsim.T @ A @ Tsim
    Ct = C @ Tsim
    return ObsDecomposition(
        Tsim=Tsim,
        A11=At[:no, :no],
        A21=At[no:, :no],
        A22=At[no:, no:],
        C1=Ct[:, :no],
        no=no,
    )
