"""Observability and detectability analysis of a measurement pair (A, C).

Every observability verdict of the package comes from one split (cf. Van
Dooren 1984, "Reduced order observers: a new algorithm and proof"): one
SVD ``C = U diag(s) Q`` at C's numerical rank r, with N an orthonormal
basis of the null space of C, and one observability staircase of the
unmeasured pair ``(N.T A N, Q A N)``.  The measured coordinates ``Q x``
are observable; the staircase splits the rest.  ``tol``, when positive,
is the absolute rank cutoff of both steps; at 0 the SVD of C uses
``max(p, n) * eps * sigma_max(C)`` and the staircase ``sqrt(eps) *
||A||``, so no decision depends on the scale of C.  Every pair that
``linalg._as_pair`` accepts is split; a zero C leaves every mode hidden.

``obs_decompose`` returns the split in full-pair form:

    Tsim.T @ A @ Tsim = [[A11, 0], [A21, A22]],   C @ Tsim = [C1, 0]

with (A11, C1) observable and the eigenvalues of A22 exactly the
unobservable modes.  A pair is detectable iff every eigenvalue of A22 is
stable; ``check_detectability`` reads its verdict off that block.  The
split keeps the staircase's stage ranks (``ObsDecomposition.stages``, the
rank of C first): they give the observability indices, and ``gains``
places poles on their stages.  Each stage's basis is the left singular
vectors of its coupling block's thin SVD, found by block Gram-Schmidt in
the coordinates of ``N``, so a stage costs O(n^2 r) and the split O(n^3)
however many stages it has (one per state for one output).  Every
observable column of ``Tsim`` has its largest-magnitude entry positive.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULTS,
    _EPS,
    _as_pair,
    _canonical_signs,
    _eigenvalues,
    _output_basis,
)

__all__ = [
    "UndetectableError",
    "EigAnalysis",
    "DetectabilityVerdict",
    "ObsDecomposition",
    "check_detectability",
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
    """Outcome of a detectability check, with the per-eigenvalue detail and
    the observability indices of the observable part
    (``ObsDecomposition.observability_indices``)."""

    detectable: bool
    per_eigenvalue: list[EigAnalysis] = field(default_factory=list)
    offending: list[complex] = field(default_factory=list)
    observability_indices: tuple[int, ...] = ()


@dataclass(frozen=True)
class ObsDecomposition:
    """Orthogonal staircase split into observable/unobservable blocks.

    ``stages`` are the staircase's stage ranks ``r_1 >= r_2 >= ...``:
    ``(A11.T, C1.T)`` is block upper Hessenberg with diagonal blocks of
    these sizes, ``C1.T`` is zero below its first ``r_1`` rows, and C1.T's
    top block and every subdiagonal block have full row rank.  ``no``, their
    sum, is the dimension of the observable subsystem (A11, C1); A21/A22
    are empty when the pair is observable.
    """

    Tsim: np.ndarray
    A11: np.ndarray
    A21: np.ndarray
    A22: np.ndarray
    C1: np.ndarray
    stages: tuple[int, ...]

    @property
    def no(self):
        return sum(self.stages)

    @property
    def observability_indices(self):
        """Observability indices of (A11, C1), largest first: the conjugate
        partition of ``stages`` (index j counts the stages of rank >= j)."""
        top = max(self.stages, default=0)
        return tuple(sum(r >= j for r in self.stages) for j in range(1, top + 1))


def _distinct_eigenvalues(vals, match_tol):
    """The eigenvalues ``vals`` (complex, in descending real order) less each
    one within ``match_tol * (1 + |r|)`` of an r kept before it.  The kept
    ones are scanned from the last, in ascending real part, and the scan
    stops at a real-part gap above ``match_tol * (1 + max |vals|)``, past
    which none can match."""
    reps = []
    reach = match_tol * (1.0 + max(map(abs, vals), default=0.0))
    for lam in vals:
        near = itertools.takewhile(lambda r: r.real - lam.real <= reach, reversed(reps))
        if not any(abs(lam - r) <= match_tol * (1.0 + abs(r)) for r in near):
            reps.append(lam)
    return reps


def _classify(observed, hidden):
    """``check_detectability``'s ``per_eigenvalue``: the distinct values of
    the eigenvalues ``observed`` and ``hidden`` (Python complex values, each
    list in descending real order) of a split's two blocks, merged at
    ``DEFAULTS.eig_match``; one near an eigenvalue of the hidden block is
    unobservable."""
    match = DEFAULTS.eig_match
    merged = sorted([*observed, *hidden], key=lambda v: (-v.real, -v.imag))
    return [
        EigAnalysis(
            eigenvalue=lam,
            observable=not any(abs(lam - h) <= match * (1.0 + abs(lam)) for h in hidden),
            stable=lam.real < -DEFAULTS.stability,
        )
        for lam in _distinct_eigenvalues(merged, match)
    ]


def check_detectability(A, C, tol=0.0):
    """Detectability verdict: every unstable eigenvalue must be observable.

    Decided on the hidden block of :func:`obs_decompose` (same ``tol``).
    ``per_eigenvalue`` lists the distinct eigenvalues of its observable and
    hidden blocks, merged at ``DEFAULTS.eig_match``; one found in the
    hidden block is unobservable.  Eigenvalues with
    ``Re >= -DEFAULTS.stability`` count as unstable, so marginal modes must
    be observable to pass.  With a zero C every mode is hidden.
    """
    dec = _decompose(*_as_pair(A, C), tol)
    hidden = _eigenvalues(dec.A22).tolist()
    offending = _unstable_hidden_modes(hidden)
    return DetectabilityVerdict(
        detectable=not offending,
        per_eigenvalue=_classify(_eigenvalues(dec.A11).tolist(), hidden),
        offending=offending,
        observability_indices=dec.observability_indices,
    )


def _stair_transform(A, B, cutoff):
    """Orthogonal U with U.T A U = [[Ac, X], [0, Auc]], U.T B = [B1; 0], and
    the stage ranks of Ac, whose sum is the controllable-subspace dimension.

    Each stage keeps the left singular vectors Y of its coupling's thin SVD
    whose singular values exceed ``cutoff`` (one cutoff for every stage), at
    most as many as rows are left, so every coupling block has orthogonal
    rows.  The next coupling is ``A Y`` less its part in the span V of the
    columns kept so far, removed by block Gram-Schmidt run twice, and Y is
    projected off V once more, so U stays orthogonal where a singular value
    kept is near the cutoff.  A stage costs O(n^2 r) and one thin SVD, so
    the staircase costs O(n^3) however many stages it has; one complete QR
    of V gives the rest of U.  Columns take LAPACK's signs."""
    size = A.shape[0]
    U, stages, k = np.eye(size), [], 0
    while k < size and B.shape[1]:
        if k:
            V, B = U[:, :k], A @ Y
            for _ in range(2):
                B -= V @ (V.T @ B)
        Y, s, _ = np.linalg.svd(B, full_matrices=False)
        r = min(int(np.count_nonzero(s > cutoff)), size - k)
        if r == 0:
            break
        Y = Y[:, :r]
        if k:
            Y -= V @ (V.T @ Y)
        U[:, k : k + r] = Y
        stages.append(r)
        k += r
    if 0 < k < size:
        U[:, k:] = np.linalg.qr(U[:, :k], mode="complete")[0][:, k:]
    return U, tuple(stages)


def obs_decompose(A, C, tol=0.0):
    """Observability staircase decomposition with orthogonal Tsim.

    ``no == n`` (empty A21/A22) when the pair is observable; otherwise
    the eigenvalues of A22 are exactly the unobservable modes.  ``tol`` is
    the rank cutoff of the split (module docstring) for C and for the
    staircase; C may be rank deficient, zero (``no == 0``) or have more
    rows than columns.
    """
    return _decompose(*_as_pair(A, C), tol)


def _unstable_hidden_modes(hidden):
    """The eigenvalues ``hidden`` of a staircase's unobservable block with
    ``Re >= -DEFAULTS.stability``; the pair is detectable iff none."""
    return [complex(v) for v in hidden if v.real >= -DEFAULTS.stability]


def _undetectable(offending):
    """The error naming a pair's unstable unobservable eigenvalues."""
    return UndetectableError(
        "pair (A, C) is not detectable; unstable unobservable eigenvalues: "
        + ", ".join(f"{v:.6g}" for v in offending),
        offending,
    )


def _obs_split(A, C, tol):
    """The observability split (module docstring) of a validated pair, C of
    any row rank: ``(U, s, Q, N, A22, A12, dec)`` with ``A22 = N.T A N``,
    ``A12 = Q A N`` and ``dec`` their staircase."""
    U, s, Q, N = _output_basis(C, tol)
    AN = A @ N
    A22 = N.T @ AN
    A12 = Q @ AN
    cutoff = tol if tol > 0 else np.sqrt(_EPS) * np.linalg.svd(A, compute_uv=False)[0]
    return U, s, Q, N, A22, A12, _staircase(A22, A12, cutoff)


def _decompose(A, C, tol):
    """``obs_decompose`` of a validated pair; a zero C gives ``no == 0``.
    The measured coordinates ``Q x`` are observable, and A22 is the split's
    own hidden block, so every verdict reads the same one."""
    _, s, Q, N, _, _, dec = _obs_split(A, C, tol)
    stages = (s.size, *dec.stages) if s.size else ()
    no = sum(stages)
    Tsim = np.hstack([Q.T, N @ dec.Tsim])
    Tsim[:, :no] = _canonical_signs(Tsim[:, :no])
    At = Tsim.T @ A @ Tsim
    return ObsDecomposition(
        Tsim=Tsim,
        A11=At[:no, :no],
        A21=At[no:, :no],
        A22=dec.A22,
        C1=C @ Tsim[:, :no],
        stages=stages,
    )


def _staircase(A, C, cutoff):
    """``ObsDecomposition`` of a pair at the absolute rank ``cutoff``.

    Structural splits must treat coupling blocks at accumulated-round-off
    size (which upstream similarity transforms can push well above eps) as
    zero, or garbage blocks masquerade as observable directions.
    """
    Tsim, stages = _stair_transform(A.T, C.T, cutoff)
    no = sum(stages)
    At = Tsim.T @ A @ Tsim
    Ct = C @ Tsim
    return ObsDecomposition(
        Tsim=Tsim,
        A11=At[:no, :no],
        A21=At[no:, :no],
        A22=At[no:, no:],
        C1=Ct[:, :no],
        stages=stages,
    )
