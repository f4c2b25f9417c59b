"""Dense real-matrix numeric kernel shared by the rest of the package.

Everything operates on plain ``numpy.ndarray`` values with row-major
semantics.  Inputs are validated once at the boundary: entries must be
real and finite.  All routines are pure functions of their arguments and
never mutate them, so concurrent use is safe.

Tolerance defaults are centralised in :class:`Tolerances`.  Rank
cutoffs are a ``tol`` argument instead: ``tol=0.0`` selects the default
SVD rule ``max(rows, cols) * eps * sigma_max``, a positive ``tol`` is an
absolute cutoff, and a negative or non-finite one is rejected.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULTS",
    "as_matrix",
    "as_vector",
    "as_square",
    "rank_tol",
    "eigenvalues",
    "spectral_abscissa",
    "output_normalizing_transform",
]

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerance defaults used across the package.

    Attributes
    ----------
    stability : float
        Half-plane band: an eigenvalue counts as stable only when
        ``Re(lam) < -stability``.  Marginal modes are treated as
        unstable (must be observable to pass a detectability check).
    eig_match : float
        Absolute-plus-relative tolerance used to group nearly equal
        eigenvalues so per-eigenvalue tests run once per distinct value.
    residual_rtol : float
        Relative residual accepted when a computed solution is checked
        against its defining equation, scaled by ``1 + ||A||_F``.
    min_stacked_sv : float
        Smallest acceptable singular value of the stacked matrix
        ``[C; T]`` before a solution is rejected as numerically singular.
    decay_guard : float
        Division guard for ratios of near-zero error norms.
    """

    stability: float = 1e-9
    eig_match: float = 1e-8
    residual_rtol: float = 1e-8
    min_stacked_sv: float = 1e-10
    decay_guard: float = 1e-300


DEFAULTS = Tolerances()


def as_matrix(M, name="matrix", allow_empty=False):
    """Convert to a validated 2-D float array.

    1-D input is interpreted as a single row.  A C-ordered float64 array
    is returned by reference, not copied; other input is converted.
    Raises ``ValueError`` on complex entries, non-finite entries,
    ndim > 2, or (unless ``allow_empty``) zero-sized axes.
    """
    try:
        A = np.asarray(M, dtype=float, order="C")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a real matrix: {exc}") from None
    if A.ndim == 0:
        A = A.reshape(1, 1)
    elif A.ndim == 1:
        A = A.reshape(1, -1)
    elif A.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} must have finite entries")
    if not allow_empty and (A.shape[0] == 0 or A.shape[1] == 0):
        raise ValueError(f"{name} must be non-empty, got shape {A.shape}")
    return A


def as_vector(v, name="vector", length=None):
    """Convert to a validated 1-D float array; accepts rows/columns."""
    try:
        a = np.array(v, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a real vector: {exc}") from None
    if a.ndim == 2 and 1 in a.shape:
        a = a.ravel()
    elif a.ndim == 0:
        a = a.reshape(1)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must have finite entries")
    if length is not None and a.size != length:
        raise ValueError(f"{name} must have length {length}, got {a.size}")
    return a


def as_square(M, name="matrix", allow_empty=False):
    A = as_matrix(M, name, allow_empty=allow_empty)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    return A


def _rank_cutoff(shape, svals, tol):
    if not 0 <= tol < np.inf:
        raise ValueError("tol must be finite and >= 0")
    if tol > 0:
        return tol
    smax = float(svals[0]) if svals.size else 0.0
    return max(shape) * _EPS * smax


def rank_tol(M, tol=0.0):
    """Numerical rank: number of singular values above the cutoff.

    With ``tol == 0`` the cutoff is ``max(rows, cols) * eps * sigma_max``;
    a positive ``tol`` is used directly as an absolute cutoff.
    """
    A = as_matrix(M, allow_empty=True)
    if A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    return int(np.count_nonzero(s > _rank_cutoff(A.shape, s, tol)))


def eigenvalues(M):
    """All eigenvalues of a square real matrix, with multiplicity.

    Returns a complex array sorted by descending real part, then
    descending imaginary part, so output is deterministic and complex
    values appear in conjugate pairs (``+i`` member first).
    """
    A = as_square(M, allow_empty=True)
    if A.shape[0] == 0:
        return np.zeros(0, dtype=complex)
    vals = np.linalg.eigvals(A).astype(complex)
    order = np.lexsort((-vals.imag, -vals.real))
    return vals[order]


def spectral_abscissa(M):
    """Largest real part over the eigenvalues; ``-inf`` for a 0x0 matrix.

    A square matrix is Hurwitz stable iff this is negative.
    """
    A = as_square(M, allow_empty=True)
    if A.shape[0] == 0:
        return float("-inf")
    return float(np.max(np.linalg.eigvals(A).real))


def _canonical_signs(Q):
    """Flip column signs so the largest-magnitude entry of each is positive."""
    Q = np.array(Q)
    if Q.size:
        flip = Q[np.argmax(np.abs(Q), axis=0), np.arange(Q.shape[1])] < 0
        Q[:, flip] = -Q[:, flip]
    return Q


def _output_basis(C, tol=0.0):
    """One full SVD ``C = U diag(s) Q`` of a validated C, truncated to its
    numerical rank r (the rule of :func:`rank_tol`).

    Returns ``(U, s, Q, N)``: U is p x r, s has r entries, Q is r x n with
    orthonormal rows, and N is an orthonormal basis of the numerical null
    space of C with canonical column signs, so ``[Q.T, N]`` is orthogonal.
    """
    U, s, Vh = np.linalg.svd(C)
    r = int(np.count_nonzero(s > _rank_cutoff(C.shape, s, tol)))
    return U[:, :r], s[:r], Vh[:r], _canonical_signs(Vh[r:].T)


def _normalizing_transform(U, s, Q, N):
    """``L = [Q.T diag(1/s) U.T | N]`` from a full-row-rank ``_output_basis``,
    so that ``C @ L = [I_p, 0]`` and ``inv(L) = [C; N.T]``."""
    return np.hstack([(Q.T / s) @ U.T, N])


def output_normalizing_transform(C, tol=0.0):
    """Invertible n x n basis change L with ``C @ L = [I_p, 0]``.

    Columns ``p+1..n`` of L form an orthonormal basis of the null space
    of C, so ``inv(L)`` is exactly ``[C; N.T]`` stacked.  Requires C of
    full row rank p <= n.
    """
    C = as_matrix(C, "C")
    if C.shape[0] > C.shape[1]:
        raise ValueError(f"C must have no more rows than columns, got {C.shape}")
    U, s, Q, N = _output_basis(C, tol)
    if s.size < C.shape[0]:
        raise ValueError("C must have full row rank")
    return _normalizing_transform(U, s, Q, N)
