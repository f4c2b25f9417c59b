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


def _real(M, message):
    """``M`` as a float64 array, ``M`` itself when it is a float64 ndarray; a
    ``ValueError`` starting with ``message`` when it does not convert or is
    complex, where numpy's conversion would keep the real part."""
    try:
        M = np.asarray(M)
        if M.dtype.kind == "c":
            raise TypeError(f"complex entries (dtype {M.dtype})")
        return np.asarray(M, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{message}: {exc}") from None


def as_matrix(M, name="matrix", allow_empty=False):
    """Convert to a validated 2-D float array.

    1-D input is interpreted as a single row.  A C-ordered float64 array
    is returned by reference, not copied; other input is converted.
    Raises ``ValueError`` on complex entries (a zero imaginary part
    included), non-finite entries, ndim > 2, or (unless ``allow_empty``)
    zero-sized axes.
    """
    A = np.asarray(_real(M, f"{name} must be a real matrix"), order="C")
    if A.ndim == 0:
        A = A.reshape(1, 1)
    elif A.ndim == 1:
        A = A.reshape(1, -1)
    elif A.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={A.ndim}")
    if not np.isfinite(A).all():
        raise ValueError(f"{name} must have finite entries")
    if not allow_empty and (A.shape[0] == 0 or A.shape[1] == 0):
        raise ValueError(f"{name} must be non-empty, got shape {A.shape}")
    return A


def as_vector(v, name="vector", length=None):
    """Convert to a validated 1-D float array, a copy; accepts rows/columns.

    Raises ``ValueError`` on complex entries (a zero imaginary part
    included), non-finite entries, two axes longer than 1, or a length
    other than ``length``.
    """
    a = np.array(_real(v, f"{name} must be a real vector"))
    if a.ndim == 2 and 1 in a.shape:
        a = a.ravel()
    elif a.ndim == 0:
        a = a.reshape(1)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must have finite entries")
    if length is not None and a.size != length:
        raise ValueError(f"{name} must have length {length}, got {a.size}")
    return a


def as_square(M, name="matrix", allow_empty=False):
    A = as_matrix(M, name, allow_empty=allow_empty)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    return A


def _as_pair(A, C, names=("A", "C")):
    """Validated ``(A, C)``: A square and C with as many columns; ``names``
    are the caller's names for the two in its errors."""
    a, c = names
    A = as_square(A, a)
    C = as_matrix(C, c)
    if C.shape[1] != A.shape[0]:
        raise ValueError(f"{c} must have {A.shape[0]} columns to match {a}, got {C.shape[1]}")
    return A, C


def _frobenius(M):
    """``||M||_F`` as a float, infinite only when the norm itself is: numpy's
    norm, and where its sum of squares overflows (entries past about 1e154),
    the norm of ``M / max|m|`` times ``max|m|``."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(M))
    if norm == np.inf:
        big = float(np.max(np.abs(M)))
        if big < np.inf:
            norm = big * float(np.linalg.norm(M / big))
    return norm


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
    return _rank(as_matrix(M, allow_empty=True), tol)


def _rank(A, tol):
    """``rank_tol`` of a validated matrix."""
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
    return _eigenvalues(as_square(M, allow_empty=True))


def _eigenvalues(A):
    """``eigenvalues`` of a validated square matrix."""
    if A.shape[0] == 0:
        return np.zeros(0, dtype=complex)
    vals = np.linalg.eigvals(A).astype(complex)
    order = np.lexsort((-vals.imag, -vals.real))
    return vals[order]


def spectral_abscissa(M):
    """Largest real part over the eigenvalues; ``-inf`` for a 0x0 matrix.

    A square matrix is Hurwitz stable iff this is negative.
    """
    return _spectral_abscissa(as_square(M, allow_empty=True))


def _spectral_abscissa(A):
    """``spectral_abscissa`` of a validated square matrix."""
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
    return np.hstack([(Q.T / s) @ U.T, N])
