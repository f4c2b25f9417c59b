"""Solvability test and construction for the constrained Sylvester-observer
equation

    T @ A - F @ T = G @ C,      det [C; T] != 0,

with F Hurwitz stable and T of full row rank n - p.  A solution exists
iff the pair (A, C) is detectable.  ``solve_constrained_sylvester`` is
one pass in which each check runs once:

1. validate (A, C), the full row rank of C included;
2. PBH detectability verdict on (A, C), before anything is built;
3. build L with C @ L = [I_p, 0] and partition inv(L) @ A @ L into
   blocks A11 (p x p), A12, A21, A22, without validating again;
4. find K with A22 + K @ A12 Hurwitz stable (its staircase decides
   what is placed);
5. assemble T = [K, I] @ inv(L), F = A22 + K @ A12,
   G = K @ A11 + A21 - F @ K;
6. verify (T, F, G); the report is returned with the solution.

``verify_solution`` recomputes the defining quantities of any candidate
(T, F, G) independently of how it was produced.
"""

from dataclasses import dataclass

import numpy as np

from .analysis import UndetectableError, check_detectability
from .gains import stabilizing_gain
from .linalg import (
    DEFAULTS,
    _normalizing_pair,
    as_matrix,
    as_square,
    rank_tol,
    spectral_abscissa,
)

__all__ = [
    "SylvesterSolution",
    "SolveReport",
    "OutputPartition",
    "partition_by_output",
    "solve_constrained_sylvester",
    "verify_solution",
]


@dataclass(frozen=True)
class SolveReport:
    """Recomputed quality figures for a candidate solution."""

    residual_norm: float
    stacked_min_singular_value: float
    F_spectral_abscissa: float
    T_rank: int


@dataclass(frozen=True)
class SylvesterSolution:
    """Solution triple (T, F, G), the transform L and gain K that produced
    it, and the verification report the solve accepted it on."""

    T: np.ndarray
    F: np.ndarray
    G: np.ndarray
    L: np.ndarray
    K: np.ndarray
    report: SolveReport


@dataclass(frozen=True)
class OutputPartition:
    """Blocks of inv(L) @ A @ L under the output-normalizing transform."""

    L: np.ndarray
    Linv: np.ndarray
    A11: np.ndarray
    A12: np.ndarray
    A21: np.ndarray
    A22: np.ndarray


def _validated_system(A, C, tol):
    A = as_square(A, "A")
    C = as_matrix(C, "C")
    n = A.shape[0]
    p = C.shape[0]
    if C.shape[1] != n:
        raise ValueError(f"C must have {n} columns to match A, got {C.shape[1]}")
    if p > n:
        raise ValueError(f"C must have at most {n} rows, got {p}")
    if rank_tol(C, tol) < p:
        raise ValueError("C must have full row rank")
    return A, C


def _partition(A, C, tol):
    """``partition_by_output`` of a validated pair."""
    p = C.shape[0]
    L, Linv = _normalizing_pair(C, tol)
    A1 = Linv @ A @ L
    return OutputPartition(
        L=L,
        Linv=Linv,
        A11=A1[:p, :p],
        A12=A1[:p, p:],
        A21=A1[p:, :p],
        A22=A1[p:, p:],
    )


def partition_by_output(A, C, tol=0.0):
    """Normalize the output map and partition the state matrix.

    Returns the transform pair and the four blocks of inv(L) @ A @ L,
    split after the first p rows/columns.
    """
    return _partition(*_validated_system(A, C, tol), tol)


def solve_constrained_sylvester(A, C, desired=None, tol=0.0, stability_tol=None):
    """Construct (T, F, G) solving the constrained equation for (A, C).

    Parameters
    ----------
    A : (n, n) array_like
    C : (p, n) array_like with full row rank, 1 <= p <= n.
    desired : optional pole list for the observable part of the
        stabilization subproblem; length must equal that block's
        dimension, all real parts negative, conjugate-closed.
    tol : float
        Rank tolerance (0 selects the default rule).
    stability_tol : float, optional
        Stability band override for the detectability gate.

    Returns
    -------
    SylvesterSolution
        With n == p the solution is the empty one: T, F, G have zero
        rows and the stacked constraint reduces to det C != 0.  Its
        ``report`` is the ``verify_solution`` report it passed.

    Raises
    ------
    UndetectableError
        The pair is not detectable: no Hurwitz-stable, full-rank
        solution exists at all.
    """
    A, C = _validated_system(A, C, tol)
    n = A.shape[0]
    p = C.shape[0]

    verdict = check_detectability(A, C, tol, stability_tol)
    if not verdict.detectable:
        raise UndetectableError(
            "pair (A, C) is not detectable, so the constrained equation has no "
            "solution; offending eigenvalues: "
            + ", ".join(f"{v:.6g}" for v in verdict.offending),
            verdict.offending,
        )

    part = _partition(A, C, tol)
    if n == p:
        if desired is not None and np.atleast_1d(np.asarray(desired)).size:
            raise ValueError("desired poles must be empty when the observer order is 0")
        K = np.zeros((0, p))
    else:
        K = stabilizing_gain(part.A22, part.A12, desired, tol, stability_tol)

    F = part.A22 + K @ part.A12
    T = np.hstack([K, np.eye(n - p)]) @ part.Linv
    G = K @ part.A11 + part.A21 - F @ K

    report = verify_solution(A, C, T, F, G, tol)
    scale = DEFAULTS.residual_rtol * (1.0 + float(np.linalg.norm(A)))
    ok = (
        report.residual_norm <= scale
        and report.stacked_min_singular_value > DEFAULTS.min_stacked_sv
        and (n == p or report.F_spectral_abscissa < 0.0)
        and report.T_rank == n - p
    )
    if not ok:
        raise np.linalg.LinAlgError(
            f"constructed solution failed verification: {report}"
        )
    return SylvesterSolution(T=T, F=F, G=G, L=part.L, K=K, report=report)


def verify_solution(A, C, T, F, G, tol=0.0):
    """Recompute the defining quantities of a candidate (T, F, G).

    Returns the Frobenius residual of ``T A - F T - G C``, the minimum
    singular value of the stacked ``[C; T]``, the spectral abscissa of
    F (-inf for an empty F), and the numerical row rank of T.  Purely a
    report: nothing is asserted here.
    """
    A = as_square(A, "A")
    C = as_matrix(C, "C")
    T = as_matrix(T, "T", allow_empty=True)
    F = as_square(F, "F", allow_empty=True)
    G = as_matrix(G, "G", allow_empty=True)
    n = A.shape[0]
    q = T.shape[0]
    if C.shape[1] != n or T.shape[1] != n:
        raise ValueError("C and T must have as many columns as A")
    if F.shape[0] != q or G.shape != (q, C.shape[0]):
        raise ValueError("F and G dimensions must conform with T and C")

    residual = T @ A - F @ T - G @ C
    stacked = np.vstack([C, T])
    svals = np.linalg.svd(stacked, compute_uv=False)
    return SolveReport(
        residual_norm=float(np.linalg.norm(residual)) if residual.size else 0.0,
        stacked_min_singular_value=float(svals[-1]) if svals.size else 0.0,
        F_spectral_abscissa=spectral_abscissa(F),
        T_rank=rank_tol(T, tol),
    )
