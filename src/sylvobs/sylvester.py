"""Solvability test and construction for the constrained Sylvester-observer
equation

    T @ A - F @ T = G @ C,      det [C; T] != 0,

with F Hurwitz stable and T of full row rank n - p.  A solution exists
iff the pair (A, C) is detectable.  ``solve_constrained_sylvester``
computes each fact once, on one orthogonal split (cf. Van Dooren 1984,
"Reduced order observers: a new algorithm and proof"); steps 1 and 2 are
the observability split every verdict of the package uses (``analysis``):

1. one SVD ``C = U diag(s) Q`` is the rank check and gives an
   orthonormal basis N of the null space of C and ``L = [pinv(C), N]``,
   bit for bit the ``output_normalizing_transform`` of C;
2. one observability staircase of the reduced pair ``(N.T A N, Q A N)``,
   at the cutoff ``tol`` or ``sqrt(eps) * ||A||``: its unobservable block
   gives the detectability verdict, raised before anything else is kept,
   and the poles are placed on its observable block, stage by stage on
   the staircase's own stages (``gains``), giving Kq with
   ``F = N.T A N + Kq Q A N`` Hurwitz stable;
3. assemble ``T = Kq Q + N.T`` and G; with ``K = Kq diag(1/s) U.T``,
   ``[C; T] = [[I, 0], [K, I]] @ inv(L)``;
4. verify (T, F, G): the spectral abscissa of F in the report goes
   through the placement gate of ``gains`` ("stabilization failed
   verification", as in ``stabilizing_gain``), then the residual,
   ``[C; T]`` and rank gates; the report is returned with the solution.

``verify_solution`` recomputes the defining quantities of any candidate
(T, F, G) independently of how it was produced.
"""

from dataclasses import dataclass

import numpy as np

from .analysis import _obs_split, _undetectable, _unstable_hidden_modes
from .gains import _placement_gate, _staircase_gain
from .linalg import (
    DEFAULTS,
    _as_pair,
    _normalizing_transform,
    as_matrix,
    as_square,
    eigenvalues,
    output_normalizing_transform,
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


def _validated_system(A, C):
    A, C = _as_pair(A, C)
    if C.shape[0] > A.shape[0]:
        raise ValueError(f"C must have at most {A.shape[0]} rows, got {C.shape[0]}")
    return A, C


def partition_by_output(A, C, tol=0.0):
    """Normalize the output map and partition the state matrix.

    Returns the transform pair and the four blocks of inv(L) @ A @ L,
    split after the first p rows/columns.
    """
    A, C = _validated_system(A, C)
    p = C.shape[0]
    L = output_normalizing_transform(C, tol)
    Linv = np.vstack([C, L[:, p:].T])
    A1 = Linv @ A @ L
    return OutputPartition(
        L=L,
        Linv=Linv,
        A11=A1[:p, :p],
        A12=A1[:p, p:],
        A21=A1[p:, :p],
        A22=A1[p:, p:],
    )


def _split(A, C, tol):
    """The observability split of ``analysis``, C's full row rank and L.

    Returns ``((U, s, Q, L, A22, A12, dec), [])`` for a detectable pair,
    with ``A22 = N.T A N``, ``A12 = Q A N`` and ``dec`` their staircase,
    and ``(None, offending)`` otherwise, so that the caller raises holding
    none of these arrays.
    """
    U, s, Q, N, A22, A12, dec = _obs_split(A, C, tol)
    if s.size < C.shape[0]:
        raise ValueError("C must have full row rank")
    offending = _unstable_hidden_modes(eigenvalues(dec.A22))
    if offending:
        return None, offending
    return (U, s, Q, _normalizing_transform(U, s, Q, N), A22, A12, dec), offending


def solve_constrained_sylvester(A, C, desired=None, tol=0.0):
    """Construct (T, F, G) solving the constrained equation for (A, C).

    Parameters
    ----------
    A : (n, n) array_like
    C : (p, n) array_like with full row rank, 1 <= p <= n.
    desired : optional pole list for the observable block of the reduced
        pair; length must equal that block's dimension, each real part
        below ``-DEFAULTS.stability``, conjugate-closed.
    tol : float
        Rank tolerance and staircase cutoff (0 selects the default rules).
        The detectability gate's stability band is ``DEFAULTS.stability``.

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
    A, C = _validated_system(A, C)
    split, offending = _split(A, C, tol)
    if split is None:
        raise _undetectable(offending)
    U, s, Q, L, A22, A12, dec = split

    Kq = _staircase_gain(A22, A12, dec, desired)
    F = A22 + Kq @ A12
    T = Kq @ Q + L[:, C.shape[0]:].T
    # C = U diag(s) Q: K C = Kq Q, and G = T A pinv(C) - F K
    K = Kq / s @ U.T
    G = (T @ A @ Q.T - F @ Kq) / s @ U.T

    report = verify_solution(A, C, T, F, G, tol)
    _placement_gate(report.F_spectral_abscissa)
    scale = DEFAULTS.residual_rtol * (1.0 + float(np.linalg.norm(A)))
    ok = (
        report.residual_norm <= scale
        and report.stacked_min_singular_value > DEFAULTS.min_stacked_sv
        and report.T_rank == T.shape[0]
    )
    if not ok:
        raise np.linalg.LinAlgError(
            f"constructed solution failed verification: {report}"
        )
    return SylvesterSolution(T=T, F=F, G=G, L=L, K=K, report=report)


def verify_solution(A, C, T, F, G, tol=0.0):
    """Recompute the defining quantities of a candidate (T, F, G).

    Returns the Frobenius residual of ``T A - F T - G C``, the minimum
    singular value of the stacked ``[C; T]``, the spectral abscissa of
    F (-inf for an empty F), and the numerical row rank of T.  Purely a
    report: nothing is asserted here.
    """
    A, C = _as_pair(A, C)
    T = as_matrix(T, "T", allow_empty=True)
    F = as_square(F, "F", allow_empty=True)
    G = as_matrix(G, "G", allow_empty=True)
    n = A.shape[0]
    q = T.shape[0]
    if T.shape[1] != n:
        raise ValueError(f"T must have {n} columns to match A, got {T.shape[1]}")
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
