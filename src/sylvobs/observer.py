"""Reduced-order observer synthesis and state reconstruction.

For a plant  dx/dt = A x + B u,  y = C x  with detectable (A, C), the
order-(n-p) observer  dz/dt = F z + G y + P u  tracks T x: the error
e = z - T x obeys de/dt = F e with F Hurwitz, for any input.  The full
state estimate is recovered as  xhat = W @ [y; z]  with W the inverse of
the stacked matrix [C; T].
"""

from dataclasses import dataclass

import numpy as np

from .linalg import _as_pair, _rank, as_matrix, as_vector
from .sylvester import SolveReport, solve_constrained_sylvester

__all__ = ["Plant", "ReducedObserver", "synthesize_observer"]


def _set_read_only(record, name, M):
    """Store a read-only view of the validated ``M`` as field ``name`` of a
    frozen ``record``."""
    M = M.view()
    M.flags.writeable = False
    object.__setattr__(record, name, M)


@dataclass(frozen=True)
class Plant:
    """State-space triple (A, B, C); C must have full row rank.  C-ordered
    float64 arrays are kept by reference, as read-only views: pass a copy
    of an array that you will write into later."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A, C = _as_pair(self.A, self.C)
        B = as_matrix(self.B, "B")
        if B.shape[0] != A.shape[0]:
            raise ValueError(f"B must have {A.shape[0]} rows, got {B.shape[0]}")
        if _rank(C, 0.0) < C.shape[0]:
            raise ValueError("C must have full row rank")
        for name, M in (("A", A), ("B", B), ("C", C)):
            _set_read_only(self, name, M)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def p(self):
        return self.C.shape[0]


@dataclass(frozen=True)
class ReducedObserver:
    """Observer matrices (F, G, P, T) and the recombination matrix W.

    ``report`` is the solve's verification report of (T, F, G); it is
    ``None`` for an observer built from stored matrices.  The shapes are
    checked when it is built: F q x q, G q x p, P q x m, T q x n and W
    n x n with n = q + p; then each matrix passes ``as_matrix`` and is
    kept as a read-only view, as in ``Plant``.  Immutable after synthesis;
    the methods are pure and concurrent-safe.
    """

    F: np.ndarray
    G: np.ndarray
    P: np.ndarray
    T: np.ndarray
    W: np.ndarray
    report: SolveReport | None = None

    def __post_init__(self):
        shapes = [np.shape(M) for M in (self.F, self.G, self.P, self.T, self.W)]
        if any(len(shape) != 2 for shape in shapes):
            raise ValueError("observer matrices must be 2-D")
        q, p, m = shapes[0][0], shapes[1][1], shapes[2][1]
        expected = ((q, q), (q, p), (q, m), (q, q + p), (q + p, q + p))
        for name, shape, want in zip("FGPTW", shapes, expected):
            if shape != want:
                raise ValueError(f"observer {name} must have shape {want}, got {shape}")
        for name in "FGPTW":
            _set_read_only(self, name, as_matrix(getattr(self, name), f"observer {name}",
                                                 allow_empty=True))

    @property
    def order(self):
        return self.F.shape[0]

    @property
    def n(self):
        return self.W.shape[0]

    @property
    def p(self):
        return self.G.shape[1]

    @property
    def m(self):
        return self.P.shape[1]

    def estimate_state(self, y, z):
        """Full-state estimate ``W @ [y; z]`` from measurement and observer state."""
        y = as_vector(y, "y", self.p)
        z = as_vector(z, "z", self.order)
        return self.W @ np.concatenate([y, z])

    def derivative(self, z, y, u):
        """Observer state derivative ``F z + G y + P u``."""
        z = as_vector(z, "z", self.order)
        y = as_vector(y, "y", self.p)
        u = as_vector(u, "u", self.m)
        return self.F @ z + self.G @ y + self.P @ u


def synthesize_observer(plant, desired=None, tol=0.0):
    """Build the order-(n-p) observer for a detectable plant.

    Solves the constrained equation for (T, F, G) and sets P = T @ B.
    The solve's W = inv([C; T]) is checked against [C; T], and its
    verification report is kept as ``report``.

    Raises
    ------
    UndetectableError
        The plant's (A, C) pair is not detectable.
    """
    if not isinstance(plant, Plant):
        plant = Plant(*plant)
    sol = solve_constrained_sylvester(plant.A, plant.C, desired, tol)
    P = sol.T @ plant.B
    residual = sol.W @ np.vstack([plant.C, sol.T])
    residual.flat[:: plant.n + 1] -= 1.0
    if np.linalg.norm(residual) > 1e-6 * plant.n:
        raise np.linalg.LinAlgError("recombination matrix failed verification")
    return ReducedObserver(F=sol.F, G=sol.G, P=P, T=sol.T, W=sol.W, report=sol.report)
