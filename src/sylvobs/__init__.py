"""Reduced-order state observers via the constrained Sylvester-observer
equation: solvability test, solution construction, observer synthesis,
and co-simulation for continuous-time LTI plants.
"""

from .analysis import (
    DetectabilityVerdict,
    EigAnalysis,
    ObsDecomposition,
    UndetectableError,
    check_detectability,
    obs_decompose,
)
from .gains import default_stable_poles, place_poles, stabilizing_gain
from .linalg import (
    DEFAULTS,
    Tolerances,
    eigenvalues,
    output_normalizing_transform,
    rank_tol,
    spectral_abscissa,
)
from .matrixio import load_matrices, save_matrices
from .observer import Plant, ReducedObserver, synthesize_observer
from .simulate import (
    ConstantInput,
    SimulationConfig,
    SimulationTrace,
    SinusoidInput,
    error_metrics,
    simulate,
    write_trace_csv,
)
from .sylvester import (
    OutputPartition,
    SolveReport,
    SylvesterSolution,
    partition_by_output,
    solve_constrained_sylvester,
    verify_solution,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULTS",
    "Tolerances",
    "rank_tol",
    "eigenvalues",
    "spectral_abscissa",
    "output_normalizing_transform",
    "UndetectableError",
    "EigAnalysis",
    "DetectabilityVerdict",
    "ObsDecomposition",
    "check_detectability",
    "obs_decompose",
    "default_stable_poles",
    "place_poles",
    "stabilizing_gain",
    "SylvesterSolution",
    "SolveReport",
    "OutputPartition",
    "partition_by_output",
    "solve_constrained_sylvester",
    "verify_solution",
    "Plant",
    "ReducedObserver",
    "synthesize_observer",
    "SimulationConfig",
    "SimulationTrace",
    "ConstantInput",
    "SinusoidInput",
    "simulate",
    "error_metrics",
    "write_trace_csv",
    "load_matrices",
    "save_matrices",
]
