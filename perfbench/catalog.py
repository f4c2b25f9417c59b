"""Every metric the benchmark reports: what it means and what it should move.

``BENCHMARK.json`` holds each metric's name, unit, better direction and
bound in the fixed schema the benchmark is run under; ``units`` reads them
from there.  This module adds what that schema has no room for.  End-to-end
metrics carry the name each one has in a workload's own terms; per-layer
metrics carry the layer, the span statistic they are computed from, and the
(workload, end-to-end metric) pairs a change to that layer should move.
"""

import json
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def units(section):
    """Metric name -> unit for ``"end_to_end"`` or ``"per_layer"``, in file order."""
    doc = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[section]}


# end-to-end metric -> its name on each workload
E2E_ALIASES = {
    "throughput_per_s": {"design": "decisions_per_s", "cosim": "steps_per_s",
                         "cli": "commands_per_s"},
    "latency_small_ms": {"design": "solve_ms_n8_p50", "cosim": "run_ms_n2_p50",
                         "cli": "check_ms_p50"},
    "latency_mid_ms": {"design": "solve_ms_n32_p50", "cosim": "run_ms_n8_p50",
                       "cli": "observe_ms_p50"},
    "latency_large_ms": {"design": "solve_ms_n64_p50", "cosim": "run_ms_n32_p50",
                         "cli": "simulate_csv_ms_p50"},
}

_DESIGN_LATENCY = (("design", "latency_small_ms"), ("design", "latency_mid_ms"),
                   ("design", "latency_large_ms"))
_ANALYSIS = (("design", "latency_mid_ms"), ("design", "latency_large_ms"),
             ("design", "throughput_per_s"))
_GAINS = (("design", "latency_mid_ms"),)
_SYLVESTER = _DESIGN_LATENCY + (("cli", "latency_mid_ms"),)
_OBSERVER = (("design", "latency_small_ms"), ("cli", "latency_mid_ms"))
_RK4 = (("cosim", "throughput_per_s"),)
_CSV = (("cli", "latency_large_ms"),)
_MATRIXIO = (("cli", "latency_mid_ms"), ("cli", "throughput_per_s"))

# per-layer metric -> (span name, statistic, per "op" or RK4 "step", moves)
LAYER_METRICS = {
    "analysis.check_detectability.calls": ("analysis.check_detectability", "calls", "op", _ANALYSIS),
    "analysis.check_detectability.self_ms":
        ("analysis.check_detectability", "self_ms", "op", _ANALYSIS),
    "analysis.obs_decompose.self_ms": ("analysis.obs_decompose", "self_ms", "op", _ANALYSIS),
    "linalg.svd_calls": ("np.linalg.svd", "calls", "op", _DESIGN_LATENCY),
    "linalg.eig_calls": ("np.linalg.eigvals", "calls", "op", _DESIGN_LATENCY),
    "linalg.rank_tol.calls": ("linalg.rank_tol", "calls", "op", _DESIGN_LATENCY),
    "linalg.solve_linear.self_ms": ("linalg.solve_linear", "self_ms", "op", _DESIGN_LATENCY),
    "gains.stabilizing_gain.self_ms": ("gains.stabilizing_gain", "self_ms", "op", _GAINS),
    "sylvester.solve_constrained_sylvester.self_ms":
        ("sylvester.solve_constrained_sylvester", "self_ms", "op", _SYLVESTER),
    "sylvester.partition_by_output.self_ms":
        ("sylvester.partition_by_output", "self_ms", "op", _SYLVESTER),
    "sylvester.verify_solution.calls": ("sylvester.verify_solution", "calls", "op", _SYLVESTER),
    "sylvester.verify_solution.self_ms":
        ("sylvester.verify_solution", "self_ms", "op", _SYLVESTER),
    "observer.Plant.self_ms": ("observer.Plant", "self_ms", "op", _OBSERVER),
    "observer.synthesize_observer.self_ms":
        ("observer.synthesize_observer", "self_ms", "op", _OBSERVER),
    "simulate.simulate.self_ms_per_step": ("simulate.simulate", "self_ms", "step", _RK4),
    "simulate.input_calls_per_step": ("input", "calls", "step", _RK4),
    "simulate.write_trace_csv.self_ms": ("simulate.write_trace_csv", "self_ms", "op", _CSV),
    "simulate.csv_bytes": ("simulate.write_trace_csv", "bytes", "op", _CSV),
    "matrixio.load_matrices.self_ms": ("matrixio.load_matrices", "self_ms", "op", _MATRIXIO),
    "matrixio.save_matrices.self_ms": ("matrixio.save_matrices", "self_ms", "op", _MATRIXIO),
    "matrixio.load_bytes": ("matrixio.load_matrices", "bytes", "op", _MATRIXIO),
    "matrixio.save_bytes": ("matrixio.save_matrices", "bytes", "op", _MATRIXIO),
    "cli.main.self_ms": ("cli.main", "self_ms", "op", (("cli", "throughput_per_s"),)),
}

# Besides these, the traced run reports its probe pass's failures per gate of
# ``checks.GATES`` as ``defect.<gate>``: how many known-defect cells failed
# there.  They move no end-to-end metric, since the timed pools hold only
# cells that pass; a fix shows as a lower count here and can then move its
# cells into a timed pool.
