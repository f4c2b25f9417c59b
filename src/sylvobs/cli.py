"""Command-line front end: check / solve / observe / simulate.

Exit codes: 0 success, 1 input error (a step outside RK4's stability
region included), 2 undetectable pair, 3 simulation diagnostic failure
(error did not decay).
"""

import argparse
import json
import sys

import numpy as np

from .analysis import UndetectableError, check_detectability
from .matrixio import load_matrices, save_matrices
from .observer import Plant, ReducedObserver, synthesize_observer
from .simulate import (
    ConstantInput,
    SimulationConfig,
    SinusoidInput,
    error_metrics,
    simulate,
    write_trace_csv,
)
from .sylvester import solve_constrained_sylvester

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNDETECTABLE = 2
EXIT_DIAGNOSTIC = 3


def _require(matrices, path, *keys):
    out = []
    for key in keys:
        if key not in matrices:
            raise ValueError(f"{path}: missing matrix '{key}'")
        out.append(matrices[key])
    return out


def _parse_poles(text):
    try:
        return [complex(tok.strip().replace("i", "j")) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"cannot parse pole list '{text}'") from None


def _parse_vector(text, name):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"cannot parse {name} '{text}'") from None


def _fmt_complex(v):
    v = complex(v)
    if v.imag == 0.0:
        return f"{v.real:.6g}"
    return f"{v.real:.6g}{v.imag:+.6g}j"


def _print_verdict(verdict, as_json):
    if as_json:
        doc = {
            "detectable": verdict.detectable,
            "eigenvalues": [
                {
                    "value": [e.eigenvalue.real, e.eigenvalue.imag],
                    "stable": e.stable,
                    "observable": e.observable,
                }
                for e in verdict.per_eigenvalue
            ],
            "offending": [[v.real, v.imag] for v in verdict.offending],
            "observability_indices": list(verdict.observability_indices),
        }
        print(json.dumps(doc, indent=2))
        return
    print(f"{'eigenvalue':>24}  {'stable':>6}  {'observable':>10}")
    for e in verdict.per_eigenvalue:
        print(
            f"{_fmt_complex(e.eigenvalue):>24}  "
            f"{'yes' if e.stable else 'no':>6}  "
            f"{'yes' if e.observable else 'no':>10}"
        )
    if verdict.detectable:
        print("pair (A, C) is detectable")
    else:
        offending = ", ".join(_fmt_complex(v) for v in verdict.offending)
        print(f"pair (A, C) is NOT detectable; offending eigenvalues: {offending}")


def _print_report(report, as_json, extra=None):
    doc = {
        "residual_norm": report.residual_norm,
        "stacked_min_singular_value": report.stacked_min_singular_value,
        "F_spectral_abscissa": report.F_spectral_abscissa,
        "T_rank": report.T_rank,
    }
    if extra:
        doc.update(extra)
    if as_json:
        print(json.dumps(doc, indent=2))
        return
    width = max(len(k) for k in doc)
    for key, value in doc.items():
        print(f"{key:<{width}}  {value}")


def cmd_check(args):
    A, C = _require(load_matrices(args.system), args.system, "A", "C")
    verdict = check_detectability(A, C, args.tol)
    _print_verdict(verdict, args.json)
    return EXIT_OK if verdict.detectable else EXIT_UNDETECTABLE


def cmd_solve(args):
    A, C = _require(load_matrices(args.system), args.system, "A", "C")
    poles = _parse_poles(args.poles) if args.poles else None
    sol = solve_constrained_sylvester(A, C, poles, args.tol)
    save_matrices(args.out, {"T": sol.T, "F": sol.F, "G": sol.G, "L": sol.L, "K": sol.K})
    _print_report(sol.report, args.json, extra={"output": args.out})
    return EXIT_OK


def cmd_observe(args):
    matrices = load_matrices(args.system)
    A, B, C = _require(matrices, args.system, "A", "B", "C")
    poles = _parse_poles(args.poles) if args.poles else None
    plant = Plant(A, B, C)
    obs = synthesize_observer(plant, poles, args.tol)
    save_matrices(
        args.out, {"F": obs.F, "G": obs.G, "P": obs.P, "T": obs.T, "W": obs.W}
    )
    _print_report(obs.report, args.json, extra={"order": obs.order, "output": args.out})
    return EXIT_OK


def _observer_from_file(path):
    matrices = load_matrices(path)
    F, G, P, T, W = _require(matrices, path, "F", "G", "P", "T", "W")
    return ReducedObserver(F=F, G=G, P=P, T=T, W=W)


def _input_from_args(args, m):
    if args.input == "zero":
        return None
    amplitude = _parse_vector(args.amplitude, "--amplitude") if args.amplitude else [1.0] * m
    if args.input == "constant":
        return ConstantInput(amplitude)
    return SinusoidInput(amplitude, args.frequency, args.phase)


def cmd_simulate(args):
    matrices = load_matrices(args.system)
    A, B, C = _require(matrices, args.system, "A", "B", "C")
    plant = Plant(A, B, C)
    if args.observer:
        obs = _observer_from_file(args.observer)
    else:
        poles = _parse_poles(args.poles) if args.poles else None
        obs = synthesize_observer(plant, poles, args.tol)

    if args.x0:
        x0 = _parse_vector(args.x0, "--x0")
    elif "x0" in matrices:
        x0 = matrices["x0"].ravel()
    else:
        x0 = np.zeros(plant.n)
    if args.z0:
        z0 = _parse_vector(args.z0, "--z0")
    elif "z0" in matrices:
        z0 = matrices["z0"].ravel()
    else:
        z0 = np.zeros(obs.order)

    cfg = SimulationConfig(
        t_final=args.t_final, dt=args.dt, input_signal=_input_from_args(args, plant.m)
    )
    trace = simulate(plant, obs, x0, z0, cfg)
    metrics = error_metrics(trace)
    if args.csv:
        write_trace_csv(trace, args.csv)
        metrics_doc = dict(metrics, csv=args.csv)
    else:
        metrics_doc = dict(metrics)
    if args.json:
        # JSON has no NaN/inf: a diverged trace's metrics print as null
        doc = {k: None if isinstance(v, float) and not np.isfinite(v) else v
               for k, v in metrics_doc.items()}
        print(json.dumps(doc, indent=2))
    else:
        width = max(len(k) for k in metrics_doc)
        for key, value in metrics_doc.items():
            print(f"{key:<{width}}  {value}")

    x0_scale = 1.0 + float(np.linalg.norm(np.asarray(x0, dtype=float)))
    decayed = metrics["decay_ratio"] < 1.0 or metrics["final_error_norm"] <= 1e-9 * x0_scale
    return EXIT_OK if decayed else EXIT_DIAGNOSTIC


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sylvobs",
        description=(
            "Reduced-order observer toolkit: detectability checks, constrained "
            "Sylvester-observer solutions, observer synthesis, co-simulation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("system", help="JSON matrix file (see README for the schema)")
        p.add_argument(
            "--tol", type=float, default=1e-9, help="rank cutoff of C and of the observability staircase"
        )
        p.add_argument("--json", action="store_true", help="machine-readable report")

    p = sub.add_parser("check", help="detectability verdict for (A, C)")
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="solve the constrained equation for (T, F, G)")
    add_common(p)
    p.add_argument("--poles", help="comma-separated target poles, e.g. '-1,-2+1j,-2-1j'")
    p.add_argument("--out", default="solution.json", help="output matrix file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("observe", help="synthesize the reduced-order observer")
    add_common(p)
    p.add_argument("--poles", help="comma-separated target poles")
    p.add_argument("--out", default="observer.json", help="output matrix file")
    p.set_defaults(func=cmd_observe)

    p = sub.add_parser("simulate", help="co-simulate plant and observer")
    add_common(p)
    p.add_argument("--observer", help="observer matrix file (default: synthesize)")
    p.add_argument("--poles", help="poles for inline synthesis")
    p.add_argument("--t-final", type=float, default=10.0, help="horizon in seconds")
    p.add_argument("--dt", type=float, default=1e-3, help="integrator step in seconds")
    p.add_argument(
        "--input",
        choices=["zero", "constant", "sinusoid"],
        default="zero",
        help="input signal shape",
    )
    p.add_argument("--amplitude", help="comma-separated amplitude vector (default: ones)")
    p.add_argument("--frequency", type=float, default=1.0, help="sinusoid rad/s")
    p.add_argument("--phase", type=float, default=0.0, help="sinusoid phase, rad")
    p.add_argument("--x0", help="initial plant state, comma-separated")
    p.add_argument("--z0", help="initial observer state, comma-separated")
    p.add_argument("--csv", help="write the trace CSV to this path")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        return args.func(args)
    except UndetectableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDETECTABLE
    except (ValueError, KeyError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
