"""Command-line front end: check / solve / observe / simulate.

Exit codes: 0 success, 1 input error (a step outside RK4's stability
region included), 2 undetectable pair, 3 simulation diagnostic failure
(error did not decay).
"""

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .analysis import UndetectableError, check_detectability
from .matrixio import load_matrices, save_matrices
from .observer import Plant, ReducedObserver, synthesize_observer
from .simulate import ConstantInput, SimulationConfig, SinusoidInput, _summarize
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


def _list_type(convert, flag):
    """The argparse ``type`` of the comma-separated list option ``flag``:
    each entry through ``convert``, and None (the option's default) for a
    list with no entries, such as ``''``."""

    def parse(text):
        try:
            return [convert(tok) for tok in text.split(",") if tok.strip()] or None
        except ValueError:
            raise argparse.ArgumentTypeError(f"cannot parse {flag} '{text}'") from None

    return parse


def _join_list_values(argv):
    """``argv`` with each list option joined to the token after it, as
    ``--x0=-1,0``: argparse reads a token that starts with "-" as an option
    unless it is one plain number, so it would refuse most negative lists."""
    joined = []
    for arg in argv:
        if joined and joined[-1] in ("--poles", "--x0", "--z0", "--amplitude"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


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


def _print_flat(doc, as_json):
    """Print a flat report: as JSON, where a non-finite float is null (JSON
    has no NaN or inf), or as one aligned ``key  value`` line per entry."""
    if as_json:
        print(json.dumps({k: None if isinstance(v, float) and not math.isfinite(v) else v
                          for k, v in doc.items()}, indent=2))
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
    sol = solve_constrained_sylvester(A, C, args.poles, args.tol)
    save_matrices(args.out, {"T": sol.T, "F": sol.F, "G": sol.G, "L": sol.L, "K": sol.K})
    _print_flat(dict(dataclasses.asdict(sol.report), output=args.out), args.json)
    return EXIT_OK


def cmd_observe(args):
    matrices = load_matrices(args.system)
    A, B, C = _require(matrices, args.system, "A", "B", "C")
    obs = synthesize_observer(Plant(A, B, C), args.poles, args.tol)
    save_matrices(
        args.out, {"F": obs.F, "G": obs.G, "P": obs.P, "T": obs.T, "W": obs.W}
    )
    _print_flat(dict(dataclasses.asdict(obs.report), order=obs.order, output=args.out),
                args.json)
    return EXIT_OK


def _observer_from_file(path):
    matrices = load_matrices(path)
    F, G, P, T, W = _require(matrices, path, "F", "G", "P", "T", "W")
    return ReducedObserver(F=F, G=G, P=P, T=T, W=W)


def _input_from_args(args, m):
    if args.input == "zero":
        return None
    amplitude = args.amplitude or [1.0] * m
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
        obs = synthesize_observer(plant, args.poles, args.tol)
    # an initial state is its option's, else the file's, else zero
    x0 = args.x0 or matrices.get("x0", np.zeros((plant.n, 1))).ravel()
    z0 = args.z0 or matrices.get("z0", np.zeros((obs.order, 1))).ravel()

    cfg = SimulationConfig(
        t_final=args.t_final, dt=args.dt, input_signal=_input_from_args(args, plant.m)
    )
    # the trace is written and summarised block by block, never held whole;
    # an overflowing trace is reported once, by its first non-finite sample,
    # instead of by numpy's floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        metrics, nonfinite = _summarize(plant, obs, x0, z0, cfg, args.csv)
    if nonfinite is not None:
        step, t = nonfinite
        print(f"warning: the trace overflows: first non-finite sample at step {step} "
              f"(t = {t:g})", file=sys.stderr)
    _print_flat(dict(metrics, csv=args.csv) if args.csv else metrics, args.json)

    x0_scale = 1.0 + float(np.linalg.norm(np.asarray(x0, dtype=float)))
    decayed = metrics["decay_ratio"] < 1.0 or metrics["final_error_norm"] <= 1e-9 * x0_scale
    return EXIT_OK if decayed else EXIT_DIAGNOSTIC


def build_parser():
    # every parser takes each option by its full name only: an abbreviation
    # such as --pole would escape _join_list_values
    parser = argparse.ArgumentParser(
        prog="sylvobs",
        description=(
            "Reduced-order observer toolkit: detectability checks, constrained "
            "Sylvester-observer solutions, observer synthesis, co-simulation."
        ),
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_list(p, flag, convert, help):
        p.add_argument(flag, type=_list_type(convert, flag), help=help)

    def command(name, func, help, parents=()):
        p = sub.add_parser(name, parents=parents, help=help, allow_abbrev=False)
        p.add_argument("system", help="JSON matrix file (see README for the schema)")
        p.add_argument("--tol", type=float, default=0.0, help="absolute rank cutoff of C and of "
                       "the observability staircase; 0 selects the scale-aware default rules")
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.set_defaults(func=func)
        return p

    # the option of every command that solves, declared once
    poles = argparse.ArgumentParser(add_help=False)
    add_list(poles, "--poles", lambda tok: complex(tok.replace("i", "j")),
             "comma-separated target poles, e.g. '-1,-2+1j,-2-1j' (default: the library's)")

    command("check", cmd_check, "detectability verdict for (A, C)")

    p = command("solve", cmd_solve, "solve the constrained equation for (T, F, G)", [poles])
    p.add_argument("--out", default="solution.json", help="output matrix file")

    p = command("observe", cmd_observe, "synthesize the reduced-order observer", [poles])
    p.add_argument("--out", default="observer.json", help="output matrix file")

    p = command("simulate", cmd_simulate, "co-simulate plant and observer", [poles])
    p.add_argument("--observer", help="observer matrix file (default: synthesize)")
    p.add_argument("--t-final", type=float, default=10.0, help="horizon in seconds")
    p.add_argument("--dt", type=float, default=1e-3, help="integrator step in seconds")
    p.add_argument(
        "--input",
        choices=["zero", "constant", "sinusoid"],
        default="zero",
        help="input signal shape",
    )
    add_list(p, "--amplitude", float, "comma-separated amplitude vector (default: ones)")
    p.add_argument("--frequency", type=float, default=1.0, help="sinusoid rad/s")
    p.add_argument("--phase", type=float, default=0.0, help="sinusoid phase, rad")
    add_list(p, "--x0", float, "initial plant state, comma-separated")
    add_list(p, "--z0", float, "initial observer state, comma-separated")
    p.add_argument("--csv", help="write the trace CSV to this path")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(_join_list_values(sys.argv[1:] if argv is None else argv))
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
