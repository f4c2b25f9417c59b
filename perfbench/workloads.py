"""The three closed-loop workloads: ``design``, ``cosim`` and ``cli``.

A workload's set-up turns a seed and a pass number into a list of ``Item``s,
from its timed pool or, with ``probes``, from its pool of known defects.
Each item is one operation against the public API of ``sylvobs``; the runner
calls it, times it and hands its result (or exception) to the item's check.
Names are looked up on the ``sylvobs`` modules at call time, so the traced
run's shims see every call.
"""

import contextlib
import importlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import gen

COSIM_T_FINAL = 5.0
# the CLI's default horizon.  simulate exits 3 when the observer error has not
# fallen below its start by the end; with the default poles -1, -1.5, ... and
# a 1 s horizon that happened on about one draw in ten at n = 4
CLI_T_FINAL = 10.0
DT = 1e-3


@dataclass
class Item:
    """One operation of a workload.

    ``cls`` is its latency class (``small``/``mid``/``large``) or None;
    ``steps`` the RK4 steps it integrates; ``input_calls`` reads the
    benchmark-owned input's call counter, when it has one.  An item that is
    not ``timed`` stands for a case whose set-up already failed: it is
    checked and counted, but it runs nothing worth timing.
    """

    name: str
    cls: str | None
    call: Callable[[], object]
    check: Callable[[object, BaseException | None], checks.Outcome]
    steps: int = 0
    input_calls: Callable[[], int] | None = None
    timed: bool = True


class CountingSinusoid:
    """Input u(t) = amplitude * sin(t), the CLI's default sinusoid, counting its calls."""

    def __init__(self, amplitude):
        self.amplitude = np.asarray(amplitude, dtype=float)
        self.calls = 0

    def __call__(self, t):
        self.calls += 1
        return self.amplitude * math.sin(t)


def _size_class(n, sizes):
    return dict(zip(sizes, ("small", "mid", "large"))).get(n)


def design_items(sv, seed, instance, workdir, probes=False):
    """``synthesize_observer(Plant(A, B, C))`` over the design pool."""
    items = []
    for case in gen.design_pool(seed, instance, probes):
        def call(case=case):
            return sv.synthesize_observer(sv.Plant(case.A, case.B, case.C))

        def check(obs, exc, case=case):
            return checks.check_design(case, obs, exc, sv.UndetectableError)

        items.append(Item(case.name, _size_class(case.n, (8, 32, 64)), call, check))
    return items


def cosim_items(sv, seed, instance, workdir, probes=False):
    """``simulate`` then ``error_metrics``; observers are synthesized here, in set-up."""
    steps = round(COSIM_T_FINAL / DT)
    items = []
    for case in gen.cosim_pool(seed, instance, probes):
        plant = sv.Plant(case.A, case.B, case.C)
        u = CountingSinusoid(np.ones(plant.m))
        cfg = sv.SimulationConfig(t_final=COSIM_T_FINAL, dt=DT, input_signal=u)
        try:
            obs = sv.synthesize_observer(plant, desired=case.poles)
        except (ValueError, np.linalg.LinAlgError) as exc:
            # no observer, nothing to integrate: the case fails under its set-up
            # gate and stays out of the timings and the step count
            failed = checks.Outcome(checks.gate_of_exception(exc), False)
            items.append(Item(case.name, None, lambda: None, lambda r, e, failed=failed: failed,
                              timed=False))
            continue

        def call(case=case, plant=plant, obs=obs, cfg=cfg):
            with np.errstate(over="ignore", invalid="ignore"):
                trace = sv.simulate(plant, obs, case.x0, case.z0, cfg)
                return trace, sv.error_metrics(trace)

        def check(result, exc, case=case, obs=obs):
            return checks.check_cosim(case, obs, result, exc)

        items.append(Item(case.name, _size_class(case.n, (2, 8, 32)), call, check,
                          steps=steps, input_calls=lambda u=u: u.calls))
    return items


def _write_plant(path, case):
    named = {"A": case.A, "B": case.B, "C": case.C,
             "x0": case.x0.reshape(-1, 1), "z0": case.z0.reshape(-1, 1)}
    doc = {k: {"rows": v.shape[0], "cols": v.shape[1], "data": v.ravel().tolist()}
           for k, v in named.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def run_cli(cli, argv):
    """``cli.main(argv)`` in-process; returns (exit code, captured output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_items(sv, seed, instance, workdir, probes=False):
    """check, observe and simulate --csv on each plant file, in that order."""
    cli = importlib.import_module("sylvobs.cli")
    steps = round(CLI_T_FINAL / DT)
    items = []
    for case in gen.cli_pool(seed, instance, probes):
        system = os.path.join(workdir, f"{case.name}.json")
        observer = os.path.join(workdir, f"{case.name}.observer.json")
        csv = os.path.join(workdir, f"{case.name}.csv")
        _write_plant(system, case)

        def check_call(system=system):
            return run_cli(cli, ["check", system, "--json"])

        def observe_call(system=system, observer=observer):
            return run_cli(cli, ["observe", system, "--json", "--out", observer])

        def simulate_call(system=system, observer=observer, csv=csv):
            return run_cli(cli, ["simulate", system, "--observer", observer, "--input", "sinusoid",
                            "--t-final", str(CLI_T_FINAL), "--dt", str(DT), "--csv", csv, "--json"])

        def check_check(result, exc):
            return _cli_outcome(result, exc, checks.check_cli_check)

        def observe_check(result, exc, case=case, observer=observer):
            return _cli_outcome(result, exc,
                                lambda code, out: checks.check_cli_observe(case, code, observer))

        def simulate_check(result, exc, case=case, observer=observer, csv=csv):
            outcome = _cli_outcome(result, exc, lambda code, out: checks.check_cli_simulate(
                case, code, observer, csv, steps, DT))
            # the next pass must write both outputs afresh
            for path in (observer, csv):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
            return outcome

        items += [
            Item(f"check-{case.name}", "small", check_call, check_check),
            Item(f"observe-{case.name}", "mid", observe_call, observe_check),
            Item(f"simulate-{case.name}", "large", simulate_call, simulate_check, steps=steps),
        ]
    return items


def _cli_outcome(result, exc, judge):
    if exc is not None:  # main() catches library errors; anything else escaped it
        return checks.Outcome("exit_code", False)
    code, out = result
    return judge(code, out)


@dataclass(frozen=True)
class Workload:
    setup: Callable
    per_step: bool  # throughput counts RK4 steps instead of operations


WORKLOADS = {
    "design": Workload(design_items, False),
    "cosim": Workload(cosim_items, True),
    "cli": Workload(cli_items, False),
}
