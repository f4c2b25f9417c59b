"""Layered benchmark for sylvobs.

    python3 perfbench/run.py --workload design|cosim|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout: the library is imported from ``src/`` next
to this directory, never from an installed copy.  One caller runs the
workload's operations in a closed loop, one after another, in whole passes
over the seeded pool until the next pass would overrun ``--seconds``.  Every
outcome is checked by the benchmark's own code.

With ``--trace 0`` the passes cycle through ``INSTANCES`` instances of the
timed pool, and the last line of stdout is a JSON object with every
end-to-end metric.  With
``--trace 1`` every pass reuses the first instance, so its counts repeat
exactly; passes alternate between untraced and traced.  After them the
workload's probe pool of known defects runs once, untraced, and the last
line carries every per-layer metric, the probes' failures by gate and the
tracing overhead.  The lines before it print each metric with its unit,
sample count and the name it has in the workload's own terms, and the
failures by gate.

Timings are in reference milliseconds.  The host is shared, and its speed
drifts by up to a factor of two over seconds to minutes as neighbours come
and go.  So a fixed reference computation (``make_reference``) runs before
every timed operation and every set-up, and each raw time is scaled by
``REFERENCE_S`` over the median of the reference times nearest to it.  A
change to ``sylvobs`` moves the operations' times and not the reference's,
so it shows in full; a slower or faster host moves both and cancels out.
The reference mixes LAPACK and interpreted steps as the timed operations do;
it does not track solves that sit in LAPACK for hundreds of milliseconds,
which is why no timed cell is that large.  The raw medians are printed too.
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from pathlib import Path

import catalog

ROOT = Path(__file__).resolve().parent.parent
CLASSES = ("small", "mid", "large")
# nominal seconds of the reference computation on a quiet host, and how many
# reference samples on each side of a timing make its local speed estimate
REFERENCE_S = 2e-3
REFERENCE_WINDOW = 4
# instances of the timed pool an untraced run cycles through: enough plants
# per cell to average their timings, few enough that a run draws few plants.
# Each timed cell failed on none of 2000 draws, but a cell that failed once in
# 20000 would still fail in some run if every pass drew a fresh plant.
INSTANCES = 8


def _import_library():
    """Import numpy single-threaded and sylvobs from ``src/`` of this checkout."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "sylvobs" / "__init__.py").is_file():
        raise ImportError(f"no sylvobs sources under {src}")
    sys.path.insert(0, str(src))
    import sylvobs

    if not Path(sylvobs.__file__).resolve().is_relative_to(src):
        raise ImportError(f"sylvobs was imported from {sylvobs.__file__}, not from {src}")
    return sylvobs


def make_reference():
    """The reference computation: fixed work in the workloads' three styles,
    LAPACK on a 64 x 64 matrix, a loop of small numpy steps, and floats
    formatted as text.  Call after ``_import_library``."""
    import numpy as np

    rng = np.random.default_rng(0)
    M, v = rng.standard_normal((64, 64)), rng.standard_normal(8)

    def reference_work():
        np.linalg.svd(M, compute_uv=False)
        np.linalg.eigvals(M)
        x = v
        for _ in range(400):
            x = x + 1e-3 * np.sin(x)
        return x, ",".join(f"{t:.17g}" for t in np.tile(v, 50))

    return reference_work


class Run:
    """Samples, outcomes and spans gathered over one benchmark run.

    ``setup(instance)`` builds the items of one instance of the workload's
    pool and runs before every pass, so its median spans the run like every
    other timing.  ``kinds`` keeps each timed item's latency class and RK4
    steps by name.  With a ``reference`` callable, every untraced timing
    (set-up included) follows one reference sample and keeps its index, and
    ``scaled`` turns such timings into reference seconds.
    """

    def __init__(self, setup, tracer, reference=None):
        self.setup = setup
        self.reference = reference
        self.items = []
        self.ref_s = []
        self.setup_s = []  # [(raw seconds, reference index or None)]
        self.tracer = tracer
        self.samples = defaultdict(list)  # name -> [(raw seconds, reference index)]
        self.kinds = {}
        self.pass_op_s = {False: [], True: []}
        self.gates = Counter()
        self.attempted = 0
        self.wrong = 0
        self.traced_ops = 0
        self.traced_steps = 0
        self.traced_input_calls = 0

    def _reference_sample(self, traced):
        if traced or self.reference is None:
            return None
        t0 = time.perf_counter()
        self.reference()
        self.ref_s.append(time.perf_counter() - t0)
        return len(self.ref_s) - 1

    def run_pass(self, traced, instance):
        ref = self._reference_sample(traced)
        t0 = time.perf_counter()
        self.items = self.setup(instance)
        self.setup_s.append((time.perf_counter() - t0, ref))
        op_total = 0.0
        for item in self.items:
            before = item.input_calls() if item.input_calls else 0
            ref = self._reference_sample(traced)
            recording = self.tracer.recording() if traced else nullcontext()
            with recording:
                t0 = time.perf_counter()
                try:
                    result, exc = item.call(), None
                except Exception as e:  # every failure is an outcome to classify
                    result, exc = None, e
                dt = time.perf_counter() - t0
            op_total += dt
            if traced:
                self.traced_ops += 1
                self.traced_steps += item.steps
                if item.input_calls:
                    self.traced_input_calls += item.input_calls() - before
            elif item.timed:
                self.samples[item.name].append((dt, ref))
                self.kinds[item.name] = (item.cls, item.steps)
            outcome = item.check(result, exc)
            self.attempted += 1
            if not outcome.ok:
                self.gates[outcome.gate] += 1
                self.wrong += outcome.wrong
        self.pass_op_s[traced].append(op_total)

    def run(self, seconds, trace):
        """Whole passes until the next would overrun; traced runs alternate passes."""
        start = time.perf_counter()
        passes = 0
        while True:
            t0 = time.perf_counter()
            traced = trace and passes % 2 == 1
            instance = 0 if trace else passes % INSTANCES
            if traced:
                with self.tracer.installed():
                    self.run_pass(True, instance)
            else:
                self.run_pass(False, instance)
            passes += 1
            now = time.perf_counter()
            if passes >= (2 if trace else 1) and now - start + (now - t0) > seconds:
                return

    def scaled(self, samples, raw=False):
        """Seconds of ``(raw seconds, reference index)`` samples, in reference
        seconds: each scaled by REFERENCE_S over the median of the reference
        samples within REFERENCE_WINDOW of its own."""
        if raw or self.reference is None:
            return [dt for dt, _ref in samples]
        w = REFERENCE_WINDOW
        return [dt * REFERENCE_S / statistics.median(self.ref_s[max(0, i - w):i + w + 1])
                for dt, i in samples]

    @property
    def failed(self):
        return sum(self.gates.values())


def e2e_metrics(run, workload, raw=False):
    med = {name: statistics.median(run.scaled(v, raw)) for name, v in run.samples.items()}
    work = sum(steps if workload.per_step else 1 for _cls, steps in run.kinds.values())
    values = {
        "setup_s": (statistics.median(run.scaled(run.setup_s, raw)), len(run.setup_s)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "success_rate": ((run.attempted - run.failed) / run.attempted, run.attempted),
        "throughput_per_s": (work / sum(med.values()), sum(map(len, run.samples.values()))),
    }
    for cls in CLASSES:
        names = [name for name, (c, _steps) in run.kinds.items() if c == cls]
        values[f"latency_{cls}_ms"] = (
            1e3 * statistics.median(med[n] for n in names),
            sum(len(run.samples[n]) for n in names),
        )
    return values


def tail_lines(run):
    """The highest of p90/p99 per latency class that has ten samples beyond it."""
    lines = []
    for cls in CLASSES:
        pooled = sorted(t for name, (c, _steps) in run.kinds.items() if c == cls
                        for t in run.scaled(run.samples[name]))
        for pct in (99, 90):
            beyond = len(pooled) - math.ceil(len(pooled) * pct / 100)
            if beyond >= 10:
                cut = statistics.quantiles(pooled, n=100)[pct - 1]
                lines.append(f"tail latency_{cls}_ms p{pct} = {1e3 * cut:.6g} ms  "
                             f"[samples {len(pooled)}, {beyond} beyond]")
                break
    return lines


def layer_metrics(run, probes):
    """Per-layer metrics of a traced run, and the failures of its probe pass by gate."""
    from checks import GATES

    stats = run.tracer.stats()
    stats["input"] = {"calls": run.traced_input_calls}
    values = {}
    for metric, (span, stat, per, _moves) in catalog.LAYER_METRICS.items():
        entry = stats.get(span, {})
        if stat == "bytes":
            raw = run.tracer.bytes[span]
        elif stat == "self_ms":
            raw = 1e3 * entry.get("self_s", 0.0)
        else:
            raw = entry.get(stat, 0)
        base = run.traced_ops if per == "op" else run.traced_steps
        values[metric] = (raw / base if base else 0.0, run.traced_ops)
    plain, traced = (statistics.median(run.pass_op_s[k]) for k in (False, True))
    values["trace.overhead_ms_per_op"] = (1e3 * (traced - plain) / len(run.items), run.traced_ops)
    for gate in GATES:
        values[f"defect.{gate}"] = (probes.gates[gate], probes.attempted)
    return values


def _print_report(workload_name, workload, values, units, run, trace):
    raw = {} if trace else e2e_metrics(run, workload, raw=True)
    for name, (value, samples) in values.items():
        alias = catalog.E2E_ALIASES.get(name, {}).get(workload_name)
        label = f"  ({workload_name}.{alias})" if alias else ""
        unscaled = f"  raw {raw[name][0]:.6g}" if units[name] in ("ms", "s", "1/s") and raw else ""
        print(f"metric {name} = {value:.6g} {units[name]}  [samples {samples}]{label}{unscaled}")
    for line in [] if trace else tail_lines(run):
        print(line)
    if run.ref_s:
        print(f"reference = {1e3 * statistics.median(run.ref_s):.6g} ms  "
              f"[samples {len(run.ref_s)}, nominal {1e3 * REFERENCE_S:g}]")
    for gate, count in sorted(run.gates.items()):
        print(f"failed[{gate}] = {count}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="sylvobs layered benchmark")
    parser.add_argument("--workload", required=True, choices=("design", "cosim", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        sv = _import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    reference = make_reference()
    # inside the checkout: the benchmark reads and writes nowhere else
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        def setup(instance, probes=False):
            return workload.setup(sv, args.seed, instance, workdir, probes)

        # warm-up: caches fill, lazy set-up ends
        Run(setup, spans.Tracer(), reference).run_pass(False, 0)
        run = Run(setup, spans.Tracer(), None if args.trace else reference)
        run.run(args.seconds, bool(args.trace))
        probes = Run(lambda instance: setup(instance, probes=True), spans.Tracer())
        if args.trace:
            probes.run_pass(False, 0)
            for gate, count in sorted(probes.gates.items()):
                print(f"probe failed[{gate}] = {count} of {probes.attempted}")

    if args.trace:
        values, units = layer_metrics(run, probes), catalog.units("per_layer")
    else:
        values, units = e2e_metrics(run, workload), catalog.units("end_to_end")
    _print_report(args.workload, workload, values, units, run, args.trace)
    print(json.dumps({
        "correct": run.wrong == 0 and probes.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _samples) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
