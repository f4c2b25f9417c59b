"""Every metric of every workload in one table, with the outcome checks.

    python3 perfbench/report.py

Runs ``run.py``'s untraced and traced modes on each workload in this
process, for ``SECONDS`` each on seed ``SEED``, then prints each metric by name with its unit, its value per
workload, and what it stands for: an end-to-end metric's name in each
workload's own terms, or the (workload, end-to-end metric) pairs a per-layer
metric should move.  Exits 1 if any run reports a wrong answer.  All runs
share this process, so ``peak_rss_mb`` here is the peak so far, not per run.
"""

import contextlib
import io
import json
import sys

import catalog
import run

WORKLOADS = ("design", "cosim", "cli")
SEED = 1
SECONDS = 3.0


def main():
    results = {}
    for trace in (0, 1):
        for workload in WORKLOADS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = run.main(["--workload", workload, "--seed", str(SEED),
                                 "--seconds", str(SECONDS), "--trace", str(trace)])
            if code != 0:
                return code
            results[workload, trace] = json.loads(buf.getvalue().strip().splitlines()[-1])

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        print("end-to-end (untraced runs)" if trace == 0 else "per layer (traced runs)")
        print(f"  {'metric':46s} {'unit':11s}" + "".join(f"{w:>13s}" for w in WORKLOADS))
        for name, unit in catalog.units(section).items():
            cells = "".join(f"{results[w, trace]['metrics'][name]['value']:13.5g}" for w in WORKLOADS)
            print(f"  {name:46s} {unit:11s}{cells}   {_meaning(name)}")
    print("checks")
    wrong = False
    for (workload, trace), doc in results.items():
        wrong |= not doc["correct"]
        print(f"  {workload:7s} trace={trace}: correct={doc['correct']} "
              f"attempted={doc['attempted']} failed={doc['failed']}")
    return 1 if wrong else 0


def _meaning(name):
    if name in catalog.E2E_ALIASES:
        return ", ".join(f"{w}.{alias}" for w, alias in catalog.E2E_ALIASES[name].items())
    if name in catalog.LAYER_METRICS:
        return "moves " + ", ".join(f"{w}.{m}" for w, m in catalog.LAYER_METRICS[name][3])
    if name.startswith("defect."):
        return "known-defect probes that failed at this gate"
    return ""


if __name__ == "__main__":
    sys.exit(main())
