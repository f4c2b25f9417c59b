"""Self-tests for the benchmark: ``python3 -m pytest perfbench -q`` from the repo root."""

import contextlib
import dataclasses
import importlib
import json
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import catalog  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import sylvobs as sv  # noqa: E402

MODULES = ("sylvobs", "sylvobs.analysis", "sylvobs.gains", "sylvobs.linalg", "sylvobs.sylvester",
           "sylvobs.observer", "sylvobs.simulate", "sylvobs.matrixio", "sylvobs.cli")


def _arrays(case):
    return [getattr(case, f.name) for f in dataclasses.fields(case)
            if isinstance(getattr(case, f.name), np.ndarray)]


@pytest.mark.parametrize("pool, probes", [(gen.design_pool, False), (gen.design_pool, True),
                                          (gen.cosim_pool, False), (gen.cosim_pool, True),
                                          (gen.cli_pool, False)])
def test_same_seed_gives_identical_inputs(pool, probes):
    first, again = pool(7, 1, probes), pool(7, 1, probes)
    assert [c.name for c in first] == [c.name for c in again]
    for a, b, other_seed, other_pass in zip(first, again, pool(8, 1, probes), pool(7, 2, probes)):
        assert [x.tobytes() for x in _arrays(a)] == [x.tobytes() for x in _arrays(b)]
        assert (a.hidden, a.offending, a.scale, a.poles) == (b.hidden, b.offending, b.scale, b.poles)
        assert a.A.tobytes() != other_seed.A.tobytes()
        assert a.A.tobytes() != other_pass.A.tobytes()


def test_planted_answers_ride_with_the_inputs():
    pool = {c.name: c for c in gen.design_pool(3, 0)}
    bad = pool["undetectable-n32-p4"]
    assert any(abs(lam - bad.offending) < 1e-8 for lam in np.linalg.eigvals(bad.A))
    hidden = pool["hidden-n16-p2"]
    for lam in hidden.hidden:
        assert np.min(np.abs(np.linalg.eigvals(hidden.A) - lam)) < 1e-8
    assert {c.name: c for c in gen.design_pool(3, 0, probes=True)}["scaled1e+06-n8-p2"].scale == 1e6
    stiff = gen.cosim_pool(3, 0, probes=True)
    assert stiff and all(-5000 <= p <= -3000 for c in stiff for p in c.poles)


def _one(item):
    r = run.Run(lambda instance: [item], spans.Tracer())
    r.run_pass(False, 0)
    return r


def test_timed_and_probe_pools_share_no_cell():
    for pool in (gen.design_pool, gen.cosim_pool):
        assert not {c.name for c in pool(3, 0)} & {c.name for c in pool(3, 0, probes=True)}


def test_stiff_probes_fail_at_set_up_or_with_a_nonfinite_trace():
    r = run.Run(lambda instance: workloads.cosim_items(sv, 3, instance, None, probes=True),
                spans.Tracer())
    r.run_pass(False, 0)
    assert (r.attempted, r.failed, r.wrong) == (2, 2, 0)
    assert set(r.gates) <= {"nonfinite_trace", "verification"}


def test_scaled_probes_fail_at_placement():
    items = [it for it in workloads.design_items(sv, 3, 0, None, probes=True)
             if it.name.startswith("scaled")]
    r = run.Run(lambda instance: items, spans.Tracer())
    r.run_pass(False, 0)
    assert (r.attempted, r.failed, r.wrong) == (4, 4, 0)
    assert r.gates == {"placement": 4}


def test_timings_are_scaled_by_the_nearby_reference_samples():
    r = run.Run(lambda instance: [], spans.Tracer(), reference=lambda: None)
    r.ref_s = [run.REFERENCE_S] * 10 + [2 * run.REFERENCE_S] * 10
    assert r.scaled([(1.0, 2), (1.0, 17)]) == [1.0, 0.5]
    assert r.scaled([(1.0, 17)], raw=True) == [1.0]


def test_corrupted_T_fails_verification():
    case = {c.name: c for c in gen.design_pool(3, 0)}["plain-n8-p2"]
    obs = sv.synthesize_observer(sv.Plant(case.A, case.B, case.C))
    assert checks.check_design(case, obs, None, sv.UndetectableError).ok
    bad = dataclasses.replace(obs, T=obs.T + 1e-3)
    item = workloads.Item("corrupt", None, lambda: bad,
                          lambda o, e: checks.check_design(case, o, e, sv.UndetectableError))
    r = _one(item)
    assert (r.attempted, r.failed, r.wrong) == (1, 1, 1)
    assert r.gates == {"verification": 1}


def test_nan_trace_fails_nonfinite_trace():
    case = next(c for c in gen.cosim_pool(3, 0) if c.kind == "stable" and c.n == 2)
    plant = sv.Plant(case.A, case.B, case.C)
    obs = sv.synthesize_observer(plant)
    cfg = sv.SimulationConfig(t_final=0.5, dt=1e-3)
    trace = sv.simulate(plant, obs, case.x0, case.z0, cfg)
    assert checks.check_cosim(case, obs, (trace, sv.error_metrics(trace)), None).ok
    e = trace.e.copy()
    e[-1, 0] = np.nan
    bad = dataclasses.replace(trace, e=e)
    item = workloads.Item("nan", None, lambda: (bad, sv.error_metrics(bad)),
                          lambda res, exc: checks.check_cosim(case, obs, res, exc))
    r = _one(item)
    assert (r.attempted, r.failed, r.wrong) == (1, 1, 0)
    assert r.gates == {"nonfinite_trace": 1}


def test_set_up_failure_is_counted_but_not_timed():
    failed = checks.Outcome("verification", False)
    r = _one(workloads.Item("stiff", "small", lambda: None, lambda res, exc: failed, timed=False))
    assert (r.attempted, r.failed, r.wrong) == (1, 1, 0)
    assert not r.samples and not r.kinds


@pytest.mark.parametrize("trace", [False, True])
def test_untraced_passes_cycle_through_instances_traced_passes_reuse_the_first(trace):
    seen = []
    r = run.Run(lambda instance: seen.append(instance) or [], spans.Tracer())
    r.run(0.05, trace)
    assert len(seen) > run.INSTANCES
    assert seen == [0 if trace else i % run.INSTANCES for i in range(len(seen))]


def test_undetectable_verdict_must_name_the_planted_eigenvalue():
    case = {c.name: c for c in gen.design_pool(3, 0)}["undetectable-n32-p4"]
    right = sv.UndetectableError("x", [case.offending + 0j])
    wrong = sv.UndetectableError("x", [case.offending + 1.0])
    assert checks.check_design(case, None, right, sv.UndetectableError).ok
    assert checks.check_design(case, None, wrong, sv.UndetectableError) == checks.Outcome(
        "undetectable", True)


def _snapshot():
    modules = {name: importlib.import_module(name) for name in MODULES}
    snap = {}
    for name, module in modules.items():
        snap.update({(name, k): v for k, v in vars(module).items()})
    snap.update({("Plant", k): v for k, v in vars(sv.Plant).items()})
    snap.update({("numpy.linalg", k): v for k, v in vars(np.linalg).items()})
    return snap


def _small_design(seed):
    return [it for it in workloads.design_items(sv, seed, 0, None)
            if it.name in ("plain-n8-p2", "hidden-n8-p2", "hidden-n16-p2", "undetectable-n32-p4")]


def _traced(items):
    r = run.Run(lambda instance: items, spans.Tracer())
    r.run(0.0, True)  # one untraced pass, then one traced pass
    return r


def test_shims_leave_sylvobs_unchanged_and_counts_repeat(tmp_path):
    before = _snapshot()
    items = _small_design(3) + workloads.cli_items(sv, 3, 0, str(tmp_path))[:3]
    first, second = _traced(items), _traced(items)
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    counts = [{k: v["calls"] for k, v in r.tracer.stats().items()} for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["analysis.check_detectability"] > 0
    assert counts[0]["np.linalg.svd"] > 0
    assert counts[0]["cli.main"] == 3
    assert first.tracer.bytes["matrixio.save_matrices"] > 0


def test_self_time_excludes_child_layer_spans(monkeypatch):
    layer = types.ModuleType("fakelayer")

    def inner():
        time.sleep(0.02)

    def outer(fail):
        layer.inner()
        time.sleep(0.01)
        if fail:
            raise np.linalg.LinAlgError("outer gate")

    layer.inner, layer.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fakelayer", layer)
    monkeypatch.setattr(spans, "LAYER_SHIMS", (("fakelayer", "inner", "fake.inner"),
                                               ("fakelayer", "outer", "fake.outer")))
    tracer = spans.Tracer()
    with tracer.installed():
        for fail in (True, False):
            with tracer.recording(), pytest.raises(np.linalg.LinAlgError) if (
                    fail) else contextlib.nullcontext():
                layer.outer(fail)
    assert layer.outer is outer and layer.inner is inner
    stats = tracer.stats()
    assert stats["fake.inner"]["calls"] == stats["fake.outer"]["calls"] == 2
    assert 0.02 <= stats["fake.outer"]["self_s"] < 0.05  # two 10 ms sleeps, inner excluded


def test_missing_name_records_zero_calls(monkeypatch):
    monkeypatch.setattr(spans, "LAYER_SHIMS",
                        spans.LAYER_SHIMS + (("sylvobs.gains", "no_such_function", "gains.gone"),))
    r = _traced(_small_design(3)[:1])
    assert "gains.gone" not in r.tracer.stats()
    values = run.layer_metrics(r, run.Run(lambda instance: [], spans.Tracer()))
    assert set(values) == set(catalog.units("per_layer"))


def test_benchmark_json_names_every_metric_the_catalog_describes():
    doc = json.loads(catalog.BENCHMARK_JSON.read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert set(catalog.E2E_ALIASES) <= set(catalog.units("end_to_end"))
    defects = {f"defect.{gate}" for gate in checks.GATES}
    assert set(catalog.LAYER_METRICS) | {"trace.overhead_ms_per_op"} | defects == set(
        catalog.units("per_layer"))
