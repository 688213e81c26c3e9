"""Self-tests of the benchmark harness (no simulation is run).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import math
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


# -- span arithmetic ---------------------------------------------------------

def _tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    names = ["stepper.advance", "a", "b", "c"]
    span_list = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 5.0, 9.0, 0),
                 (3, 6.0, 7.0, 2)]
    return names, span_list


def test_self_time_subtracts_direct_children_only():
    _, span_list = _tree()
    assert spans.self_times(span_list) == [3.0, 3.0, 3.0, 1.0]


def test_self_times_close_on_the_root_total():
    names, span_list = _tree()
    assert spans.closure_gap(span_list, names) == 0.0
    assert spans.nesting_errors(span_list) == 0


def test_span_escaping_its_parent_is_counted():
    names, span_list = _tree()
    span_list[3] = (3, 6.0, 9.5, 2)
    assert spans.nesting_errors(span_list) == 1


def test_tracer_records_nested_spans_and_summary():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    kernel = tracer.wrap("numerics.tangential_derivative", lambda x: x)

    def step(x):
        return kernel(kernel(x))

    advance = tracer.wrap(spans.ADVANCE, step)
    advance(1)
    advance(2)
    kernel(3)   # outside any step
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, -1, 3, 3, -1]
    out = spans.summarize(tracer.names, tracer.spans, tracer.extras)
    assert out["stepper.advance.calls"] == 2
    # each step spans 5 ticks, its two kernel calls 1 tick each
    assert out["stepper.advance.self_s"] == 2 * (5 - 2)
    assert out["stepper.advance.ms"] == 5000.0
    assert out["stepper.advance.p99_ms"] == 5000.0
    assert out["numerics.tangential_derivative.calls"] == 5
    assert out["numerics.tangential_derivative.per_step"] == 2.0
    assert spans.closure_gap(tracer.spans, tracer.names) == 0.0


def test_tracer_extra_values_reach_the_summary():
    tracer = spans.Tracer()
    solve = tracer.wrap("elliptic.solve_transformed_poisson",
                        lambda n: (None, 1e-9 * n, n),
                        spans._poisson_extra)
    solve(3)
    solve(5)
    out = spans.summarize(tracer.names, tracer.spans, tracer.extras)
    assert out["elliptic.solve_transformed_poisson.iterations"] == 8
    assert out["elliptic.solve_transformed_poisson.residual"] == pytest.approx(5e-9)


# -- metric names ---------------------------------------------------------------

def test_metric_names_and_units_are_valid_and_unique():
    metrics = list(run.END_TO_END) + list(run.EXTRA) + list(spans.PER_LAYER)
    names = [n for n, _ in metrics]
    assert len(names) == len(set(names))
    for name, unit in metrics:
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
    for wl in run.WORKLOADS:
        assert NAME.match(wl), wl


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        spans.LISTED)
    assert set(spans.PARTIAL) <= set(spans.SPAN_NAMES)
    assert len(BENCHMARK["per_layer"]) <= 128


def test_params_follow_the_seed():
    for wl in run.WORKLOADS:
        assert run.make_params(wl, 7) == run.make_params(wl, 7)
    a = run.make_params("run-curved-64", 1)["data.h0_amplitude"]
    b = run.make_params("run-curved-64", 2)["data.h0_amplitude"]
    assert a != b
    assert checks.H0_RANGE[0] <= a <= checks.H0_RANGE[1]


# -- correctness checks ---------------------------------------------------------

REF = checks.load_reference()


def _curved_record(workload="run-curved-64"):
    """A record equal to the reference at its middle amplitude."""
    table = REF[workload]
    params = run.make_params(workload, 0)
    params["data.h0_amplitude"] = table["amplitudes"][1]
    rec = {"status": "completed", "finite": True, "manifest_written": True,
           "min_margin": table["min_margin"][1],
           "final_h": copy.deepcopy(table["final_h"][1]),
           "final_q_sample": copy.deepcopy(table["final_q_sample"][1]),
           "wall_s": 2.0, "setup_s": 0.6, "ms_per_step": 3.5,
           "peak_rss_mb": 100.0}
    return params, rec


def test_reference_record_passes():
    for wl in ("run-curved-64", "run-curved-128"):
        params, rec = _curved_record(wl)
        assert checks.check(wl, params, rec, REF) == []


@pytest.mark.parametrize("corrupt", [
    lambda r: r["final_q_sample"][3].__setitem__(5, r["final_q_sample"][3][5] + 1e-3),
    lambda r: r["final_h"].__setitem__(0, r["final_h"][0] + 1e-4),
    lambda r: r["final_h"].__setitem__(0, math.nan),
    lambda r: r.update(min_margin=-0.1),
    lambda r: r.update(status="aborted"),
    lambda r: r.update(finite=False),
    lambda r: r.update(manifest_written=False),
])
def test_corrupted_curved_run_fails(corrupt):
    params, rec = _curved_record()
    corrupt(rec)
    assert checks.check("run-curved-64", params, rec, REF)


def test_sweep_flag_change_fails():
    params = run.make_params("sweep-kappa-dense", 0)
    rec = dict(copy.deepcopy(REF["sweep-kappa-dense"]["outcome"]), status="completed",
               finite=True, wall_s=3.0, setup_s=0.7, ms_per_step=3.6,
               peak_rss_mb=200.0)
    assert checks.check("sweep-kappa-dense", params, rec, REF) == []
    rec["uniform_bound"][0] = True
    assert checks.check("sweep-kappa-dense", params, rec, REF)


def test_mms_error_above_the_stated_multiple_fails():
    params = run.make_params("mms-curved", 0)
    params["amp"] = 0.05
    rec = {"status": "completed", "finite": True, "wall_s": 3.0, "setup_s": 0.7,
           "ms_per_step": 20.0, "peak_rss_mb": 120.0,
           "mms_error": REF["mms-curved"]["mms_error"][1]}
    assert checks.check("mms-curved", params, rec, REF) == []
    rec["mms_error"] *= checks.MMS_FACTOR * 1.01
    assert checks.check("mms-curved", params, rec, REF)


def test_corrupted_repetition_is_counted_as_failed(monkeypatch):
    params, good = _curved_record()
    bad = copy.deepcopy(good)
    bad["final_q_sample"][0][0] += 1.0
    queue = [good, bad, None]

    def fake_child(workload, p, tag, cpu, trace_file, deadline):
        rec = queue.pop(0)
        return rec, 1.0, None if rec else "exited with status 1"

    monkeypatch.setattr(run, "run_child", fake_child)
    wl = run.WorkloadRun("run-curved-64", 0, False, REF)
    wl.params = params
    for _ in range(3):
        wl.run_once(deadline=run.now() + 60)
    assert len(wl.reps) == 3
    assert wl.failed() == 2
    assert wl.end_to_end()["wall_s"]["n"] == 1


def test_tracing_overhead_is_the_median_paired_difference():
    wl = run.WorkloadRun("mms-curved", 0, True, REF)
    layers = {name: 1 for name, _ in spans.PER_LAYER}
    for u_wall, t_wall in ((2.0, 2.3), (2.5, 2.7), (3.0, 3.6)):
        wl.reps.append({"traced": False, "record": {"wall_s": u_wall},
                        "reasons": [], "layers": None})
        wl.reps.append({"traced": True, "record": {"wall_s": t_wall},
                        "reasons": [], "layers": layers})
    out = wl.per_layer()
    assert out["trace.overhead_s"]["value"] == pytest.approx(0.3)
    assert out["stepper.advance.calls"]["value"] == 1
