"""Tests of the benchmark harness itself: percentile rule, self-time
arithmetic, the validity gate, tracing and the metric table.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench_jobs  # noqa: E402
import bench_trace  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


# -- tail percentile ----------------------------------------------------------


@pytest.mark.parametrize("n", [11, 20, 70, 84, 100, 112, 500])
def test_tail_percentile_is_highest_with_ten_beyond(n):
    p = run.tail_percentile(n)
    beyond = lambda q: n - math.ceil(q / 100 * n)
    assert beyond(p) >= 10
    assert beyond(p + 1) < 10


def test_tail_percentile_examples():
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(112) == 91
    with pytest.raises(ValueError):
        run.tail_percentile(10)


def test_nearest_rank_picks_the_sample_below_the_last_ten():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert run.nearest_rank(values, 90) == 90
    assert run.nearest_rank(values, 50) == 50
    assert run.nearest_rank([3.0], 50) == 3.0


# -- self time ------------------------------------------------------------------


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_is_span_minus_children():
    # a.x [0, 10] holds b.y [1, 4] and b.y [5, 6]
    tr = bench_trace.Tracer(clock=FakeClock(0, 1, 4, 5, 6, 10))
    tr.enter("a.x")
    tr.enter("b.y")
    assert tr.exit() == 3
    tr.enter("b.y")
    tr.exit()
    assert tr.exit() == 10
    assert tr.self_time["a.x"] == 6
    assert tr.inclusive["a.x"] == 10
    assert tr.self_time["b.y"] == 4
    assert tr.inclusive["b.y"] == 4
    assert tr.layer_incl == {"a": 10, "b": 4}


def test_nested_same_name_counts_inclusive_time_once():
    # a.x [0, 8] holds a.x [2, 5] holds c.z [3, 4]
    tr = bench_trace.Tracer(clock=FakeClock(0, 2, 3, 4, 5, 8))
    tr.enter("a.x")
    tr.enter("a.x")
    tr.enter("c.z")
    tr.exit()
    tr.exit()
    tr.exit()
    assert tr.inclusive["a.x"] == 8
    assert tr.self_time["a.x"] == (8 - 3) + (3 - 1)
    assert tr.self_time["c.z"] == 1
    assert tr.layer_incl["a"] == 8


def test_recursive_span_opens_only_outermost():
    tr = bench_trace.Tracer(clock=FakeClock(0, 7))

    def fact(k):
        return 1 if k <= 1 else k * wrapped(k - 1)

    wrapped = tr.span("expr.eval_jet", fact)
    assert wrapped(4) == 24
    assert tr.calls["expr.eval_jet"] == 4
    assert tr.inclusive["expr.eval_jet"] == 7


# -- gate -------------------------------------------------------------------------


JOB = bench_jobs.Job("t", ("verify",), 0, ("gt",), 3, 3)


def _report(mean=1e-12, mx=2e-12, verdict="pass", wall=0.5):
    chk = {"max": mx, "mean": mean, "worst_point": [0.0], "tol": 1e-7, "verdict": verdict}
    rep = {"schema": 1, "n_points": 3, "checks": {"gt": chk}, "verdict": verdict, "wall_time_s": wall}
    return json.dumps(rep, indent=2) + "\n"


def test_gate_accepts_a_valid_report():
    assert bench_jobs.gate(JOB, 0, _report()) == []


def test_gate_rejects_nan_mean():
    reasons = bench_jobs.gate(JOB, 0, _report(mean=float("nan")))
    assert any("non-finite" in r for r in reasons)


def test_gate_rejects_wrong_exit_code():
    reasons = bench_jobs.gate(JOB, 1, _report(verdict="fail", mx=1.0))
    assert any("exit 1, expected 0" in r for r in reasons)
    neg = bench_jobs.Job("neg", ("lift",), 2, (), 0, 0)
    assert bench_jobs.gate(neg, 2, "") == []
    assert bench_jobs.gate(neg, 0, _report())


def test_gate_rejects_pass_above_tolerance():
    reasons = bench_jobs.gate(JOB, 0, _report(mx=1e-3))
    assert any("> tol" in r for r in reasons)


def test_gate_compares_reports_without_wall_time():
    assert bench_jobs.gate(JOB, 0, _report(wall=0.5), [_report(wall=0.9)]) == []
    reasons = bench_jobs.gate(JOB, 0, _report(), [_report(mean=2e-12)])
    assert reasons == ["report differs between untraced and traced runs"]


# -- tracing ----------------------------------------------------------------------


def _small_job():
    return bench_jobs.Job(
        "heisenberg", ("verify", "--case", "heisenberg", "--checks", "gt,monopole",
                       "--points", "2", "--seed", "5"), 0, ("gt", "monopole"), 2, 2)


def test_traced_run_repeats_counts_and_restores_every_function():
    import ewbench
    from ewbench import cli, jets

    before = dict(vars(cli)), dict(vars(ewbench)), dict(vars(jets.Jet))
    job = _small_job()
    plain = bench_jobs.run_job(job)
    snaps = []
    for _ in range(2):
        tr = bench_trace.Tracer()
        tr.install()
        try:
            traced = bench_jobs.run_job(job)
        finally:
            tr.restore()
        assert bench_jobs.gate(job, plain.rc, plain.out, [traced.out]) == []
        snaps.append(tr.snapshot())
    assert snaps[0] == snaps[1]
    assert snaps[0]["ops"]["mul"] > 0
    assert snaps[0]["checks"]["gt"][1] == 2
    assert tr.calls["cli.main"] == 1
    assert (dict(vars(cli)), dict(vars(ewbench)), dict(vars(jets.Jet))) == before


# -- metric table ---------------------------------------------------------------


def test_benchmark_json_names_every_metric_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.E2E_UNITS
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = set(bench_trace.layer_metrics(bench_trace.Tracer(), 1, 1))
    emitted.add("trace_overhead_ratio")
    kernels = set(layer) - emitted
    assert all("_us.d" in name for name in kernels)
    assert emitted <= set(layer)
    assert all(unit == run.layer_unit(name) for name, unit in layer.items())


# -- rescaling --------------------------------------------------------------------


def test_rescaler_divides_by_the_probes_and_drops_their_time():
    import time

    import bench_speed

    def slow_probe():  # a core at half the reference speed
        time.sleep(0.002)
        return 2 * bench_speed.REF_PROBE_S

    rescale = bench_speed.Rescaler(every=0.01, probe=slow_probe)
    result, raw, factor = rescale.time(lambda: time.sleep(0.06) or "done")
    assert result == "done"
    assert factor == 0.5
    # the sleep ends on time, so the probes run inside it are taken out
    assert 0.03 < raw < 0.06 - 3 * 0.002
