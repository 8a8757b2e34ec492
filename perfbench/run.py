"""ewbench certification-job benchmark.

    python3 perfbench/run.py --workload verify-3d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Runs from the root of an ewbench checkout and imports the program from
``src``.  Load is a closed loop with one client in this process: the next
job starts when the previous one returns.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate traced
run.  Human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md beside this file.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import ewbench

    if Path(ewbench.__file__).resolve().parent != SRC / "ewbench":
        raise ImportError(f"ewbench was imported from {ewbench.__file__}")
    import bench_jobs
    import bench_kernels
    import bench_speed
    import bench_trace
except ImportError as exc:  # run outside an ewbench checkout
    print(f"error: cannot import ewbench from {SRC}: {exc}", file=sys.stderr)
    sys.exit(2)

# Raw seconds one cycle of each workload takes on the seed code while the
# benchmark's core runs slow, about twice its time otherwise (see
# bench_speed.py).  A run holds round(seconds / CYCLE_S) cycles, fixed
# whatever the program's speed, so the job count, and with it the tail
# percentile, is the same on both commits of a comparison.
CYCLE_S = {"verify-3d": 1.4, "lift-4d": 1.5, "low-order": 2.1}
# interval of the reference probe inside the jobs of an end-to-end run
# (bench_speed.py); a traced run probes only between jobs, so that no probe
# lands in a span and both its passes are rescaled alike
PROBE_EVERY_S = 0.02
# a traced run makes one untraced and two traced passes over its jobs
TRACE_PASSES_COST = 3.4
SETUP_SAMPLES = 9
# the fewest jobs a run holds, so that a tail percentile exists at any --seconds
MIN_JOBS = 20

E2E_UNITS = {
    "setup_s": "s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "point_checks_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def layer_unit(name):
    if "us_per_point" in name or "_us." in name:
        return "us"
    if name.endswith("_per_point") or name.endswith("_calls") or name.endswith(".draws"):
        return "count"
    if name.endswith("draws_per_s"):
        return "1/s"
    if name.endswith("ratio"):
        return "ratio"
    return "s"


def tail_percentile(n):
    """Highest whole percentile with at least 10 of n samples beyond its
    nearest-rank value."""
    if n < 11:
        raise ValueError(f"{n} samples leave no percentile with 10 beyond it")
    return math.floor(100 * (n - 10) / n)


def nearest_rank(values, p):
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


# Runs in a fresh interpreter: time the import, then the reference probe on
# the core the import ran on (the parent's core may be in another state).
_SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import ewbench.cli
t1 = time.perf_counter()
from bench_speed import probe_s
print(t1 - t0, probe_s() + probe_s())
"""


def measure_setup():
    """Median rescaled time for a fresh interpreter to import ewbench.cli,
    and the raw median."""
    env = {k: v for k, v in os.environ.items() if k != "EWBENCH_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(HERE)))
    cmd = [sys.executable, "-c", _SETUP_CHILD]
    raw, scaled = [], []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, text=True).stdout
        if i:  # the first import may compile bytecode
            import_s, probes_s = map(float, out.split())
            raw.append(import_s)
            scaled.append(import_s * 2.0 * bench_speed.REF_PROBE_S / probes_s)
    return median(scaled), median(raw)


def cycles_for(workload, seconds, cost=1.0, min_jobs=1):
    per_cycle = len(bench_jobs.make_jobs(workload, 0, 1))
    cycles = max(1, round(seconds / (cost * CYCLE_S[workload])))
    return max(cycles, math.ceil(min_jobs / per_cycle)), per_cycle


def closed_loop(jobs, every=None, tracer=None, per_kind=None):
    """Run the jobs back to back; return their outcomes, raw walls and
    rescaled walls.  ``every`` is passed to ``bench_speed.Rescaler``.

    With ``per_kind``, tally each job kind's rescaled wall time and, from
    the tracer, its points and products per check.
    """
    rescale = bench_speed.Rescaler(every)
    outcomes, raw, scaled = [], [], []
    for job in jobs:
        before = {k: (v[1], v[3]) for k, v in tracer.checks.items()} if tracer else {}
        o, wall, factor = rescale.time(lambda: bench_jobs.run_job(job))
        outcomes.append(o)
        raw.append(wall)
        scaled.append(wall * factor)
        if per_kind is not None:
            row = per_kind.setdefault(job.kind, {"jobs": 0, "wall": 0.0, "checks": {}})
            row["jobs"] += 1
            row["wall"] += scaled[-1]
            for name, v in tracer.checks.items():
                p0, m0 = before.get(name, (0, 0))
                acc = row["checks"].setdefault(name, [0, 0])
                acc[0] += v[1] - p0
                acc[1] += v[3] - m0
    return outcomes, raw, scaled


def traced_pass(jobs, per_kind=None):
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        outcomes, raw, scaled = closed_loop(jobs, tracer=tracer, per_kind=per_kind)
    finally:
        tracer.restore()
    return tracer, outcomes, raw, scaled


def gate_all(jobs, outcomes, traced_passes):
    """Count the jobs that fail the gate, printing each with its reasons."""
    failed = 0
    for i, (job, o) in enumerate(zip(jobs, outcomes)):
        traced = [t[i].out for t in traced_passes if i < len(t)]
        reasons = bench_jobs.gate(job, o.rc, o.out, traced)
        if reasons:
            failed += 1
            print(f"  FAILED job {i} [{job.kind}] {' '.join(job.argv)}: {'; '.join(reasons)}"
                  + (f" (stderr: {o.err.strip()})" if o.err.strip() else ""))
    return failed


def e2e_run(workload, seed, seconds):
    cycles, per_cycle = cycles_for(workload, seconds, min_jobs=MIN_JOBS)
    jobs = bench_jobs.make_jobs(workload, seed, cycles)
    setup_s, setup_raw = measure_setup()
    outcomes, raw, walls = closed_loop(jobs, every=PROBE_EVERY_S)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the untraced/traced byte comparison covers the first cycle
    _, traced, _, _ = traced_pass(jobs[:per_cycle])
    n = len(walls)
    p = tail_percentile(n)
    point_checks = sum(j.point_checks for j, o in zip(jobs, outcomes) if o.rc in (0, 1))
    metrics = {
        "setup_s": setup_s,
        "job_s_p50": median(walls),
        "job_s_tail": nearest_rank(walls, p),
        "point_checks_per_s": point_checks / sum(walls),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"{workload}  seed {seed}  trace 0: {n} jobs ({cycles} cycles x {per_cycle}), "
          "closed loop, 1 client, single-threaded; times rescaled to the reference speed")
    print(f"  jobs took {sum(walls):.3f} s rescaled, {sum(raw):.3f} s raw")
    failed = gate_all(jobs, outcomes, [traced])
    notes = {
        "setup_s": f"median of {SETUP_SAMPLES} imports of ewbench.cli in fresh interpreters (raw {setup_raw:.4g} s)",
        "job_s_p50": f"median of n={n} jobs (raw {median(raw):.4g} s)",
        "job_s_tail": f"p{p} (nearest rank) of n={n} jobs, {n - math.ceil(p / 100 * n)} beyond "
                      f"(raw {nearest_rank(raw, p):.4g} s)",
        "point_checks_per_s": f"{point_checks} point-checks over n={n} jobs "
                              f"(raw {point_checks / sum(raw):.4g} 1/s)",
        "peak_rss_mb": "peak RSS of the workload process",
    }
    for name, value in metrics.items():
        print(f"  {name:<20} {value:12.6g} {E2E_UNITS[name]:<4} {notes[name]}")
    print(f"  {'failed_ratio':<20} {failed / n:12.6g} {'':<4} {failed} of {n} jobs failed the gate")
    return failed == 0, n, failed, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}


def traced_run(workload, seed, seconds):
    cycles, per_cycle = cycles_for(workload, seconds, TRACE_PASSES_COST)
    jobs = bench_jobs.make_jobs(workload, seed, cycles)
    kernels = bench_kernels.run_kernels(seed, bench_speed.Rescaler())
    untraced, _, untraced_walls = closed_loop(jobs)
    per_kind = {}
    tr1, traced1, traced_raw, traced_walls = traced_pass(jobs, per_kind)
    tr2, traced2, _, _ = traced_pass(jobs)
    repeat_ok = tr1.snapshot() == tr2.snapshot()
    n = len(jobs)
    print(f"{workload}  seed {seed}  trace 1: {n} jobs ({cycles} cycles x {per_cycle}), "
          "one untraced and two traced passes; times rescaled to the reference speed")
    failed = gate_all(jobs, untraced, [traced1, traced2])
    n_points = sum(j.points for j in jobs)
    metrics = bench_trace.layer_metrics(tr1, n, n_points)
    # the tracer's clock reads raw time; rescale by the pass's mean factor
    speed = sum(traced_walls) / sum(traced_raw)
    for name in metrics:
        if name.endswith("draws_per_s"):
            metrics[name] /= speed
        elif layer_unit(name) in ("s", "us"):
            metrics[name] *= speed
    metrics["trace_overhead_ratio"] = sum(traced_walls) / sum(untraced_walls)
    for name, (us, _) in kernels.items():
        metrics[name] = us
    print(f"  {n_points} points over {n} jobs; untraced pass {sum(untraced_walls):.3f} s")
    print(f"  op counts repeat exactly across the two traced passes: {repeat_ok}")
    for name in sorted(metrics):
        note = kernels[name][1] + " (computed)" if name in kernels else ""
        print(f"  {name:<32} {metrics[name]:14.6g} {layer_unit(name):<6} {note}")
    print("  per job kind (traced pass 1): wall per job, jet products per point by check")
    for kind, row in per_kind.items():
        parts = [f"{c} {m / p:.0f}" for c, (p, m) in row["checks"].items() if p]
        print(f"    {kind:<22} {row['wall'] / row['jobs']:8.4f} s/job  " + ", ".join(parts))
    if not repeat_ok:
        print("  FAILED: op counts differ between the traced passes")
    ok = failed == 0 and repeat_ok
    return ok, n, failed, {k: (v, layer_unit(k)) for k, v in metrics.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["verify-3d", "lift-4d", "low-order", "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    os.environ.pop("EWBENCH_THREADS", None)
    if args.workload == "all":
        runs = [(w, t) for w in bench_jobs.WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload, trace in runs:
        run = traced_run if trace else e2e_run
        ok, n, f, m = run(workload, args.seed, args.seconds)
        correct, attempted, failed = correct and ok, attempted + n, failed + f
        prefix = f"{workload}/" if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
