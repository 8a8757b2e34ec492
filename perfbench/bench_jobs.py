"""Certification jobs of each workload, how one runs, and the validity gate.

A job is one ``ewbench.cli.main(argv)`` call with stdout captured.  Every
input a job takes (its ``--seed`` and the sparse-guard parameters) is drawn
from the workload seed, so the same seed gives the same jobs.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass

from ewbench import cli

# Points per job.  The README cases use 200 (verify) and 100 (lift); these
# are smaller so that one run holds enough jobs for a tail percentile.  A
# job's cost is linear in its points (a one-point job costs under 1% of a
# 100-point one), so per-point costs are those of the README cases.
VERIFY_POINTS = 20
LIFT_POINTS = 5
SPARSE_POINTS = 50
LIMIT_POINTS = 6  # flat_limit's fixed evaluation points per ell

EXIT_PASS, EXIT_FAIL, EXIT_CONFIG = 0, 1, 2


@dataclass(frozen=True)
class Job:
    kind: str
    argv: tuple
    expect_rc: int
    checks: tuple  # check names the report must hold, in order
    points: int  # points each check evaluates
    report_points: int  # the report's n_points

    @property
    def point_checks(self):
        return self.points * len(self.checks)


def _certify(kind, command, args, checks, points, seed, expect_rc=EXIT_PASS):
    argv = (command, *args, "--checks", checks, "--points", str(points), "--seed", str(seed))
    names = tuple(checks.split(","))
    return Job(kind, argv, expect_rc, names, points, points)


def _limit(kind, case, ells=None, expect_rc=EXIT_PASS):
    argv = ("limit", "--case", case) + (("--ells", ells) if ells else ())
    n_ells = len((ells or "100,200,1000,10000").split(","))
    return Job(kind, argv, expect_rc, ("limit",), LIMIT_POINTS * n_ells, 0)


def _seed(rng):
    return rng.randrange(1, 2**31)


def verify_3d(rng, u):
    """One cycle: the 3D catalog at order 3, plus a known failing H."""
    v = lambda kind, args, checks: _certify(kind, "verify", args, checks, VERIFY_POINTS, _seed(rng))
    return [
        v("heisenberg", ("--case", "heisenberg"), "gt,monopole,weyl"),
        v("class-a", ("--case", "class-a", "--beta", "exp(t)*sin(y)"), "gt,monopole,psi"),
        v("class-b", ("--case", "class-b", "--F", "1+p^2"), "gt,monopole,weyl"),
        v("class-c", ("--case", "class-c", "--K", "s"), "gt,monopole,weyl"),
        v("from-H", ("--case", "from-H"), "hypercr,gt,monopole"),
        v("from-G", ("--case", "from-G"), "gt,monopole"),
        # negative control: x*y*t does not solve the H equation
        _certify("neg:from-H xyt", "verify", ("--case", "from-H", "--H", "x*y*t"),
                 "gt,monopole", VERIFY_POINTS, _seed(rng), expect_rc=EXIT_FAIL),
    ]


def lift_4d(rng, u):
    """One cycle: Einstein-Maxwell lifts on both fibre charts."""
    lf = lambda kind, args, checks: _certify(kind, "lift", args, checks, LIFT_POINTS, _seed(rng))
    heis = ("--case", "heisenberg")
    return [
        lf("heisenberg p", heis + ("--ell", "-1", "--c", "0.5", "--chart", "p"), "em,maxwell,invariants"),
        lf("heisenberg alpha", heis + ("--ell", "-2", "--c", "0.3", "--chart", "alpha"), "em,maxwell"),
        lf("class-b F=1 p", ("--case", "class-b", "--F", "1", "--c", "0.5", "--chart", "p"), "em,maxwell"),
        lf("class-b F=2 alpha", ("--case", "class-b", "--F", "2", "--c", "0.5", "--chart", "alpha"), "em,maxwell"),
        # negative control: F=1 has V=-1/2, so ell=+-1 violates the gauge V=-2/ell
        Job("neg:class-b gauge", ("lift", "--case", "class-b", "--F", "1", "--ell", "1", "--c", "0.5",
                                  "--checks", "em,maxwell", "--points", str(LIFT_POINTS),
                                  "--seed", str(_seed(rng))), EXIT_CONFIG, (), 0, 0),
    ]


def low_order(rng, u):
    """One cycle: sparse-guard sampling and flat-limit construction."""
    # beta = y - c accepts y > c + 0.1 of y in [2, 3]: 2-5% of draws
    c = 2.85 + 0.03 * u[0]
    # F = k (p - 1) accepts |p - 1| > 0.01/k of p in [0.5, 2]: 1.3-3.2% of draws
    k = 0.0102 + 0.0003 * u[1]
    return [
        _certify("sparse class-a", "verify", ("--case", "class-a", "--beta", f"y-{c:.5f}"),
                 "gt", SPARSE_POINTS, _seed(rng)),
        _certify("sparse class-b", "verify", ("--case", "class-b", "--F", f"{k:.6f}*(p-1)"),
                 "gt", SPARSE_POINTS, _seed(rng)),
        _limit("limit heisenberg", "heisenberg"),
        _limit("limit class-b", "class-b", "100,200,1000"),
        # negative control: ells run backwards, so the gap grows and the limit diverges
        _limit("neg:limit reversed", "class-b", "200,100", expect_rc=EXIT_FAIL),
    ]


WORKLOADS = {"verify-3d": verify_3d, "lift-4d": lift_4d, "low-order": low_order}


def make_jobs(workload, seed, cycles):
    """The jobs of ``cycles`` cycles.  Each cycle also gets two uniforms in
    [0, 1), stratified over the cycles, so that every run spans the whole
    range of the sparse-guard parameters and seeds differ only within it."""
    rng = random.Random(seed)
    perms = [rng.sample(range(cycles), cycles) for _ in range(2)]
    jobs = []
    for i in range(cycles):
        u = tuple((perm[i] + rng.random()) / cycles for perm in perms)
        jobs.extend(WORKLOADS[workload](rng, u))
    return jobs


@dataclass
class Outcome:
    rc: int
    out: str
    err: str


def run_job(job):
    """One call of ``cli.main``; the attribute is looked up per call so a
    tracer's wrapper applies."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(job.argv))
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else EXIT_CONFIG
        except Exception as exc:  # a crash is a failed job, not a failed run
            rc = -1
            print(f"{type(exc).__name__}: {exc}", file=err)
    return Outcome(rc, out.getvalue(), err.getvalue())


def strip_wall_time(report_text):
    return "".join(
        line for line in report_text.splitlines(keepends=True)
        if not line.lstrip().startswith('"wall_time_s"')
    )


def gate(job, rc, out, traced_outs=()):
    """Reasons why one job's output is invalid; empty when it is valid.

    ``traced_outs`` are the same job's stdout from traced runs.
    """
    reasons = []
    if rc != job.expect_rc:
        reasons.append(f"exit {rc}, expected {job.expect_rc}")
    if job.expect_rc in (EXIT_PASS, EXIT_FAIL) and rc in (EXIT_PASS, EXIT_FAIL):
        try:
            report = json.loads(out)
        except ValueError:
            return reasons + ["report is not JSON"]
        want = "pass" if job.expect_rc == EXIT_PASS else "fail"
        if report.get("verdict") != want:
            reasons.append(f"verdict {report.get('verdict')!r}, expected {want!r}")
        if report.get("n_points") != job.report_points:
            reasons.append(f"n_points {report.get('n_points')}, expected {job.report_points}")
        checks = report.get("checks", {})
        if tuple(checks) != job.checks:
            reasons.append(f"checks {tuple(checks)}, expected {job.checks}")
        for name, chk in checks.items():
            mx, mean = chk.get("max"), chk.get("mean")
            if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in (mx, mean)):
                reasons.append(f"{name}: non-finite max {mx} or mean {mean}")
            # the limit verdict is divergence-based, not a threshold on max
            elif name != "limit" and chk.get("verdict") == "pass" and not mx <= chk.get("tol"):
                reasons.append(f"{name}: passes with max {mx} > tol {chk.get('tol')}")
    elif out:
        reasons.append("report printed by a job that should not produce one")
    if any(strip_wall_time(out) != strip_wall_time(t) for t in traced_outs):
        reasons.append("report differs between untraced and traced runs")
    return reasons
