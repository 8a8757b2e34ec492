"""Each jet a job reads, computed once: the zero psi of c = 0 builds no
jets, each job packs g, F and h once, at the highest order its checks
read, and evaluates each field once per scope."""
import importlib.util
import json
import shlex
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from ewbench import cli as cli_mod
from ewbench import curv
from ewbench import families as fam
from ewbench import jets
from ewbench import lift as lift_mod
from ewbench.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_PASS, main
from ewbench.errors import SingularFrameError
from ewbench.ew import psi_residual
from ewbench.forms import MetricField
from ewbench.jets import ChartPoint, PointBatch, evaluation_scope, sample
from ewbench.lift import LiftConfig, fix_ell_sign, validate_config

ROOT = Path(__file__).resolve().parent.parent


def _module(path):
    """The module of the file ``path`` of the repository, imported under a
    name of its own."""
    name = "_ewbench_" + Path(path).stem
    spec = importlib.util.spec_from_file_location(name, ROOT / path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REPORT_DIFF = _module("tools/report_diff.py")
BENCH_JOBS = _module("perfbench/bench_jobs.py")
# every perfbench job kind: one cycle of each workload
JOB_ARGVS = [
    list(job.argv)
    for workload in BENCH_JOBS.WORKLOADS
    for job in BENCH_JOBS.make_jobs(workload, 1, 1)
]
PLAN_ARGVS = [shlex.split(line) for line in REPORT_DIFF.PLANS]


def run(capsys, argv):
    """(exit code, report without its wall time or None, captured output)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    if report:
        del report["wall_time_s"]
    return code, report, captured


def _record_packs(monkeypatch):
    """{(array, point or batch): [order of each packing that returned]} of
    the metric packer and the F = dA packer."""
    packs = defaultdict(list)
    pack_metric, pack_f = MetricField._pack, curv._pack_f

    def metric(self, pt, order):
        out = pack_metric(self, pt, order)
        packs[(self, pt)].append(order)
        return out

    def field_strength(A, pt, order):
        out = pack_f(A, pt, order)
        packs[(A, pt)].append(order)
        return out

    monkeypatch.setattr(MetricField, "_pack", metric)
    monkeypatch.setattr(curv, "_pack_f", field_strength)
    return packs


# --- a zero psi builds no jets ---------------------------------------------


@pytest.mark.parametrize("case", sorted(fam.CASES))
@pytest.mark.parametrize("c", [0, 0.0, -0.0])
def test_psi_const_at_zero_has_no_components(case, c):
    s, _ = fam.build(case, {})
    psi = fam.psi_const(s, c)
    assert psi.comps == {}
    assert (psi.chart, psi.degree) == (s.chart, 1)


def _count_calls(fields, calls):
    for f in fields:
        fn = f.fn

        def counted(pt, order=0, fn=fn):
            calls.append(order)
            return fn(pt, order)

        f.fn = counted


def test_the_zero_psi_check_reads_no_omega_but_solves_the_frame():
    s, dom = fam.build("class_a", {}, count=6)
    q = PointBatch.of(sample(dom))
    omega_calls, frame_calls, v_calls = [], [], []
    _count_calls(s.omega.comps.values(), omega_calls)
    _count_calls([f for leg in s.frame.legs for f in leg.comps.values()], frame_calls)
    _count_calls([s.V], v_calls)
    with evaluation_scope():
        r = psi_residual(fam.psi_const(s, 0.0), s, q)
    assert omega_calls == []
    assert frame_calls and v_calls
    assert r.shape == (6, 3) and not r.any()


def _old_psi_const(s, c):
    """psi = c omega as the components of c omega, also at c = 0."""
    return s.omega.scale(float(c))


@pytest.mark.parametrize(
    "argv",
    [
        "lift --case heisenberg --ell -1 --c {c} --checks em,maxwell,invariants,psi --points 4",
        "lift --case heisenberg --ell -2 --c {c} --chart alpha --checks em,maxwell,invariants --points 4",
        "lift --case class-b --F 1 --c {c} --checks em,maxwell,gt,psi --points 4 --seed 3",
        "verify --case class-a --c {c} --checks gt,psi --points 8",
        "limit --case heisenberg --c {c}",
        "limit --case class-b --ells 100,200,1000 --c {c}",
        "limit --case class-b --ells 200,100 --c {c}",
    ],
)
@pytest.mark.parametrize("c", ["0", "-0.0"])
def test_zero_psi_reports_equal_those_of_zero_times_omega(capsys, monkeypatch, argv, c):
    argv = shlex.split(argv.format(c=c))
    code, report, _ = run(capsys, argv)
    monkeypatch.setattr(fam, "psi_const", _old_psi_const)
    old_code, old_report, _ = run(capsys, argv)
    assert code == old_code and code in (EXIT_PASS, EXIT_FAIL)
    assert report == old_report
    assert json.dumps(report) == json.dumps(old_report)


class TestZeroPsiValidation:
    def _checks_run(self, monkeypatch, cfg):
        names = []
        run_check = lift_mod.run_check

        def counted(name, *args):
            names.append(name)
            return run_check(name, *args)

        monkeypatch.setattr(lift_mod, "run_check", counted)
        validate_config(cfg)
        return names

    @pytest.mark.parametrize("c", [0.0, -0.0])
    def test_lift_psi_still_runs(self, monkeypatch, c):
        base = fam.heisenberg(1.0)
        cfg = LiftConfig(base, fam.psi_const(base, c), -1.0)
        assert self._checks_run(monkeypatch, cfg) == ["lift.gauge", "lift.gt", "lift.psi"]

    def test_a_singular_coframe_still_raises(self, monkeypatch):
        # class B with a constant F has the coframe determinant -F
        base = fam.class_b("1e-13")
        probe = ChartPoint.make(fam.PYT, (1.2, 0.3, 0.4))
        ell, _ = fix_ell_sign(base, None, probe)
        cfg = LiftConfig(base, fam.psi_const(base, 0.0), ell, probes=(probe,))
        passed, run_check = [], lift_mod.run_check

        def recorded(name, *args):
            r = run_check(name, *args)
            passed.append((name, r.verdict))
            return r

        monkeypatch.setattr(lift_mod, "run_check", recorded)
        with pytest.raises(SingularFrameError, match="determinant -1.000e-13 below"):
            validate_config(cfg)
        # the error is the psi check's: the gauge and the structure equations pass
        assert passed == [("lift.gauge", "pass"), ("lift.gt", "pass")]


# --- one pack per array and batch ------------------------------------------


@pytest.mark.parametrize("argv", JOB_ARGVS + PLAN_ARGVS, ids=shlex.join)
def test_each_array_is_packed_once_per_batch(capsys, monkeypatch, argv):
    packs = _record_packs(monkeypatch)
    main(argv)
    capsys.readouterr()
    assert {key: orders for key, orders in packs.items() if len(orders) > 1} == {}


def _record_evaluations(monkeypatch):
    """{(scope, field, point or batch): evaluations}: a field call counts
    when the open scope's memo lacks its (field, points) key or holds it at
    a lower order.  The memos are kept alive, so no two share an id."""
    evaluated, memos = defaultdict(int), {}
    call = jets.Field.__call__

    def counted(self, pt, order=0):
        memo = jets._SCOPE.get()
        if memo is not None:
            held = memo.get((self, pt))
            if held is None or held.table.order < order:
                memos[id(memo)] = memo
                evaluated[(id(memo), self, pt)] += 1
        return call(self, pt, order)

    monkeypatch.setattr(jets.Field, "__call__", counted)
    return evaluated


@pytest.mark.parametrize("argv", JOB_ARGVS + PLAN_ARGVS, ids=shlex.join)
def test_each_field_is_evaluated_once_per_scope(capsys, monkeypatch, argv):
    """``curv.pack_reads`` orders a job's evaluations: each field is
    evaluated once per scope, at the highest order the job reads.  A run
    that exits 2 is exempt: from-G's weyl refuses at the jet cap after its
    pack of h raised, and weyl then asks for h again."""
    evaluated = _record_evaluations(monkeypatch)
    code = main(argv)
    capsys.readouterr()
    if code == EXIT_CONFIG:
        return
    assert {key: n for key, n in evaluated.items() if n > 1} == {}


def _declared(name):
    """The metric and F arrays a check reads, by its row of ``cli.CHECKS``:
    the arrays the metric and F packers record."""
    return {a: o for a, o in cli_mod.CHECKS[name].reads.items() if a in ("h", "g", "F")}


@pytest.mark.parametrize(
    "command,name",
    [("verify", n) for n in cli_mod.OFFERED_CHECKS["verify"]]
    + [("lift", n) for n in cli_mod.OFFERED_CHECKS["lift"]],
)
def test_a_single_check_packs_no_higher_than_it_reads(capsys, monkeypatch, command, name):
    packs = _record_packs(monkeypatch)
    code = main([command, "--case", "heisenberg", "--checks", name, "--points", "4"])
    capsys.readouterr()
    assert code == EXIT_PASS
    orders = sorted(o for orders in packs.values() for o in orders)
    declared = _declared(name)
    if not declared:
        assert orders == []
    else:
        assert max(orders) == max(declared.values())
        assert sorted(set(orders)) == sorted(set(declared.values()))


@pytest.mark.parametrize(
    "checks,orders",
    [
        ("em", [0, 2]),  # F at 0, g at 2
        ("maxwell", [1, 1]),
        ("em,maxwell", [1, 2]),  # F once at 1 for both
        ("maxwell,em", [1, 2]),
    ],
)
def test_lift_plans(capsys, monkeypatch, checks, orders):
    packs = _record_packs(monkeypatch)
    code = main(["lift", "--case", "heisenberg", "--checks", checks, "--points", "4"])
    capsys.readouterr()
    assert code == EXIT_PASS
    assert sorted(o for got in packs.values() for o in got) == orders


@pytest.mark.parametrize("checks,orders", [("gt,monopole", []), ("gt,monopole,weyl", [2]), ("weyl,gt", [2])])
def test_verify_plans(capsys, monkeypatch, checks, orders):
    packs = _record_packs(monkeypatch)
    code = main(["verify", "--case", "class-c", "--checks", checks, "--points", "4"])
    capsys.readouterr()
    assert code == EXIT_PASS
    assert sorted(o for got in packs.values() for o in got) == orders


def test_a_pack_that_raises_leaves_the_error_to_its_check(capsys, monkeypatch):
    """At a jet cap of 3, from-G's coframe metric has no order-2 jets (weyl
    reads A through order 4): the job stops at weyl, after gt and monopole
    ran, with weyl's own error line."""
    ran = []
    run_check = cli_mod.run_check

    def counted(name, *args):
        ran.append(name)
        return run_check(name, *args)

    monkeypatch.setattr(cli_mod.jets, "MAX_ORDER", 3)
    monkeypatch.setattr(cli_mod, "run_check", counted)
    code, report, captured = run(
        capsys, ["verify", "--case", "from-G", "--checks", "gt,monopole,weyl", "--points", "4"]
    )
    assert code == EXIT_CONFIG and report is None and captured.out == ""
    assert ran == ["gt", "monopole", "weyl"]
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


# --- an empty value is not an absent one -------------------------------------


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify", "--case", "heisenberg", "--checks", ""], "no checks requested"),
        (["lift", "--case", "heisenberg", "--checks", "", "--points", "3"], "no checks requested"),
        (["limit", "--case", ""], "unknown case ''"),
        (["limit", "--ells", ""], "need at least two ell values"),
        (["verify", "--case", "heisenberg", "--f", "", "--checks", "gt", "--points", "3"],
         "unexpected end of input at offset 0"),
        (["verify", "--case", "heisenberg", "--checks", "gt", "--points", "3", "--out", ""],
         "[Errno 2] No such file or directory: ''"),
    ],
)
def test_an_empty_value_is_refused(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_an_empty_ells_list_in_a_config_file_is_refused(capsys, tmp_path):
    path = tmp_path / "limit.json"
    path.write_text(json.dumps({"case": "class-b", "ells": []}))
    code = main(["limit", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert (captured.out, captured.err) == ("", "error: need at least two ell values\n")


def test_weyl_packs_the_frame_jets_that_gt_and_monopole_read(capsys, monkeypatch):
    """Each coframe component is evaluated once over the batch, at the
    order 2 that weyl's h needs when h reads it, and gt and monopole slice
    that jet."""
    calls = defaultdict(list)
    build_case = cli_mod.build_case

    def counted_build(cfg):
        s, dom = build_case(cfg)
        for leg in s.frame.legs:
            for f in leg.comps.values():
                fn = f.fn

                def counted(pt, order=0, fn=fn, f=f):
                    if pt.shape:
                        calls[f].append(order)
                    return fn(pt, order)

                f.fn = counted
        return s, dom

    monkeypatch.setattr(cli_mod, "build_case", counted_build)
    code = main(["verify", "--case", "class-c", "--checks", "gt,monopole,weyl", "--points", "6"])
    capsys.readouterr()
    assert code == EXIT_PASS
    # a constant component folds into the products of h, so only gt reads it
    assert calls and all(len(orders) == 1 for orders in calls.values())
    assert all(f.number is not None for f, orders in calls.items() if orders != [2])


def test_report_diff_sizes_check_shifts_by_tol_and_counts_moved_points():
    """``report_diff`` states a check's max and mean shifts as fractions of
    its tol, and counts worst_point moves without a coordinate delta."""

    def report(top, mean, point, verdict="pass", tol=1e-6):
        check = {"max": top, "mean": mean, "worst_point": point, "tol": tol, "verdict": verdict}
        return json.dumps({"checks": {"gt": check}, "n_points": 2}, indent=2) + "\n"

    old = {
        ("a",): (0, report(1e-12, 1e-13, [0.5, 1.0]), ""),
        ("b",): (0, report(2e-9, 1e-9, [0.25, 3.0], tol=1e-7), ""),
        ("c",): (1, "", "error\n"),
    }
    new = {
        ("a",): (0, report(1.5e-12, 1e-13, [2.5, 1.0]), ""),
        ("b",): (0, report(2e-9, 1.5e-9, [0.25, 3.0], tol=1e-7), ""),
        ("c",): (1, "", "error\n"),
    }
    assert REPORT_DIFF.shift_summary(old, new) == [
        "shift over 2 JSON reports with equal exit codes:",
        "  checks.gt.max: largest shift 5e-07 of its tol, in 1 argvs",
        "  checks.gt.mean: largest shift 0.005 of its tol, in 1 argvs",
        "  checks.gt.worst_point: moved in 1 argvs",
        "  0 verdicts changed",
    ]
