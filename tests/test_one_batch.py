"""One PointBatch per job: sample, the lift's points and the limit rows are
batches that read as the sequence of their ChartPoints; run_check evaluates
a batch as it is given; a zero psi is checked by its coframe alone; number
folds build no constant field; and an empty --ells entry is refused."""
import functools
import json
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewbench import cli as cli_mod
from ewbench import families as fam
from ewbench import lift as lift_mod
from ewbench.cli import EXIT_CONFIG, EXIT_SAMPLING, main
from ewbench.errors import ConfigError, DomainError, EwbenchError, SingularFrameError
from ewbench.ew import EWStructure, psi_residual
from ewbench.expr import to_field
from ewbench.jets import (
    ChartPoint,
    Field,
    PointBatch,
    SampleDomain,
    evaluation_scope,
    log,
    sample,
    shared_scope,
)
from ewbench.lift import LiftConfig, default_probes, fibre_points, fix_ell_sign, validate_config
from ewbench.report import mean_of, run_check

from conftest import EXPRS, PYT, XYT


def _bits(x):
    return float(x).hex()


def _result_bits(r):
    return (r.name, _bits(r.max), _bits(r.mean), tuple(map(_bits, r.worst_point)), r.verdict)


def _outcome(name, fn, points, tol):
    """The bits of run_check's result in a scope of its own, or its error."""
    with evaluation_scope():
        try:
            return _result_bits(run_check(name, fn, points, tol))
        except EwbenchError as exc:
            return type(exc), str(exc)


def _base_checks():
    """(case, name, fn, points) of every base row of ``cli.CHECKS`` that
    builds on each catalog case at its defaults, psi at c = 0 and c = 0.5."""
    rows = []
    for case in sorted(fam.CASES):
        s, dom = fam.build(case, {}, count=6)
        pts = sample(dom)
        for name, check in cli_mod.CHECKS.items():
            if check.on != "base":
                continue
            for c in (0.0, 0.5) if name == "psi" else (0.0,):
                try:
                    fn = check.build(s, {"c": c})
                except EwbenchError:
                    continue  # hypercr on a chart without x
                rows.append((case, f"{name} c={c}", fn, pts))
    return rows


def _lift_checks():
    """(case, name, fn, points) of every lift row of ``cli.CHECKS`` on the
    two lift cases at their defaults, on both fibre charts."""
    rows = []
    for case in ("heisenberg", "class_b"):
        for chart in ("p", "alpha"):
            base, dom = fam.build(case, {}, count=5)
            base_pts = sample(dom)
            ell, _ = fix_ell_sign(base, None, base_pts[0])
            lcfg = LiftConfig(base, fam.psi_const(base, 0.5), ell, chart=chart, probes=base_pts[:8])
            data = lift_mod.build(lcfg)
            for name, check in cli_mod.CHECKS.items():
                if check.on != "lift":
                    continue
                on, fn = check.build(lcfg, data)
                rows.append((f"{case} {chart}", name, fn, fibre_points(on, 7, base_pts)))
    return rows


# --- run_check on a batch equals run_check on its points ----------------------


@pytest.mark.parametrize(
    "case,name,fn,points", _base_checks() + _lift_checks(), ids=lambda v: v if isinstance(v, str) else ""
)
def test_a_batch_reports_what_its_points_report(case, name, fn, points):
    assert isinstance(points, PointBatch)
    got = _outcome(name, fn, points, 1e-7)
    assert got == _outcome(name, fn, list(points), 1e-7)
    assert got == _outcome(name, fn, tuple(points), 1e-7)


def test_run_check_evaluates_the_batch_it_is_given():
    batch = PointBatch(XYT, np.arange(12.0).reshape(4, 3))
    seen = []

    def fn(q):
        seen.append(q)
        return q.coords[0]

    r = run_check("x", fn, batch, 1.0)
    assert seen == [batch] and seen[0] is batch
    assert (r.max, r.mean, r.worst_point) == (9.0, 4.5, (9.0, 10.0, 11.0))


def test_run_check_refuses_no_points():
    for points in ([], PointBatch(XYT, np.empty((0, 3)))):
        with pytest.raises(ConfigError) as exc:
            run_check("x", lambda q: q.coords[0], points, 1.0)
        assert str(exc.value) == "check 'x' received no sample points"


def test_a_mean_is_the_sum_over_the_count_unless_that_sum_overflows():
    vals = [0.1, 0.2, 0.7, 1e-300]
    assert mean_of(vals) == sum(vals) / len(vals)
    big = [1.5e308, 1.7e308]
    assert mean_of(big) == 1.5e308 / 2 + 1.7e308 / 2


def test_the_job_packs_the_sample_batch_itself(monkeypatch):
    """cli._run_checks hands the packers and run_check the batch sample()
    returned, not a batch packed again from its points."""
    batches = []
    sampled = cli_mod.sample

    def recorded(dom):
        batches.append(sampled(dom))
        return batches[-1]

    seen = []
    run = cli_mod.run_check

    def checked(name, fn, points, tol):
        seen.append(points)
        return run(name, fn, points, tol)

    monkeypatch.setattr(cli_mod, "sample", recorded)
    monkeypatch.setattr(cli_mod, "run_check", checked)
    assert main(["verify", "--case", "class-c", "--checks", "gt,weyl", "--points", "4"]) == 0
    assert len(batches) == 1 and all(p is batches[0] for p in seen) and len(seen) == 2


def _log_x(q):
    return log(Field.coordinate("x"))(q, 0).value


def _overflow_x(q):
    return q.coords[0] * 1e308 * 10.0


@pytest.mark.parametrize(
    "fn,xs,error",
    [
        # the batch raises; the second point alone raises
        (_log_x, (1.0, -1.0, -2.0), "log of a non-positive value"),
        # no point raises, but the second row is not finite
        (_overflow_x, (0.01, 1.0, -2.0), "check 'r' is inf at (1.0, 0.5, 0.5)"),
    ],
)
def test_the_fallback_raises_the_first_error_of_a_batch_and_of_its_points(fn, xs, error):
    batch = PointBatch(XYT, [(x, 0.5, 0.5) for x in xs])
    outcomes = [_outcome("r", fn, pts, 1.0) for pts in (batch, list(batch))]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == error


# --- the batches read as the sequence of their points -------------------------


def _old_sample(domain):
    """The points sample() drew before it returned a batch, for a domain
    without a guard: the first ``count`` rows of the first draw."""
    rng = np.random.default_rng(domain.seed)
    lows = np.array([b[0] for b in domain.box])
    highs = np.array([b[1] for b in domain.box])
    rows = rng.uniform(lows, highs, size=(512, len(domain.chart)))
    return [ChartPoint(domain.chart, tuple(float(v) for v in rows[i])) for i in range(domain.count)]


@pytest.mark.parametrize("count", [1, 7, 512])
def test_a_sample_reads_like_the_list_it_was(count):
    dom = SampleDomain(XYT, ((-1.0, 1.0), (2.0, 3.0), (0.0, 5.0)), None, 11, count)
    got, want = sample(dom), _old_sample(dom)
    assert isinstance(got, PointBatch)
    assert len(got) == len(want) == count
    assert list(got) == want
    assert [got[i] for i in range(-count, count)] == want + want
    assert all(type(c) is float for q in got for c in q.coords)
    assert got[:2] == PointBatch.of(want[:2]) and isinstance(got[:2], PointBatch)
    assert PointBatch.of(want) == got and hash(PointBatch.of(want)) == hash(got)
    assert PointBatch.of(got) is got


def test_a_guarded_sample_spans_several_draws():
    s, dom = fam.build("class_b", {"F": "0.0102*(p-1)"}, count=30, seed=5)
    got = sample(dom)
    assert len(got) == 30 and len(list(got)) == 30
    assert all(q.chart == PYT and abs(0.0102 * (q.coords[0] - 1.0)) ** 2 > 1e-4 for q in got)


def test_probes_fibre_points_and_limit_rows_are_batches(monkeypatch):
    probes = default_probes(XYT)
    assert isinstance(probes, PointBatch) and len(probes) == 8
    assert probes[0] == default_probes(XYT, count=1)[0]
    base, dom = fam.build("heisenberg", {}, count=4)
    data = lift_mod.build(LiftConfig(base, fam.psi_const(base, 0), -1.0))
    pts = fibre_points(data, 3, sample(dom))
    assert isinstance(pts, PointBatch) and pts.chart == data.chart and len(pts) == 4
    assert fibre_points(data, 3, list(sample(dom))) == pts
    seen, names = [], []
    run = lift_mod.run_check

    def checked(name, fn, points, tol):
        seen.append(points)
        names.append(name)
        return run(name, fn, points, tol)

    monkeypatch.setattr(lift_mod, "run_check", checked)
    factory, _ = lift_mod.limit_family("heisenberg", 0.0)
    lift_mod.flat_limit(factory, [100.0, 200.0])
    assert all(isinstance(p, PointBatch) for p in seen)
    # two ells: one validation at the base of the 2 x 6 rows, then each residual once on them
    validation = ["lift.gauge", "lift.gt", "lift.psi"]
    assert names == validation + [f"lift.{key}" for key in lift_mod.LIMIT_KEYS]
    assert [len(p) for p in seen] == [12] * (len(validation) + len(lift_mod.LIMIT_KEYS))


# --- a zero psi is checked by its coframe alone -------------------------------


@pytest.mark.parametrize("case", sorted(fam.CASES))
@pytest.mark.parametrize("c", ["0", "-0.0"])
def test_verify_psi_reads_exactly_zero(capsys, case, c):
    code = main(["verify", "--case", case.replace("_", "-"), "--checks", "psi", "--c", c, "--points", "6"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    psi = report["checks"]["psi"]
    assert (psi["max"], psi["mean"]) == (0.0, 0.0)


@pytest.mark.parametrize("case", sorted(fam.CASES))
@pytest.mark.parametrize("c", [0.0, -0.0])
def test_the_lift_psi_check_reads_exactly_zero(monkeypatch, case, c):
    """validate_config's lift.psi on the lift cases, and the same check on
    every catalog case over its sample points."""
    s, dom = fam.build(case, {}, count=6)
    psi = fam.psi_const(s, c)
    r = run_check("lift.psi", lambda q: psi_residual(psi, s, q), sample(dom), lift_mod.PSI_TOL)
    assert (r.max, r.mean, r.verdict) == (0.0, 0.0, "pass")
    if case not in ("heisenberg", "class_b"):
        return
    results = {}
    run = lift_mod.run_check

    def recorded(name, *args):
        results[name] = run(name, *args)
        return results[name]

    monkeypatch.setattr(lift_mod, "run_check", recorded)
    ell, _ = fix_ell_sign(s, None)
    validate_config(LiftConfig(s, psi, ell))
    assert (results["lift.psi"].max, results["lift.psi"].mean) == (0.0, 0.0)


@pytest.mark.parametrize("probes", ["batch", "tuple"])
def test_a_singular_coframe_raises_the_frame_error(probes):
    base = fam.class_b("1e-13")
    rows = [(1.2, 0.3, 0.4), (1.2, -0.3, 0.4)]  # where the frame system holds
    pts = PointBatch(PYT, rows) if probes == "batch" else tuple(ChartPoint.make(PYT, r) for r in rows)
    ell, _ = fix_ell_sign(base, None, pts[0])
    message = "coframe determinant -1.000e-13 below tolerance"
    with pytest.raises(SingularFrameError) as exc:
        validate_config(LiftConfig(base, fam.psi_const(base, 0.0), ell, probes=pts))
    assert str(exc.value) == message
    fn = cli_mod.CHECKS["psi"].build(base, {"c": -0.0})
    assert _outcome("psi", fn, pts, 1e-7) == (SingularFrameError, message)


def test_a_v_not_finite_at_one_point_is_a_nan_row():
    """V = 1e308 x^2 overflows at x = 2 only: that row, and only that one,
    is NaN, and the check names it."""
    s = fam.heisenberg(1.0)
    v = to_field(fam._ast("1e308*x^2", XYT))
    base = EWStructure(s.frame, s.omega, v)
    batch = PointBatch(XYT, [(0.5, 0.1, 0.2), (2.0, 0.1, 0.2), (0.25, 0.3, 0.4)])
    with np.errstate(all="ignore"), evaluation_scope():
        r = psi_residual(fam.psi_const(base, 0.0), base, batch)
    assert np.isnan(r[1]).all() and not r[[0, 2]].any()
    fn = functools.partial(psi_residual, fam.psi_const(base, 0.0), base)
    assert _outcome("psi", fn, batch, 1e-7) == (DomainError, "check 'psi' is nan at (2.0, 0.1, 0.2)")


def test_a_base_not_finite_at_a_sample_point_exits_3(capsys):
    """V, the frame and the stars are NaN at the first point named: the
    line this job printed when the zero psi still built its residual."""
    code = main(
        ["verify", "--case", "from-H", "--H", "x^2*(1e308*y-2.5e308)", "--checks", "psi", "--points", "20"]
    )
    captured = capsys.readouterr()
    assert code == EXIT_SAMPLING and captured.out == ""
    assert captured.err == (
        "error: check 'psi' is nan at (0.25019093320933394, 2.8972138009695754, 0.551371380490387)\n"
    )


# --- a number operand folds as its constant field did --------------------------

NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-310, 1e300, math.inf, -math.inf, math.nan]),
    st.integers(-3, 3),
)
OPS = [operator.add, operator.sub, operator.mul, operator.truediv]


def _jet_bits(field, q, order):
    with np.errstate(all="ignore"), evaluation_scope():
        try:
            jet = field(q, order)
        except EwbenchError as exc:
            return type(exc), str(exc)
    return [np.asarray(p, dtype=float).tobytes() for p in jet.parts]


def _fold_bits(field):
    return None if field.number is None else _bits(field.number)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(expr=EXPRS, c=NUMBERS, op=st.sampled_from(OPS), x=st.floats(-3.0, 3.0), order=st.integers(0, 3))
def test_a_number_folds_like_its_constant_field(expr, c, op, x, order):
    try:
        f = to_field(expr)
    except EwbenchError:
        return
    got, want = op(f, c), op(f, Field.const(c))
    assert _fold_bits(got) == _fold_bits(want)
    q = ChartPoint.make(("x", "y"), (x, 0.75))
    batch = PointBatch(("x", "y"), [(x, 0.75), (0.5, -1.25)])
    for pt in (q, batch):
        assert _jet_bits(got, pt, order) == _jet_bits(want, pt, order)


def test_inf_times_zero_stays_nan():
    q = ChartPoint.make(("x",), (2.0,))
    x = Field.coordinate("x")
    for f in (x * math.inf * 0.0, (x + math.inf) * 0, Field.const(math.inf) * 0.0, 0.0 * Field.const(-math.inf)):
        assert f.number is None
        with np.errstate(all="ignore"):
            assert math.isnan(f(q, 1).value)


# --- the scopes are plain context managers with the same memo ------------------


def test_scopes_open_close_and_share_as_before():
    key = object()
    with shared_scope() as outer:
        outer[key] = 1
        with shared_scope() as same:
            assert same is outer
        with evaluation_scope():
            with shared_scope() as inner:
                assert inner == {} and inner is not outer
        with pytest.raises(ValueError):
            with evaluation_scope():
                raise ValueError
        with shared_scope() as again:
            assert again is outer and again[key] == 1
    with shared_scope() as fresh:
        assert fresh == {}


# --- an empty --ells entry is an error ----------------------------------------


@pytest.mark.parametrize("ells", ["100,,200", ",100,200", "100,200,", "100, ,200"])
def test_an_empty_ells_entry_is_refused(capsys, tmp_path, ells):
    path = tmp_path / "limit.json"
    path.write_text(json.dumps({"ells": ells}))
    for argv in (["limit", "--ells", ells], ["limit", "--config", str(path)]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert (captured.out, captured.err) == ("", f"error: ells must be comma-separated numbers, got {ells!r}\n")
