"""Evaluation scopes shared by the checks of one job."""
import re
import sys
import threading
from collections import Counter

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewbench import ChartPoint, MetricField, parse_field, ricci
from ewbench import cli as cli_mod
from ewbench import lift as lift_mod
from ewbench.cli import EXIT_CONFIG, EXIT_PASS, main
from ewbench.errors import EwbenchError, JetOrderError
from ewbench.expr import to_field
from ewbench.families import CASES, build, default_domain, heisenberg
from ewbench.jets import Field, Jet, PointBatch, evaluation_scope, sample, shared_scope
from ewbench.report import run_check

from conftest import COORDS, EXPRS
from oracle import hodge3


def _count_calls(metric, calls):
    """Wrap the fn of each component field of ``metric`` to count its calls."""
    for key, f in metric.comps.items():
        fn = f.fn

        def counted(pt, order=0, fn=fn, key=key):
            calls[key] += 1
            return fn(pt, order)

        f.fn = counted


def test_a_lift_evaluates_each_metric_component_once(capsys, monkeypatch):
    calls = Counter()
    assemble = lift_mod.assemble

    def counted_assemble(cfg, chart):
        data = assemble(cfg, chart)
        if chart == "p":
            _count_calls(data.g, calls)
        return data

    monkeypatch.setattr(lift_mod, "assemble", counted_assemble)
    code = main([
        "lift", "--case", "heisenberg", "--ell", "-1", "--c", "0.5", "--chart", "p",
        "--checks", "em,maxwell,invariants", "--points", "4",
    ])
    assert code == EXIT_PASS
    assert calls and set(calls.values()) == {1}


@pytest.mark.parametrize(
    "domain",
    [
        default_domain("class_a", seed=3, count=20, beta="y-2.5"),
        default_domain("class_b", seed=3, count=20, F="p-1"),
    ],
    ids=("class-a", "class-b"),
)
def test_sample_leaves_nothing_in_an_open_scope(domain):
    with evaluation_scope():
        pts = sample(domain)
        with shared_scope() as memo:
            assert memo == {}
    assert len(pts) == 20


class TestPackedMetric:
    XYZ = ("x", "y", "z")
    COMPS = {(0, 0): "2+exp(x)*y^2", (0, 1): "sin(x*z)", (1, 1): "1+x^2", (1, 2): "y/(3+z)",
             (2, 2): "-cosh(y-z)"}

    def _metric_and_batch(self):
        g = MetricField(self.XYZ, {k: parse_field(e, self.XYZ) for k, e in self.COMPS.items()})
        rows = np.random.default_rng(5).uniform(-1.0, 1.0, size=(7, 3))
        return g, PointBatch(self.XYZ, rows)

    @pytest.mark.parametrize("high,low", [(3, 0), (3, 1), (3, 2), (2, 0), (2, 1), (1, 0)])
    def test_a_lower_order_after_a_higher_one_is_a_fresh_packing(self, high, low):
        g, q = self._metric_and_batch()
        with evaluation_scope():
            fresh = g.jets_at(q, low)
        with evaluation_scope():
            g.jets_at(q, high)
            reused = g.jets_at(q, low)
        assert len(reused) == len(fresh) == low + 1
        for a, b in zip(reused, fresh):
            assert a.tobytes() == b.tobytes()

    def test_packed_arrays_are_read_only(self):
        g, q = self._metric_and_batch()
        with evaluation_scope():
            for arr in g.jets_at(q, 2) + g.jets_at(q, 1) + (g.matrix_at(q),):
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 0.0


class TestLaterCheckInAFilledScope:
    X = ("x",)
    XY = ("x", "y")

    def _reciprocal(self):
        f = parse_field("1/x", self.X)
        pts = [ChartPoint.make(self.X, (v,)) for v in (1.0, 2.0, 1e-100, 1e-120)]
        return pts, lambda q: f(q, 0).value, lambda q: f(q, 3).third

    def _singular_metric(self):
        g = MetricField(self.XY, {(0, 0): parse_field("x", self.XY), (1, 1): 1.0})
        pts = [ChartPoint.make(self.XY, v) for v in ((1.0, 0.5), (2.0, 0.1), (0.0, 0.2))]
        return pts, lambda q: g.jets_at(q, 2)[2], lambda q: ricci(g, q)

    @pytest.mark.parametrize("case", ["_reciprocal", "_singular_metric"])
    def test_the_error_is_the_single_point_one(self, case):
        pts, earlier, later = getattr(self, case)()
        with np.errstate(all="ignore"), pytest.raises(EwbenchError) as alone:
            later(pts[2])
        with evaluation_scope():
            run_check("earlier", earlier, pts, np.inf)
            with pytest.raises(EwbenchError) as in_scope:
                run_check("later", later, pts, 1e-7)
        assert type(in_scope.value) is type(alone.value)
        assert str(in_scope.value) == str(alone.value)


def test_concurrent_commands_match_serial_runs(tmp_path, capsys):
    argvs = [
        ["lift", "--case", "heisenberg", "--ell", "-1", "--c", "0.5",
         "--checks", "em,maxwell,invariants", "--points", "6", "--seed", "4"],
        ["verify", "--case", "class-c", "--K", "s", "--checks", "gt,monopole,weyl",
         "--points", "30", "--seed", "5"],
        ["limit", "--case", "class-b", "--ells", "100,200,1000"],
    ]

    def run(argv, path):
        return main(argv + ["--out", str(path)])

    def report(path):
        return re.sub(r'(,\n  "wall_time_s": [^\n]*|"out": "[^"]*")', "", path.read_text())

    serial = []
    for i, argv in enumerate(argvs):
        path = tmp_path / f"serial{i}.json"
        assert run(argv, path) == EXIT_PASS
        serial.append(report(path))
    codes = {}
    threads = [
        threading.Thread(
            target=lambda i=i, argv=argv: codes.__setitem__(i, run(argv, tmp_path / f"thread{i}.json"))
        )
        for i, argv in enumerate(argvs * 2)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert codes == {i: EXIT_PASS for i in range(len(threads))}
    for i in range(len(threads)):
        assert report(tmp_path / f"thread{i}.json") == serial[i % len(argvs)]
    capsys.readouterr()


def test_a_repeated_check_is_computed_once(capsys, monkeypatch):
    names = []

    def counted(name, fn, points, tol):
        names.append(name)
        return run_check(name, fn, points, tol)

    argv = ["verify", "--case", "heisenberg", "--points", "5", "--seed", "2"]
    assert main(argv + ["--checks", "gt,monopole"]) == EXIT_PASS
    once = capsys.readouterr().out
    monkeypatch.setattr(cli_mod, "run_check", counted)
    assert main(argv + ["--checks", "gt,monopole,gt"]) == EXIT_PASS
    twice = capsys.readouterr().out
    assert names == ["gt", "monopole"]
    strip = lambda text: re.sub(r'(,\n  "wall_time_s": [^\n]*|"checks": "[^"]*")', "", text)
    assert strip(twice) == strip(once)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("limit", "--case", "class-b", "--F", "7"), "F"),
        (("limit", "--case", "heisenberg", "--points", "3"), "points"),
        (("limit", "--case", "heisenberg", "--seed", "3"), "seed"),
        (("limit", "--case", "heisenberg", "--chart", "p"), "chart"),
        (("limit", "--case", "heisenberg", "--ell", "2"), "ell"),
        (("limit", "--case", "heisenberg", "--f", "x"), "f"),
        (("limit", "--case", "heisenberg", "--beta", "y"), "beta"),
        (("lift", "--case", "heisenberg", "--f", "x"), "f"),
        (("lift", "--case", "heisenberg", "--ells", "100,200"), "ells"),
        (("verify", "--case", "heisenberg", "--ells", "100,200"), "ells"),
        (("verify", "--case", "heisenberg", "--chart", "alpha"), "chart"),
    ],
)
def test_a_flag_the_subcommand_does_not_read_is_refused(capsys, argv, flag):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert captured.err == f"error: --{flag} is not used by {argv[0]}\n"


def test_a_config_file_may_hold_keys_of_other_subcommands(capsys, tmp_path):
    path = tmp_path / "shared.json"
    path.write_text('{"ells": "100,200", "chart": "p", "points": 3, "seed": 2}')
    assert main(["verify", "--case", "heisenberg", "--config", str(path)]) == EXIT_PASS
    assert main(["limit", "--case", "heisenberg", "--config", str(path)]) == EXIT_PASS
    capsys.readouterr()


# --- one jet per field and point ---------------------------------------------------


@functools.cache
def catalog_fields():
    """(field, sample points) for every frame, omega and V component of
    each catalog case at its defaults."""
    out = []
    for case in CASES:
        s, dom = build(case, {}, count=3)
        pts = sample(dom)
        legs = [f for leg in s.frame.legs for f in leg.comps.values()]
        out += [(f, pts) for f in legs + list(s.omega.comps.values()) + [s.V]]
    return out


@np.errstate(all="ignore")
def assert_served_is_fresh(f, q, high, low):
    """f at ``low`` in a scope that holds f at ``high`` is the jet of a
    fresh evaluation at ``low``, part by part and bit for bit."""
    with evaluation_scope():
        try:
            f(q, high)
        except EwbenchError:
            return
        served = f(q, low)
        with shared_scope() as memo:
            assert memo[(f, q)].order == high
    with evaluation_scope():
        fresh = f(q, low)
    assert served.order == fresh.order == low
    for a, b in zip(served.parts, fresh.parts):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


ORDERS = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda hl: hl[0] > hl[1])


class TestOneJetPerField:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(expr=EXPRS, rows=st.lists(st.tuples(COORDS, COORDS), min_size=1, max_size=4),
           batched=st.booleans(), orders=ORDERS)
    def test_a_lower_order_of_an_expression_is_a_fresh_evaluation(self, expr, rows, batched, orders):
        chart = ("x", "y")
        q = PointBatch(chart, rows) if batched else ChartPoint.make(chart, rows[0])
        assert_served_is_fresh(to_field(expr), q, *orders)

    @settings(derandomize=True, deadline=None)
    @given(index=st.integers(0, 10**6), batched=st.booleans(), orders=ORDERS)
    def test_a_lower_order_of_a_catalog_component_is_a_fresh_evaluation(self, index, batched, orders):
        fields = catalog_fields()
        f, pts = fields[index % len(fields)]
        q = PointBatch.of(pts) if batched else pts[0]
        assert_served_is_fresh(f, q, *orders)

    def test_the_memo_holds_the_highest_order_asked(self):
        calls = []
        x = Field.coordinate("x")
        f = Field(lambda pt, order=0: calls.append(order) or x(pt, order))
        q = ChartPoint.make(("x",), (0.5,))
        with evaluation_scope():
            for order in (1, 0, 3, 2, 1, 3):
                assert f(q, order).order == order
            with shared_scope() as memo:
                assert memo[(f, q)] is f(q, 3)
                assert all(len(key) == 2 for key in memo)
        assert calls == [1, 3]

    def test_a_value_that_is_not_a_jet_answers_only_its_order(self):
        s = heisenberg(1.0)
        q = ChartPoint.make(s.chart, (0.5, -0.5, 0.2))
        with evaluation_scope():
            for f in hodge3(s.omega, s.frame).comps.values():
                assert np.isfinite(f(q, 0).value)
                with pytest.raises(JetOrderError, match="hodge3"):
                    f(q, 1)
                assert isinstance(f(q, 0), Jet)

    def test_a_jet_above_the_order_asked_serves_every_order(self):
        """A field may answer any order with a jet of a higher one (those
        of perfbench's ``packed_metric`` are order 3): the memo holds that
        jet and serves every order through 3 from it: its value, and a
        prefix view of its derivative array (the same memory, cut short)."""
        calls = []
        jet = Field.coordinate("x")(ChartPoint.make(("x",), (0.5,)), 3)
        f = Field(lambda pt, order=0: calls.append(order) or jet)
        q = ChartPoint.make(("x",), (0.5,))
        held = jet.derivs.__array_interface__
        with evaluation_scope():
            for order in (0, 2, 1, 3, 0):
                served = f(q, order)
                view = served.derivs.__array_interface__
                assert served.order >= order and served.value is jet.value
                assert (view["data"], view["strides"]) == (held["data"], held["strides"])
                assert np.array_equal(served.derivs, jet.derivs[: served.derivs.size])
            with shared_scope() as memo:
                assert memo[(f, q)] is jet
        assert calls == [0]
