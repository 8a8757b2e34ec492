import math

import numpy as np
import pytest

from ewbench import (
    Field,
    Guard,
    Jet,
    SampleDomain,
    fd_oracle,
    parse_field,
    point,
    sample,
)
from ewbench import jets
from ewbench.errors import (
    DomainError,
    GuardViolationError,
    JetOrderError,
    SamplingExhaustedError,
)
from ewbench.jets import ChartPoint, evaluation_scope, require_guards

from conftest import XYT, PYT, box_points, pt


class TestJetArithmetic:
    def test_constant_jet_flat(self):
        j = Jet.constant(5.0, 3, order=3)
        assert j.value == 5.0
        assert not j.grad.any()
        assert not j.hess.any()
        assert not j.third.any()

    def test_square_of_coordinate(self):
        x = Field.coordinate("x")
        j = (x * x)(pt(("x",), 3.0), 3)
        assert j.value == pytest.approx(9.0)
        assert j.grad[0] == pytest.approx(6.0)
        assert j.hess[0, 0] == pytest.approx(2.0)
        assert j.third[0, 0, 0] == pytest.approx(0.0)

    def test_tanh_jet_at_origin(self):
        ell = 2.0
        p = Field.coordinate("p")
        j = jets.tanh(p / ell)(pt(("p",), 0.0), 3)
        assert j.value == pytest.approx(0.0)
        assert j.grad[0] == pytest.approx(1.0 / ell)
        assert j.hess[0, 0] == pytest.approx(0.0)
        assert j.third[0, 0, 0] == pytest.approx(-2.0 / ell**3)

    def test_division_by_zero_value(self):
        x = Field.coordinate("x")
        with pytest.raises(Exception):
            (1.0 / x)(pt(("x",), 0.0), 1)

    def test_quotient_rule(self):
        f = parse_field("sin(x)/(t^2+1)", XYT)
        q = pt(XYT, 0.7, 0.0, 0.4)
        j = f(q, 2)
        assert j.value == pytest.approx(math.sin(0.7) / (0.16 + 1.0))
        assert j.grad[0] == pytest.approx(math.cos(0.7) / 1.16, rel=1e-12)


class TestOrderCap:
    def test_fourth_derivative_rejected(self):
        f = parse_field("x^5", ("x",))
        g = f.d("x").d("x").d("x").d("x")
        with pytest.raises(JetOrderError):
            g(pt(("x",), 1.0), 0)

    def test_third_derivative_allowed(self):
        f = parse_field("x^5", ("x",))
        g = f.d("x").d("x").d("x")
        assert g(pt(("x",), 1.0), 0).value == pytest.approx(60.0)

    def test_derivative_field_matches_jet_slot(self):
        f = parse_field("exp(t)*sin(y)", XYT)
        q = pt(XYT, 0.0, 0.3, 0.1)
        assert f.d("y")(q, 0).value == pytest.approx(f(q, 1).grad[1])


class TestEvaluationScope:
    @staticmethod
    def counted_coordinate(calls):
        def fn(q, order=0):
            calls.append((q.coords, order))
            return Jet.variable(q.coords[0], 0, q.dim, order)

        return Field(fn)

    def test_fn_runs_once_per_point_and_order_in_a_scope(self):
        calls = []
        x = self.counted_coordinate(calls)
        g = x * x + x.d("x") * x - x
        a, b = pt(("x",), 1.0), pt(("x",), 2.0)
        with evaluation_scope():
            for q in (a, b, pt(("x",), 1.0)):
                assert g(q, 0).value == q.coords[0] ** 2
                g(q, 1)
        # x at orders 0 and 1 for g, order 2 for x.d("x") at order 1
        assert sorted(calls) == [
            ((1.0,), 0), ((1.0,), 1), ((1.0,), 2),
            ((2.0,), 0), ((2.0,), 1), ((2.0,), 2),
        ]

    def test_top_level_calls_do_not_share(self):
        calls = []
        x = self.counted_coordinate(calls)
        q = pt(("x",), 1.0)
        x(q, 0)
        x(q, 0)
        assert calls == [((1.0,), 0), ((1.0,), 0)]

    def test_no_memo_left_open_after_top_level_calls(self):
        assert jets._SCOPE.get() is None
        Field.coordinate("x")(pt(("x",), 1.0), 3)
        assert jets._SCOPE.get() is None
        bad = parse_field("ln(x)", ("x",)) * 2.0
        with pytest.raises(DomainError):
            bad(pt(("x",), -1.0), 0)
        assert jets._SCOPE.get() is None
        with pytest.raises(DomainError):
            with evaluation_scope():
                bad(pt(("x",), -1.0), 0)
        assert jets._SCOPE.get() is None


class TestFdOracle:
    def test_first_derivative_of_square(self):
        f = parse_field("x^2", ("x",))
        assert fd_oracle(f, pt(("x",), 3.0), ("x",)) == pytest.approx(6.0, abs=1e-9)

    def test_second_derivative_trig(self):
        f = parse_field("exp(t)*sin(y)", ("y", "t"))
        got = fd_oracle(f, pt(("y", "t"), 0.3, 0.1), ("y", "y"))
        assert got == pytest.approx(-math.exp(0.1) * math.sin(0.3), abs=1e-8)

    def test_generator_mixed_partial_matches_jet(self):
        # A with A_p = 2^(-4/3) (t p^2)^(-1/3)
        f = parse_field("3*2^(-4/3)*t^(-1/3)*p^(1/3)", ("p", "t"))
        q = pt(("p", "t"), 1.0, 1.0)
        fd = fd_oracle(f, q, ("p", "t"))
        j = f(q, 2)
        assert fd == pytest.approx(j.hess[0, 1], abs=1e-5)

    def test_third_derivative_stencil(self):
        f = parse_field("x^4", ("x",))
        got = fd_oracle(f, pt(("x",), 1.5), ("x", "x", "x"))
        assert got == pytest.approx(24.0 * 1.5, rel=1e-5)


CATALOG_FIELDS = (
    ("1/sqrt(y^2-4*x*t)", XYT, (0.1, 0.4), (2.0, 3.0), (0.1, 0.4)),
    ("4*x/1.7", XYT, (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
    ("exp(t)*sin(y)", XYT, (-1.0, 1.0), (2.0, 3.0), (0.2, 0.9)),
    ("y^2-2*t", XYT, (-1.0, 1.0), (2.0, 3.0), (0.2, 0.9)),
    ("1+p^2", PYT, (0.5, 2.0), (-1.0, 1.0), (-1.0, 1.0)),
    ("-(1/3)*2^(-4/3)*(t*p^2)^(-1/3)", PYT, (0.5, 2.0), (-1.0, 1.0), (0.5, 2.0)),
    ("p*ln(p)-p", PYT, (0.5, 2.0), (-1.0, 1.0), (0.5, 2.0)),
    ("tanh(p/2)", PYT, (-1.5, 1.5), (-1.0, 1.0), (-1.0, 1.0)),
)


@pytest.mark.parametrize("src,chart,bx,by,bt", CATALOG_FIELDS)
def test_catalog_jets_match_fd_through_order_two(src, chart, bx, by, bt):
    f = parse_field(src, chart)
    dom = SampleDomain(chart, (bx, by, bt), (), 99, 13)
    for q in sample(dom):
        j = f(q, 2)
        for i, a in enumerate(chart):
            fd = fd_oracle(f, q, (a,))
            assert abs(j.grad[i] - fd) <= 1e-5 * max(1.0, abs(fd)), (src, a)
            for k, b in enumerate(chart[i:], start=i):
                fd2 = fd_oracle(f, q, (a, b))
                assert abs(j.hess[i, k] - fd2) <= 1e-5 * max(1.0, abs(fd2)), (
                    src,
                    a,
                    b,
                )


class TestSampling:
    def test_deterministic_repeatable(self):
        dom = SampleDomain(XYT, ((1.0, 2.0),) * 3, (), 42, 5)
        a = sample(dom)
        b = sample(dom)
        assert len(a) == 5
        assert [q.coords for q in a] == [q.coords for q in b]

    def test_guard_postcondition(self):
        guard_field = parse_field("y^2-4*x*t", XYT)
        dom = SampleDomain(
            XYT,
            ((-1.0, 1.0), (2.0, 3.0), (-1.0, 1.0)),
            (Guard(guard_field, 0.25, "cone"),),
            7,
            50,
        )
        for q in sample(dom):
            assert guard_field(q, 0).value > 0.25

    def test_empty_feasible_set_exhausts(self):
        p = parse_field("p", ("p",))
        dom = SampleDomain(("p",), ((-1.0, 0.0),), (Guard(p, 0.5, "p>0.5"),), 1, 10)
        with pytest.raises(SamplingExhaustedError):
            sample(dom)

    def test_require_guards_raises(self):
        p = parse_field("p", ("p",))
        dom = SampleDomain(("p",), ((-1.0, 1.0),), (Guard(p, 0.5, "p>0.5"),), 1, 10)
        with pytest.raises(GuardViolationError):
            require_guards(dom, pt(("p",), 0.0))

    def test_point_helper(self):
        q = point(XYT, 1.0, 2.0, 3.0)
        assert q.coord("y") == 2.0
        assert q.chart == XYT


def row_by_row_sample(domain):
    """Reference sampler: the guards evaluated one draw at a time, in draw
    order, short-circuiting on the first rejection."""
    rng = np.random.default_rng(domain.seed)
    lows = np.array([b[0] for b in domain.box])
    highs = np.array([b[1] for b in domain.box])
    accepted = []
    while len(accepted) < domain.count:
        for row in rng.uniform(lows, highs, size=(512, len(domain.chart))):
            q = ChartPoint(domain.chart, tuple(float(v) for v in row))
            if all(g.accepts(q) for g in domain.guards):
                accepted.append(q)
                if len(accepted) == domain.count:
                    break
    return accepted


def raising_above(limit):
    """The coordinate x as a field that raises DomainError where x > limit."""

    def fn(q, order=0):
        if np.any(q.coords[0] > limit):
            raise DomainError(f"x above {limit}")
        return Jet.variable(q.coords[0], 0, q.dim, order)

    return Field(fn)


class TestBatchedSampling:
    CONE = Guard(parse_field("y^2-4*x*t", XYT), 0.25, "cone")
    HALF = Guard(parse_field("x", XYT), -0.5, "x > -0.5")
    BOX = ((-1.0, 1.0), (2.0, 3.0), (-1.0, 1.0))

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("guards", ["none", "one", "two"])
    def test_same_points_as_row_by_row(self, seed, guards):
        chosen = {"none": (), "one": (self.CONE,), "two": (self.HALF, self.CONE)}[guards]
        dom = SampleDomain(XYT, self.BOX, chosen, seed, 700)
        got = sample(dom)
        assert [q.coords for q in got] == [q.coords for q in row_by_row_sample(dom)]

    def test_a_guard_sees_only_rows_the_earlier_guards_accepted(self):
        # ln(x) raises for x <= 0, exactly the rows the first guard rejects
        guards = (
            Guard(parse_field("x", ("x",)), 0.0, "x > 0"),
            Guard(parse_field("ln(x)", ("x",)), -5.0, "ln x > -5"),
        )
        dom = SampleDomain(("x",), ((-1.0, 1.0),), guards, 3, 600)
        got = sample(dom)
        assert [q.coords for q in got] == [q.coords for q in row_by_row_sample(dom)]

    def test_a_row_past_the_last_accepted_never_raises(self):
        seed, count = 2, 3
        draws = np.random.default_rng(seed).uniform(0.0, 1.0, size=512)
        assert draws[:count].max() < 0.9 < draws.max()
        dom = SampleDomain(("x",), ((0.0, 1.0),), (Guard(raising_above(0.9), -1.0),), seed, count)
        assert [q.coords[0] for q in sample(dom)] == draws[:count].tolist()

    def test_a_row_before_the_last_accepted_raises(self):
        dom = SampleDomain(("x",), ((0.0, 1.0),), (Guard(raising_above(0.9), -1.0),), 2, 512)
        with pytest.raises(DomainError, match="x above 0.9"):
            sample(dom)

    def test_exhaustion_names_the_rejections_of_each_guard(self):
        p = parse_field("p", ("p",))
        guards = (Guard(p, -2.0, "p>-2"), Guard(p, 0.5, "p>0.5"), Guard(p, 0.9))
        dom = SampleDomain(("p",), ((-1.0, 0.0),), guards, 1, 10)
        with pytest.raises(SamplingExhaustedError) as err:
            sample(dom)
        assert str(err.value) == (
            "acceptance rate 0/1000448 below 1% after 1000448 draws; "
            "rejected by p>-2: 0, p>0.5: 1000448, guard 2: 0"
        )
