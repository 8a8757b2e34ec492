import math
import operator
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewbench import (
    Field,
    Guard,
    Jet,
    SampleDomain,
    parse_field,
    point,
    sample,
)
from ewbench import jets
from ewbench.errors import (
    DomainError,
    EwbenchError,
    JetOrderError,
    SamplingExhaustedError,
)
from ewbench.expr import to_field
from ewbench.families import heisenberg
from ewbench.forms import PForm, symmetric_product
from ewbench.jets import ChartPoint, PointBatch, evaluation_scope

from conftest import COORDS, EXPRS, XYT, PYT, pt
from oracle import comp, coord, fd_oracle, require_guard


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
        g = parse_field("x^5", ("x",))
        for _ in range(jets.MAX_ORDER + 1):
            g = g.d("x")
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

    def test_an_order_past_the_cap_is_refused(self):
        top = jets.MAX_ORDER + 1
        with pytest.raises(JetOrderError) as exc:
            Jet.constant(1.0, 2, top)
        assert str(exc.value) == f"jet order {top} outside 0..{jets.MAX_ORDER}"

    def test_an_order_0_jet_has_no_partial(self):
        with pytest.raises(JetOrderError) as exc:
            Jet.variable(0.5, 0, 2, 0).partial(0)
        assert str(exc.value) == (
            "cannot extract a derivative from an order-0 jet; "
            "evaluate the base field at a higher order"
        )

    def test_a_part_above_the_order_is_refused(self):
        with pytest.raises(JetOrderError) as exc:
            Jet.variable(0.5, 0, 2, 1).hess
        assert str(exc.value) == "hess is part 2 of a jet; this one has order 1"

    @pytest.mark.parametrize("batched", (False, True), ids=("point", "batch"))
    def test_a_lower_order_right_operand_cuts_to_its_order(self, batched):
        f = parse_field("exp(t)*sin(y) + x^3", XYT)
        g = parse_field("cos(x*y) - t", XYT)
        rows = [[0.2, 0.3, 0.1], [-0.7, 1.1, 0.4]]
        q = PointBatch(XYT, rows) if batched else pt(XYT, *rows[0])
        with evaluation_scope():
            a, b = f(q, 3), g(q, 1)
            prefix = f(q, 1)  # a view of the first parts of a
        assert a.order == 3 and prefix.order == 1
        for op in (operator.add, operator.sub, operator.mul):
            got, want = op(a, b), op(prefix, b)
            assert got.order == 1
            assert [np.asarray(p).tobytes() for p in got.parts] == [
                np.asarray(p).tobytes() for p in want.parts
            ]


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
    dom = SampleDomain(chart, (bx, by, bt), None, 99, 13)
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
        dom = SampleDomain(XYT, ((1.0, 2.0),) * 3, None, 42, 5)
        a = sample(dom)
        b = sample(dom)
        assert len(a) == 5
        assert [q.coords for q in a] == [q.coords for q in b]

    def test_guard_postcondition(self):
        guard_field = parse_field("y^2-4*x*t", XYT)
        dom = SampleDomain(
            XYT,
            ((-1.0, 1.0), (2.0, 3.0), (-1.0, 1.0)),
            Guard(guard_field, 0.25, "cone"),
            7,
            50,
        )
        for q in sample(dom):
            assert guard_field(q, 0).value > 0.25

    def test_empty_feasible_set_exhausts(self):
        p = parse_field("p", ("p",))
        dom = SampleDomain(("p",), ((-1.0, 0.0),), Guard(p, 0.5, "p>0.5"), 1, 10)
        with pytest.raises(SamplingExhaustedError):
            sample(dom)

    def test_require_guard_raises(self):
        p = parse_field("p", ("p",))
        dom = SampleDomain(("p",), ((-1.0, 1.0),), Guard(p, 0.5, "p>0.5"), 1, 10)
        with pytest.raises(AssertionError, match="violates p>0.5"):
            require_guard(dom, pt(("p",), 0.0))

    def test_point_helper(self):
        q = point(XYT, 1.0, 2.0, 3.0)
        assert coord(q, "y") == 2.0
        assert q.chart == XYT


def row_by_row_sample(domain):
    """Reference sampler: the guard evaluated one draw at a time, in draw
    order."""
    rng = np.random.default_rng(domain.seed)
    lows = np.array([b[0] for b in domain.box])
    highs = np.array([b[1] for b in domain.box])
    accepted = []
    while len(accepted) < domain.count:
        for row in rng.uniform(lows, highs, size=(512, len(domain.chart))):
            q = ChartPoint(domain.chart, tuple(float(v) for v in row))
            if domain.guard is None or domain.guard.accepts(q):
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
    # one guard of two conditions, x > -0.5 and the cone: their product is
    # positive where both hold or both fail
    TWO = Guard(parse_field("(x+0.5)*(y^2-4*x*t-0.25)", XYT), 0.0, "x > -0.5 iff cone")
    BOX = ((-1.0, 1.0), (2.0, 3.0), (-1.0, 1.0))

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("guards", ["none", "one", "two"])
    def test_same_points_as_row_by_row(self, seed, guards):
        chosen = {"none": None, "one": self.CONE, "two": self.TWO}[guards]
        dom = SampleDomain(XYT, self.BOX, chosen, seed, 700)
        got = sample(dom)
        assert [q.coords for q in got] == [q.coords for q in row_by_row_sample(dom)]

    def test_a_row_past_the_last_accepted_never_raises(self):
        seed, count = 2, 3
        draws = np.random.default_rng(seed).uniform(0.0, 1.0, size=512)
        assert draws[:count].max() < 0.9 < draws.max()
        guard = Guard(raising_above(0.9), -1.0, "x > -1")
        dom = SampleDomain(("x",), ((0.0, 1.0),), guard, seed, count)
        assert [q.coords[0] for q in sample(dom)] == draws[:count].tolist()

    def test_a_row_before_the_last_accepted_raises(self):
        dom = SampleDomain(("x",), ((0.0, 1.0),), Guard(raising_above(0.9), -1.0, "x > -1"), 2, 512)
        with pytest.raises(DomainError, match="x above 0.9"):
            sample(dom)

    def test_a_guard_screens_only_the_rows_it_needs(self):
        x = parse_field("x", XYT)
        screened = []

        def counted(q, order=0):
            screened.append(q.shape[0] if q.shape else 1)
            return x(q, order)

        dom = SampleDomain(XYT, self.BOX, Guard(Field(counted), -0.5, "x > -0.5"), 1, 20)
        got = [q.coords for q in sample(dom)]
        assert sum(screened) < 64
        assert got == [q.coords for q in row_by_row_sample(dom)]

    def test_a_guard_value_that_is_not_finite_is_a_rejection(self):
        def root(q, order=0):
            # nan, with numpy's invalid-value warning, where x < 0
            return Jet.variable(np.sqrt(q.coords[0]), 0, q.dim, order)

        seed, count = 6, 20
        draws = np.random.default_rng(seed).uniform(-1.0, 1.0, size=512)
        dom = SampleDomain(("x",), ((-1.0, 1.0),), Guard(Field(root), -1.0, "sqrt x > -1"), seed, count)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [q.coords[0] for q in sample(dom)]
        assert got == draws[draws >= 0.0][:count].tolist()

    def test_exhaustion_names_the_rejections_of_each_guard(self):
        p = parse_field("p", ("p",))
        for guard in (Guard(p, 0.5, "p>0.5"), Guard(p, 0.0, "p>0")):
            dom = SampleDomain(("p",), ((-1.0, 0.0),), guard, 1, 10)
            with pytest.raises(SamplingExhaustedError) as err:
                sample(dom)
            assert str(err.value) == (
                "acceptance rate 0/1000448 below 1% after 1000448 draws; "
                f"rejected by {guard.label}: 1000448"
            )

    @staticmethod
    def screened_batches(monkeypatch):
        """The number of rows of each ``jets._screen`` call of ``sample``."""
        calls, screen = [], jets._screen

        def counted(domain, rows):
            calls.append(len(rows))
            return screen(domain, rows)

        monkeypatch.setattr(jets, "_screen", counted)
        return calls

    def test_a_constant_that_rejects_is_certain(self, monkeypatch):
        guard = Guard(Field.const(0.0), 0.5, "zero")
        calls = self.screened_batches(monkeypatch)
        with pytest.raises(SamplingExhaustedError) as err:
            sample(SampleDomain(("p",), ((-1.0, 1.0),), guard, 1, 10))
        assert str(err.value) == (
            "acceptance rate 0/1000448 below 1% after 1000448 draws; rejected by zero: 1000448"
        )
        assert len(calls) == 1 and sum(calls) <= 512

    def test_a_guard_with_the_batch_axis_that_rejects_draws_to_the_cap(self, monkeypatch):
        guard = Guard(parse_field("p", ("p",)), 0.0, "p>0")
        calls = self.screened_batches(monkeypatch)
        with pytest.raises(SamplingExhaustedError) as err:
            sample(SampleDomain(("p",), ((-1.0, 0.0),), guard, 1, 10))
        assert str(err.value) == (
            "acceptance rate 0/1000448 below 1% after 1000448 draws; rejected by p>0: 1000448"
        )
        # the first batch in a prefix sized for 10 points and the rest; once
        # rows were screened and none passed, each batch whole
        assert calls == [21, 491] + [512] * (1000448 // 512 - 1)


def batch_shy(field):
    """``field``, raising DomainError when evaluated on a batch of points."""

    def fn(q, order=0):
        if isinstance(q, PointBatch):
            raise DomainError("a batch")
        return field(q, order)

    return Field(fn)


class TestRowByRowRescreen:
    """A guard that raises on a batch has the batch screened again one row
    at a time (``jets._screen_rows``)."""

    # x (0.5 - x) > 0 exactly where 0 < x < 0.5
    GUARD = Guard(batch_shy(parse_field("x*(0.5-x)", ("x",))), 0.0, "0 < x < 0.5")
    DRAWS = np.random.default_rng(4).uniform(-1.0, 1.0, size=(512, 1))

    def domain(self, count):
        return SampleDomain(("x",), ((-1.0, 1.0),), self.GUARD, 4, count)

    def test_it_stops_at_the_row_that_completes_the_count(self):
        keep, rejected = jets._screen_rows(self.domain(5), self.DRAWS, 5)
        x = self.DRAWS[:21, 0]
        assert keep == np.flatnonzero((x > 0) & (x < 0.5)).tolist() == [1, 4, 9, 19, 20]
        assert rejected == int(np.sum((x <= 0) | (x >= 0.5))) == 16

    def test_it_counts_every_rejection_of_a_batch_that_falls_short(self):
        keep, rejected = jets._screen_rows(self.domain(200), self.DRAWS, 200)
        x = self.DRAWS[:, 0]
        assert keep == np.flatnonzero((x > 0) & (x < 0.5)).tolist()
        assert rejected == int(np.sum((x <= 0) | (x >= 0.5)))
        assert len(keep) == 132 and rejected == 512 - 132

    @pytest.mark.parametrize("count", [5, 200])
    def test_sample_keeps_the_accepted_rows_in_draw_order(self, count):
        got = [q.coords for q in sample(self.domain(count))]
        assert got == [q.coords for q in row_by_row_sample(self.domain(count))]
        assert [c[0] for c in got[:5]] == self.DRAWS[[1, 4, 9, 19, 20], 0].tolist()


# --- constants fold ------------------------------------------------------------------

# 0, 1, -1, a subnormal, a number whose reciprocal's derivatives overflow,
# and the non-finite ones
CONSTANTS = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 5e-324, 0.5, 3.0, 1e-160, 1e300, math.inf, math.nan]
)
# coordinates near the float range's ends come first, so that jets with a
# part that is not finite below the top one are common
EXTREME = st.one_of(st.sampled_from([1e200, -1e103, 1e-160, -1e-200]), COORDS)
POINTS = st.one_of(
    st.tuples(EXTREME, EXTREME).map(lambda xy: ChartPoint.make(("x", "y"), xy)),
    st.lists(st.tuples(EXTREME, EXTREME), min_size=1, max_size=5).map(
        lambda rows: PointBatch(("x", "y"), rows)
    ),
)
# each folded operation, as fields with a number, and as the parent's full
# operation on the jet of f and the constant jet C of the number
FIELD_FOLDS = {
    "c*f": (lambda f, c: Field.const(c) * f, lambda j, C: C * j),
    "f*c": (lambda f, c: f * c, lambda j, C: j * C),
    "f/c": (lambda f, c: f / c, lambda j, C: j / C),
    "c/f": (lambda f, c: c / f, lambda j, C: C / j),
    "f+c": (lambda f, c: f + c, lambda j, C: j + C),
    "c-f": (lambda f, c: c - f, lambda j, C: C - j),
    "f+0": (lambda f, c: f + 0.0, lambda j, C: j + Jet.constant(0.0, 2, j.order)),
    "1*f": (lambda f, c: 1.0 * f, lambda j, C: Jet.constant(1.0, 2, j.order) * j),
}
# Jet arithmetic with a Python number, against the same full operations
JET_FOLDS = {
    "j*c": (lambda j, c: j * c, lambda j, C: j * C),
    "c*j": (lambda j, c: c * j, lambda j, C: C * j),
    "j/c": (lambda j, c: j / c, lambda j, C: j / C),
    "c/j": (lambda j, c: c / j, lambda j, C: C / j),
    "j+c": (lambda j, c: j + c, lambda j, C: j + C),
    "j-c": (lambda j, c: j - c, lambda j, C: j - C),
    "c-j": (lambda j, c: c - j, lambda j, C: C - j),
}


def outcome(fn):
    try:
        return fn()
    except EwbenchError as err:
        return err


def assert_same(got, want):
    """The same jet part by part (NaN equal to NaN, a zero of either sign
    equal to zero, an unbatched part equal to its rows), or the same error."""
    if isinstance(want, EwbenchError):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert isinstance(got, Jet) and got.order == want.order
    for a, b in zip(got.parts, want.parts):
        a, b = np.broadcast_arrays(a, b)
        assert np.array_equal(a, b, equal_nan=True)


class TestConstantFolds:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(expr=EXPRS, c=CONSTANTS, q=POINTS, order=st.integers(0, 3))
    def test_a_number_acts_as_its_constant_jet(self, expr, c, q, order):
        f = to_field(expr)
        with np.errstate(all="ignore"):
            jet = outcome(lambda: f(q, order))
            if isinstance(jet, EwbenchError):
                return
            C = Jet.constant(c, 2, order)
            for fold, full in FIELD_FOLDS.values():
                assert_same(outcome(lambda: fold(f, c)(q, order)), outcome(lambda: full(jet, C)))
            for fold, full in JET_FOLDS.values():
                assert_same(outcome(lambda: fold(jet, c)), outcome(lambda: full(jet, C)))

    @settings(derandomize=True, deadline=None)
    @given(a=CONSTANTS, b=CONSTANTS, q=POINTS, order=st.integers(0, 3))
    def test_two_constants_fold_as_their_jets_combine(self, a, b, q, order):
        A, B = Jet.constant(a, 2, order), Jet.constant(b, 2, order)
        fa, fb = Field.const(a), Field.const(b)
        pairs = (
            (fa + fb, lambda: A + B),
            (fa - fb, lambda: A - B),
            (fa * fb, lambda: A * B),
            (fa / fb, lambda: A / B),
            (-fa, lambda: -A),
        )
        with np.errstate(all="ignore"):
            for field, full in pairs:
                assert_same(outcome(lambda: field(q, order)), outcome(full))

    def test_finite_constants_fold_to_a_constant(self):
        two, three = Field.const(2.0), Field.const(3.0)
        assert (two * three).number == 6.0
        assert (two / 4.0).number == 0.5
        assert (1.0 - two).number == -1.0
        assert (-two).number == -2.0
        # 1/0 and inf * 0 are left to evaluation
        assert (two / 0.0).number is None
        assert (Field.const(math.inf) * 0.0).number is None

    def test_one_times_a_field_is_its_own_jet(self):
        x = Field.coordinate("x")
        with evaluation_scope():
            q = point(("x",), 0.5)
            assert (1.0 * x)(q, 3) is x(q, 3)


# an affine map of a field by a number c, each as field algebra
AFFINE_STEPS = {
    "f+c": lambda f, c: f + c,
    "c+f": lambda f, c: c + f,
    "f-c": lambda f, c: f - c,
    "c-f": lambda f, c: c - f,
    "c*f": lambda f, c: Field.const(c) * f,
    "f*c": lambda f, c: f * c,
    "f/c": lambda f, c: f / c,
    "-f": lambda f, c: -f,
}
AFFINE = st.tuples(
    st.sampled_from(["x", "y"]),
    st.lists(st.tuples(st.sampled_from(sorted(AFFINE_STEPS)), CONSTANTS), max_size=4),
)


def affine_field(start, steps):
    f = Field.coordinate(start)
    for name, c in steps:
        f = AFFINE_STEPS[name](f, c)
    return f


class TestAffineDerivatives:
    """The derivatives of affine maps of the coordinates, which no longer
    fold: ``d`` of a constant is the constant 0, and every other ``d`` is
    the partial of the base's jet one order up."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(affine=AFFINE, along=st.sampled_from(["x", "y"]), q=POINTS, order=st.integers(0, 2))
    def test_a_folded_derivative_is_the_partial_of_a_finite_jet(self, affine, along, q, order):
        """d of an affine field is the partial of its finite jet, bit for bit."""
        f = affine_field(*affine)
        fd = f.d(along)
        with np.errstate(all="ignore"):
            jet = outcome(lambda: f(q, order + 1))
            if isinstance(jet, EwbenchError) or not all(np.isfinite(p).all() for p in jet.parts):
                return
            assert_same(fd(q, order), jet.partial(q.chart.index(along)))

    def test_coordinates_constants_and_affine_maps_fold(self):
        """Only the derivative of a constant is a constant."""
        x, y = Field.coordinate("x"), Field.coordinate("y")
        assert Field.const(7.0).d("x").number == 0.0
        # every other derivative comes from the jet: none is a constant
        assert x.d("x").number is None and x.d("y").number is None
        assert ((3.0 - x * 2.0) / 4.0 + y).d("x").number is None
        assert ((3.0 - x * 2.0) / 4.0).d("x").number is None
        assert (-(x + 5.0)).d("x").number is None
        assert (jets.exp(x) * 2.0).d("x").number is None

    def test_a_non_finite_factor_is_left_to_evaluation(self):
        """d of a field scaled by a non-finite number is no constant either."""
        x = Field.coordinate("x")
        assert (x * math.inf).d("x").number is None
        assert (x / 0.0).d("x").number is None
        assert (2.0 / x).d("x").number is None

    @pytest.mark.parametrize("ell", [1.0, -3.0, 0.7, 1e300])
    def test_heisenberg_v_and_omega_dy_fold(self, ell):
        """V's jet is 2/ell with zero derivative parts, omega's dy
        coefficient 4/ell, by evaluation."""
        s = heisenberg(ell)
        q = pt(XYT, 0.3, -0.4, 0.8)
        v = s.V(q, 2)
        assert v.value == 2 / ell
        assert not v.derivs.any()
        dy = s.chart.index("y")
        assert s.omega.comps[(dy,)](q, 0).value == 4 / ell


class TestNothingPresentIsSkipped:
    def test_times_zero_still_evaluates_an_infinite_partner(self):
        q = point(("x",), math.inf)
        with np.errstate(all="ignore"):
            for field in (Field.coordinate("x") * 0.0, Field.const(0.0) * Field.coordinate("x")):
                j = field(q, 1)
                assert not np.isfinite(j.value)

    def test_an_infinite_part_below_the_top_spreads_nan_as_the_full_product(self):
        # a finite value and an infinite gradient: the full product with
        # the constant jet of 2 makes the hessian NaN (inf * 0)
        j = Jet([1.0, np.array([math.inf]), np.array([[3.0]])])
        with np.errstate(all="ignore"):
            full = j * Jet.constant(2.0, 1, 2)
            assert np.isnan(full.hess).all()
            assert_same(j * 2.0, full)

    def test_division_by_a_zero_constant_raises_when_evaluated(self):
        f = Field.coordinate("x") / Field.const(0.0)
        with pytest.raises(DomainError, match="^division by zero$"):
            f(point(("x",), 1.0), 0)
        with pytest.raises(DomainError, match="^division by zero$"):
            (Field.const(1.0) / Field.const(0.0))(point(("x",), 1.0), 0)

    def test_symmetric_product_stores_only_present_pairs(self):
        chart = ("a", "b", "c", "d")
        x, y = Field.coordinate("a"), Field.coordinate("b")
        u = PForm(chart, 1, {(0,): x * y, (2,): jets.sin(y)})
        v = PForm(chart, 1, {(2,): x + 1.0, (3,): 0.0})
        g = symmetric_product(u, v)
        # (0,3) and (2,3) pair a present 0.0 component: still present
        assert sorted(g.comps) == [(0, 2), (0, 3), (2, 2), (2, 3)]
        q = PointBatch(chart, [[0.3, -1.2, 0.7, 2.0], [1.5, 0.2, -0.4, -3.0]])
        half = Jet.constant(0.5, 4, 3)

        def jet(form, k):  # an absent component is the zero constant jet
            return comp(form, (k,))(q, 3)

        for (i, j), field in g.comps.items():
            # the dense construction: every product in full, zeros included;
            # the same bits, apart from the sign of a zero (x + 0.0 is +0.0)
            dense = (jet(u, i) * jet(v, j) + jet(u, j) * jet(v, i)) * half
            got = field(q, 3)
            for a, b in zip(got.parts, dense.parts):
                a, b = np.broadcast_arrays(np.add(a, 0.0), np.add(b, 0.0))
                assert a.tobytes() == b.tobytes()


# every smooth function, the reciprocal and a non-integer power, as jet maps
JET_MAPS = {
    name: getattr(jets, name)
    for name in ("exp", "log", "sin", "cos", "sqrt", "sinh", "cosh", "tanh")
}
JET_MAPS["reciprocal"] = Jet.reciprocal
JET_MAPS["power 1.5"] = lambda j: j**1.5
# values whose derivative series leave the float range: exp overflows past
# 709.78 and underflows below -745; 1/v^2 underflows to 0 at 1e-200 and v^2
# overflows at 1e155 (1/v^4 at 1e80); 0.375/(v^2 sqrt v) divides by 0 at
# 1e-160; the sine of inf is a domain error of libm
SERIES_VALUES = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from(
        [0.0, 1e-320, 1e-200, 1e-160, 1e80, 1e155, 1e200, -1e200, 709.0, 711.0, -750.0]
        + [math.inf, math.nan]
    ),
)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestBatchedSeries:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(
        name=st.sampled_from(sorted(JET_MAPS)),
        xs=st.lists(SERIES_VALUES, min_size=1, max_size=6),
        order=st.integers(0, 3),
    )
    def test_each_row_is_the_jet_of_its_point_bit_for_bit(self, name, xs, order):
        # u = x y at y = 1 has the value x and a gradient and Hessian
        # that are not constant
        u = Field.coordinate("x") * Field.coordinate("y")
        chart, rows = ("x", "y"), [(x, 1.0) for x in xs]

        def jet_at(q):
            return JET_MAPS[name](u(q, order))

        with np.errstate(all="ignore"):
            points = [outcome(lambda: jet_at(ChartPoint.make(chart, r))) for r in rows]
            if any(isinstance(p, EwbenchError) for p in points):
                assert all(isinstance(p, (Jet, DomainError)) for p in points)
                with pytest.raises(DomainError):
                    jet_at(PointBatch(chart, rows))
                return
            batch = jet_at(PointBatch(chart, rows))
        assert batch.order == order
        for k, part in enumerate(batch.parts):
            part = np.broadcast_to(part, (len(rows),) + (2,) * k)
            assert [_bits(row) for row in part] == [_bits(p.parts[k]) for p in points]
