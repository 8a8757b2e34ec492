from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ewbench import expr, parse, to_source
from ewbench.errors import (
    DomainError,
    EwbenchError,
    ExprSyntaxError,
    UnknownIdentifierError,
)
from ewbench.expr import (
    Bin,
    Const,
    Var,
    eval_jet,
    free_names,
    parse_field,
    substitute,
    to_field,
)
from ewbench.jets import MAX_ORDER, PointBatch

from conftest import COORDS, EXPRS, XYT, pt


def val(src, chart, *coords, order=0):
    return eval_jet(parse(src, chart), pt(chart, *coords), order)


class TestParse:
    def test_legendre_generator_at_one(self):
        assert val("p*ln(p)-p", ("p",), 1.0).value == pytest.approx(-1.0)

    def test_quadratic_form(self):
        assert val("y^2-4*x*t", XYT, 1.0, 3.0, 2.0).value == pytest.approx(1.0)

    def test_unbalanced_paren_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("2*(p", ("p",))
        assert err.value.offset == 4

    def test_unknown_identifier_named(self):
        with pytest.raises(UnknownIdentifierError) as err:
            parse("x+qq", XYT)
        assert err.value.name == "qq"

    def test_empty_source_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("", XYT)

    def test_subtraction_left_associative(self):
        chart = ("a", "b", "c")
        assert parse("a-b-c", chart) == parse("(a-b)-c", chart)

    def test_power_right_associative(self):
        chart = ("a", "b", "c")
        assert parse("a^b^c", chart) == parse("a^(b^c)", chart)

    def test_power_binds_tighter_than_unary_minus(self):
        assert val("-x^2", ("x",), 3.0).value == pytest.approx(-9.0)

    def test_unary_minus_in_exponent(self):
        assert val("x^-2", ("x",), 2.0).value == pytest.approx(0.25)

    def test_whitespace_insignificant(self):
        chart = ("p", "t")
        assert parse(" p \t+ t ", chart) == parse("p+t", chart)

    def test_structural_nodes(self):
        e = parse("p+2", ("p",))
        assert e == Bin("+", Var("p"), Const(2.0))


class TestRoundTrip:
    SOURCES = (
        ("p*ln(p)-p", ("p",)),
        ("y^2-4*x*t", XYT),
        ("1/sqrt(y^2-4*x*t)", XYT),
        ("exp(t)*sin(y)", XYT),
        ("-(x+y)^3/(t^2+0.5)", XYT),
        ("2^(-4/3)*t^(-1/3)*p^(1/3)", ("p", "y", "t")),
        ("tanh(x)+cosh(y)-sinh(t)", XYT),
        ("x^-2+t", XYT),
    )

    @pytest.mark.parametrize("src,chart", SOURCES)
    def test_print_then_reparse_identical(self, src, chart):
        e = parse(src, chart)
        assert parse(to_source(e), chart) == e


class TestEvalJet:
    def test_exp_sin_eigenfunction_of_dt(self):
        e = parse("exp(t)*sin(y)", XYT)
        for coords in ((0.1, 0.4, 0.2), (1.0, -0.3, 0.7), (-0.5, 2.0, -1.1)):
            j = eval_jet(e, pt(XYT, *coords), 1)
            assert j.grad[2] == pytest.approx(j.value, rel=1e-12)

    def test_xyt_mixed_third_partial(self):
        j = val("x*y*t", XYT, 0.7, -0.4, 1.3, order=3)
        ix, iy, it = 0, 1, 2
        assert j.third[ix, iy, it] == pytest.approx(1.0)
        assert j.third[ix, ix, ix] == 0.0
        assert j.third[iy, iy, iy] == 0.0
        assert j.hess[ix, ix] == 0.0

    def test_fundamental_solution_gradient(self):
        j = val("1/sqrt(y^2-4*x*t)", XYT, 1.0, 3.0, 2.0, order=1)
        assert j.value == pytest.approx(1.0)
        assert j.grad[0] == pytest.approx(4.0)  # 2t/r^3 at r=1, t=2

    def test_log_of_nonpositive_raises_with_subexpr(self):
        e = parse("ln(x-2)", ("x",))
        with pytest.raises(DomainError) as err:
            eval_jet(e, pt(("x",), 1.0), 1)
        assert "x-2" in str(err.value).replace(" ", "")

    def test_division_by_zero_raises(self):
        with pytest.raises(DomainError):
            val("1/(x-1)", ("x",), 1.0)

    def test_sqrt_of_negative_raises(self):
        with pytest.raises(DomainError):
            val("sqrt(x)", ("x",), -2.0)

    def test_integer_power_of_negative_base(self):
        assert val("x^3", ("x",), -2.0).value == pytest.approx(-8.0)

    def test_fractional_power_needs_positive_base(self):
        with pytest.raises(DomainError):
            val("x^(1/3)", ("x",), -2.0)

    def test_coordinate_exponent_value_is_order_independent(self):
        values = {val("x^y", ("x", "y"), 3.0, 2.0, order=k).value for k in range(4)}
        assert len(values) == 1

    def test_a_literal_exponent_walks_no_subtree(self):
        calls = []

        def counted(e):
            calls.append(e)
            return free_names(e)

        with mock.patch.object(expr, "free_names", counted):
            jet = val("x^2", ("x",), -3.0, order=3)
            assert (jet.value, jet.parts[1][0], jet.parts[2][0, 0]) == (9.0, -6.0, 2.0)
            assert calls == []
            assert val("x^(1+1)", ("x",), -3.0).value == 9.0
        assert calls[0] == parse("1+1", ("x",))

    @pytest.mark.parametrize("order", range(4))
    def test_coordinate_exponent_needs_positive_base(self, order):
        with pytest.raises(DomainError, match="general power needs a positive base"):
            val("x^y", ("x", "y"), -2.0, 2.0, order=order)

    def test_substitute(self):
        k = parse("s^2", ("s",))
        replaced = substitute(k, "s", parse("t*p^2", ("p", "t")))
        j = eval_jet(replaced, pt(("p", "t"), 2.0, 3.0), 0)
        assert j.value == pytest.approx((3.0 * 4.0) ** 2)

    def test_free_names(self):
        assert free_names(parse("y^2-4*x*t", XYT)) == {"x", "y", "t"}

    def test_parse_field_evaluates(self):
        f = parse_field("x+2*t", XYT)
        assert f(pt(XYT, 1.0, 0.0, 3.0), 0).value == pytest.approx(7.0)


# --- constant expressions ---------------------------------------------------------

# conftest.EXPRS with x and y replaced by numbers
CONSTANT_EXPRS = st.builds(
    lambda e, x, y: substitute(substitute(e, "x", Const(x)), "y", Const(y)),
    EXPRS,
    COORDS,
    COORDS,
)
AT_POINT = pt(XYT, 0.3, -0.4, 0.7)
OVER_BATCH = PointBatch(XYT, [(0.3, -0.4, 0.7), (1.5, 2.0, -3.0)])
# each order's DomainError text (None: the order evaluates) of constants
# whose jets fail: they stay lazy leaves and fail where they always did
FAILING_CONSTANTS = {
    "1/0": ["division by zero in '1/0'"] * 4,
    "exp(800)": ["value 800.0 leaves the float range in 'exp(800)'"] * 4,
    "1/1e-300": [None] + ["reciprocal of 1e-300 leaves the float range in '1/1e-300'"] * 3,
    "0^0.5": ["non-integer power needs a positive base in '0^0.5'"] * 4,
}


def outcome(fn):
    try:
        return fn()
    except EwbenchError as err:
        return err


class TestConstantExpressions:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(e=CONSTANT_EXPRS)
    # finite values whose derivative parts are NaN (inf times a zero part)
    @example(e=parse("1/(1e200*1e200*2)", XYT))
    @example(e=parse("tanh(1e200*1e200*2)", XYT))
    def test_a_constant_folds_to_the_jets_it_evaluates_to(self, e):
        f = to_field(e)
        with np.errstate(all="ignore"):
            top = outcome(lambda: eval_jet(e, AT_POINT, MAX_ORDER))
            finite = not isinstance(top, EwbenchError) and all(
                np.isfinite(p).all() for p in top.parts
            )
            assert (f.number is not None) == finite
            for q in (AT_POINT, OVER_BATCH):
                for order in range(MAX_ORDER + 1):
                    want = outcome(lambda: eval_jet(e, q, order))
                    got = outcome(lambda: f(q, order))
                    if isinstance(want, EwbenchError):
                        assert type(got) is type(want) and str(got) == str(want)
                        continue
                    assert got.order == order
                    # the value bit for bit; derivative parts up to the sign of 0
                    assert np.asarray(got.value).tobytes() == np.asarray(want.value).tobytes()
                    for a, b in zip(got.parts[1:], want.parts[1:]):
                        assert np.array_equal(*np.broadcast_arrays(a, b), equal_nan=True)

    @pytest.mark.parametrize("src", ["2", "-1/4", "2^0.5", "1e308", "sin(1)*exp(-2)"])
    def test_finite_constants_are_constant_fields(self, src):
        e = parse(src, XYT)
        assert to_field(e).number == eval_jet(e, AT_POINT).value

    @pytest.mark.parametrize("src,errors", FAILING_CONSTANTS.items(), ids=list(FAILING_CONSTANTS))
    def test_failing_constants_stay_lazy(self, src, errors):
        f = to_field(parse(src, XYT))
        assert f.number is None
        for q in (AT_POINT, OVER_BATCH):
            for order, message in enumerate(errors):
                if message is None:
                    assert f(q, order).value == eval_jet(parse(src, XYT), q, order).value
                    continue
                with pytest.raises(DomainError) as err:
                    f(q, order)
                assert str(err.value) == message

    def test_an_expression_in_the_coordinates_stays_lazy(self):
        assert to_field(parse("x+2", XYT)).number is None


# --- grammar fuzzer -------------------------------------------------------

_FNS = ("sin", "cos", "exp", "tanh", "sinh")


def _gen(rng, depth):
    """Random source text that stays finite and smooth near [0.4, 1.2]^3."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return rng.choice(["x", "y", "t"])
        return format(rng.uniform(0.3, 2.5), ".2f")
    kind = rng.integers(0, 7)
    if kind == 0:
        return f"({_gen(rng, depth - 1)}+{_gen(rng, depth - 1)})"
    if kind == 1:
        return f"({_gen(rng, depth - 1)}-{_gen(rng, depth - 1)})"
    if kind == 2:
        return f"({_gen(rng, depth - 1)}*{_gen(rng, depth - 1)})"
    if kind == 3:
        return f"({_gen(rng, depth - 1)}/({_gen(rng, depth - 1)}^2+0.7))"
    if kind == 4:
        return f"{rng.choice(_FNS)}({_gen(rng, depth - 1)})"
    if kind == 5:
        return f"ln({_gen(rng, depth - 1)}^2+0.6)"
    return f"({_gen(rng, depth - 1)})^{rng.integers(2, 4)}"


def _central_diff(e, coords, i, h=1e-5):
    up = list(coords)
    dn = list(coords)
    up[i] += h
    dn[i] -= h
    fu = eval_jet(e, pt(XYT, *up), 0).value
    fd = eval_jet(e, pt(XYT, *dn), 0).value
    return (fu - fd) / (2.0 * h)


def test_fuzzed_first_partials_match_finite_differences():
    rng = np.random.default_rng(777)
    checked = 0
    while checked < 200:
        src = _gen(rng, 3)
        coords = rng.uniform(0.4, 1.2, size=3)
        e = parse(src, XYT)
        j = eval_jet(e, pt(XYT, *coords), 1)
        if abs(j.value) > 1e3 or np.abs(j.grad).max() > 1e4:
            continue
        for i in range(3):
            fd = _central_diff(e, coords, i)
            scale = max(1.0, abs(fd))
            assert abs(j.grad[i] - fd) <= 1e-6 * scale, (src, i)
        # printing round-trips on fuzzed sources too
        assert parse(to_source(e), XYT) == e
        checked += 1
