from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewbench import (
    Coframe3,
    PForm,
    heisenberg,
    metric_from_coframe,
    parse_field,
)
from ewbench.curv import inverse
from ewbench.errors import JetOrderError, SingularFrameError
from ewbench.ew import PAIRS, EWStructure, gauge_transform, gt_residual, monopole_residual, stars
from ewbench.families import CASES, class_b, psi_const
from ewbench.families import build as build_case
from ewbench.forms import (
    MetricField,
    coordinate_form,
    embed_form,
    embed_metric,
    exterior_d,
    symmetric_product,
    zero_form,
)
from ewbench.jets import MAX_ORDER, Field, PointBatch, evaluation_scope, pack_jets, sample
from ewbench.lift import LIMIT_ROWS, LiftConfig, assemble, fibre_chart, fibre_points

from conftest import XYT, PYT, box_points, pt
from oracle import (
    comp,
    coord,
    ext_d,
    frame_expand,
    from_value_matrix,
    hodge3,
    max_abs_at,
    scalar_form,
    signature_at,
    star_frame,
    values_at,
    wedge,
)


def d(chart, name):
    return coordinate_form(chart, name)


def flat_frame(chart=XYT):
    return Coframe3(d(chart, chart[0]), d(chart, chart[1]), d(chart, chart[2]))


# --- wedge -----------------------------------------------------------------


class TestWedge:
    def test_dy_wedge_dy_vanishes(self):
        dy = d(XYT, "y")
        w = wedge(dy, dy)
        q = pt(XYT, 0.3, 0.7, -0.2)
        assert max_abs_at(w, q) == 0.0

    @pytest.mark.parametrize("values", [(0.0, np.nan), (np.nan, 0.0)])
    def test_max_abs_at_keeps_nan_in_any_component(self, values):
        w = PForm(XYT, 1, {(0,): values[0], (1,): values[1]})
        assert np.isnan(max_abs_at(w, pt(XYT, 0.3, 0.7, -0.2)))

    def test_heisenberg_frame_wedge_components(self):
        s = heisenberg(1.0)
        w = wedge(s.frame.e1, s.frame.e2)
        q = pt(XYT, 1.0, 0.0, 0.0)
        vals = {key: f(q, 0).value for key, f in w.comps.items()}
        assert vals[(0, 1)] == pytest.approx(1.0)
        assert vals[(0, 2)] == pytest.approx(-4.0)
        assert vals[(1, 2)] == pytest.approx(16.0)

    def test_one_forms_anticommute(self, rng):
        for _ in range(10):
            ca = rng.uniform(-2, 2, size=3)
            cb = rng.uniform(-2, 2, size=3)
            a = sum(
                (d(XYT, n).scale(float(c)) for n, c in zip(XYT, ca)),
                zero_form(XYT, 1),
            )
            b = sum(
                (d(XYT, n).scale(float(c)) for n, c in zip(XYT, cb)),
                zero_form(XYT, 1),
            )
            total = wedge(a, b) + wedge(b, a)
            q = pt(XYT, *rng.uniform(-1, 1, size=3))
            assert max_abs_at(total, q) <= 1e-12

    def test_two_form_commutes_with_one_form(self):
        chart = ("a", "b", "c", "e")
        one = d(chart, "a") + d(chart, "c").scale(2.0)
        two = wedge(d(chart, "b"), d(chart, "e"))
        q = pt(chart, 0.1, 0.2, 0.3, 0.4)
        lhs = wedge(two, one)
        rhs = wedge(one, two)
        diff = lhs - rhs
        assert max_abs_at(diff, q) <= 1e-15

    def test_associativity_on_fields(self, rng):
        fx = parse_field("sin(x)+t", XYT)
        fy = parse_field("x*y", XYT)
        a = d(XYT, "x").scale(fx) + d(XYT, "y")
        b = d(XYT, "y").scale(fy) + d(XYT, "t")
        c = d(XYT, "x") + d(XYT, "t").scale(2.0)
        lhs = wedge(wedge(a, b), c)
        rhs = wedge(a, wedge(b, c))
        for _ in range(5):
            q = pt(XYT, *rng.uniform(-1, 1, size=3))
            assert max_abs_at(lhs - rhs, q) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        ca=st.tuples(*[st.floats(-3, 3) for _ in range(3)]),
        cb=st.tuples(*[st.floats(-3, 3) for _ in range(3)]),
    )
    def test_antisymmetry_property(self, ca, cb):
        a = sum(
            (d(XYT, n).scale(float(c)) for n, c in zip(XYT, ca)),
            zero_form(XYT, 1),
        )
        b = sum(
            (d(XYT, n).scale(float(c)) for n, c in zip(XYT, cb)),
            zero_form(XYT, 1),
        )
        q = pt(XYT, 0.4, -0.8, 1.1)
        assert max_abs_at(wedge(a, b) + wedge(b, a), q) <= 1e-9


# --- exterior derivative ----------------------------------------------------


class TestExtD:
    DD_SOURCES = ("x*y*t", "sin(x)*exp(t)", "y^2-2*t", "tanh(x)+y^3")

    @pytest.mark.parametrize("src", DD_SOURCES)
    def test_dd_zero_on_functions(self, src):
        f = scalar_form(XYT, parse_field(src, XYT))
        dd = ext_d(ext_d(f))
        for q in box_points(XYT, -1.0, 1.0, 25, 5):
            assert max_abs_at(dd, q) <= 1e-9

    def test_dd_zero_on_one_forms(self, rng):
        a = d(XYT, "x").scale(parse_field("x*y", XYT)) + d(XYT, "t").scale(
            parse_field("sin(y)", XYT)
        )
        dd = ext_d(ext_d(a))
        for q in box_points(XYT, -1.0, 1.0, 25, 6):
            assert max_abs_at(dd, q) <= 1e-9

    def test_heisenberg_omega_derivative(self):
        s = heisenberg(1.0)
        dw = ext_d(s.omega)
        q = pt(XYT, 0.4, -0.2, 0.9)
        vals = {key: f(q, 0).value for key, f in dw.comps.items()}
        assert vals.get((0, 2), 0.0) == pytest.approx(16.0)
        assert vals.get((0, 1), 0.0) == pytest.approx(0.0)
        assert vals.get((1, 2), 0.0) == pytest.approx(0.0)

    def test_frame_leg_derivative(self):
        s = heisenberg(1.0)
        de2 = ext_d(s.frame.e2)
        q = pt(XYT, 0.4, -0.2, 0.9)
        assert comp(de2, (0, 2))(q, 0).value == pytest.approx(-4.0)


# --- the exterior derivative on packed jets -----------------------------------


def _packed_f(A, pt, order):
    """F = dA through ``order`` by ``forms.exterior_d``, from A packed
    through ``order + 1``."""
    n = len(A.chart)
    with evaluation_scope():
        return exterior_d(pack_jets(pt, [A.comps.get((a,)) for a in range(n)], order + 1, (n,)))


def _oracle_f(A, pt, order):
    """F = dA through ``order`` by the oracle's ``ext_d``: its upper
    components packed, minus their transpose."""
    F = ext_d(A)
    n = len(A.chart)
    upper = [F.comps.get((a, b)) if a < b else None for a in range(n) for b in range(n)]
    with evaluation_scope():
        return [p - np.swapaxes(p, -1, -2) for p in pack_jets(pt, upper, order, (n, n))]


def _bits(parts):
    """The shapes and bytes of packed parts, with -0.0 read as +0.0."""
    return [(p.shape, (p + 0.0).tobytes()) for p in parts]


def _limit_omega(case, ells):
    """The embedded omega of the ``limit`` family of ``case`` built at the
    array of the ells, each repeated once per row of LIMIT_ROWS, and the
    batch of LIMIT_ROWS tiled once per ell."""
    row = CASES[case]
    chart4 = fibre_chart("p", row.chart)
    batch = PointBatch(chart4, np.tile(LIMIT_ROWS, (len(ells), 1)))
    base, _ = row.limit(np.repeat(ells, len(LIMIT_ROWS)))
    return embed_form(base.omega, chart4), batch


def _limit_omega_at(case, ell, q):
    """The embedded omega of the ``limit`` family of ``case`` built at the
    number ``ell``, on the chart of the point ``q``."""
    base, _ = CASES[case].limit(ell)
    return embed_form(base.omega, q.chart)


class TestPackedExteriorD:
    """``forms.exterior_d`` of A packed one order up is the oracle's ext_d
    of A packed, bit for bit up to the sign of a zero."""

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("c", [0.0, 0.5])
    @pytest.mark.parametrize("chart", ["p", "alpha"])
    @pytest.mark.parametrize("case, params, ell", [
        ("heisenberg", {}, -1.0), ("class_b", {"F": "1"}, 4.0),
    ], ids=["heisenberg", "class_b"])
    def test_a_lift_potential(self, case, params, ell, chart, c, order):
        base, dom = build_case(case, params, count=4)
        data = assemble(LiftConfig(base, psi_const(base, c), ell, chart=chart), chart)
        pts = fibre_points(data, 3, sample(dom))
        A = data.potential
        assert _bits(_packed_f(A, pts, order)) == _bits(_oracle_f(A, pts, order))
        for q in pts:
            assert _bits(_packed_f(A, q, order)) == _bits(_oracle_f(A, q, order))

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("case", ["heisenberg", "class_b"])
    def test_the_embedded_omega_of_a_limit_family_at_an_array(self, case, order):
        ells = [1e6, -3.0, 250.0]
        om4, batch = _limit_omega(case, ells)
        got = _packed_f(om4, batch, order)
        assert _bits(got) == _bits(_oracle_f(om4, batch, order))
        assert np.any(got[0])
        for i, (q, ell) in enumerate(zip(batch, np.repeat(ells, len(LIMIT_ROWS)))):
            alone = _limit_omega_at(case, float(ell), q)
            want = _bits(_packed_f(alone, q, order))
            assert want == _bits(_oracle_f(alone, q, order)) == _bits([p[i] for p in got])

    @pytest.mark.parametrize("order", [0, 1])
    def test_the_diagonal_is_plus_zero_where_a_derivative_overflows(self, order):
        xy = ("x", "y")
        x = Field.coordinate("x")
        A = PForm(xy, 1, {(0,): 1e300 * x * x, (1,): x})
        for q in (pt(xy, 1e10, 1.0), PointBatch(xy, [[1e10, 1.0], [1.0, 2.0]])):
            with np.errstate(all="ignore"):
                F = _packed_f(A, q, order)[order]
            diag = F[..., [0, 1], [0, 1]]
            assert diag.tobytes() == np.zeros(diag.shape).tobytes()

    @pytest.mark.parametrize("case, params, src", [
        ("heisenberg", {}, "x*y"), ("class_b", {"F": "1+p^2"}, "sin(p*t)"),
    ])
    def test_a_gauge_transform_adds_twice_the_gradient(self, case, params, src):
        s, dom = build_case(case, params, count=5)
        f = parse_field(src, s.chart)
        pts = sample(dom)
        want = s.omega + ext_d(scalar_form(s.chart, f)).scale(2.0)
        got = gauge_transform(s, f).omega
        packed = []
        for form in (got, want):
            with evaluation_scope():
                comps = [form.comps.get((a,)) for a in range(3)]
                packed.append([p.tobytes() for p in pack_jets(pts, comps, 1, (3,))])
        assert packed[0] == packed[1]


# --- frame expansion and the 3D star ----------------------------------------


class TestFrameExpand:
    def test_leg_in_own_frame(self):
        s = heisenberg(1.0)
        q = pt(XYT, 0.7, 0.1, -0.4)
        np.testing.assert_allclose(
            frame_expand(s.frame.e2, s.frame, q), [0.0, 1.0, 0.0], atol=1e-12
        )

    def test_heisenberg_omega_coefficients(self):
        ell = 1.0
        s = heisenberg(ell)
        q = pt(XYT, 0.7, 0.1, -0.4)
        u = 4.0 / ell * coord(q, "x")
        got = frame_expand(s.omega, s.frame, q)
        np.testing.assert_allclose(
            got, [0.0, 4.0 / ell, 8.0 / ell * u], atol=1e-12
        )

    def test_reassembly(self):
        s = heisenberg(1.0)
        q = pt(XYT, 0.7, 0.1, -0.4)
        c = frame_expand(s.omega, s.frame, q)
        legs = (s.frame.e1, s.frame.e2, s.frame.e3)
        back = np.zeros(3)
        for ci, leg in zip(c, legs):
            back += ci * np.array([comp(leg, (j,))(q, 0).value for j in range(3)])
        want = np.array([comp(s.omega, (j,))(q, 0).value for j in range(3)])
        np.testing.assert_allclose(back, want, atol=1e-12)

    def test_singular_frame_rejected(self):
        dx = d(XYT, "x")
        frame = Coframe3(dx, dx, d(XYT, "t"))
        q = pt(XYT, 0.1, 0.2, 0.3)
        with pytest.raises(SingularFrameError):
            frame_expand(wedge(dx, d(XYT, "y")), frame, q)

    def test_a_zero_pivot_of_the_solve_is_a_singular_frame(self):
        # this coframe has determinant 1, but the LU factors that solve for
        # its coefficients meet a pivot that underflows to 0
        s = heisenberg(1e-300)
        with pytest.raises(SingularFrameError, match=r"determinant 0\.000e\+00 below"):
            frame_expand(s.omega, s.frame, pt(XYT, 0.25, 0.79, 0.55))

    def test_rows_of_a_basis_that_is_not_finite_are_nan(self):
        # e3 = 1e300 x^2 dt overflows at the second row only
        big = parse_field("1e300*x*x", XYT)
        frame = Coframe3(d(XYT, "x"), d(XYT, "y"), d(XYT, "t").scale(big))
        a = d(XYT, "y") + d(XYT, "t")
        rows = [(0.5, 0.1, 0.2), (1e10, 0.1, 0.2)]
        with np.errstate(all="ignore"):
            got = frame_expand(a, frame, PointBatch(XYT, rows))
            first = frame_expand(a, frame, pt(XYT, *rows[0]))
        assert got[0].tolist() == first.tolist()
        assert np.isnan(got[1]).all()


class TestHodge3:
    def test_role_of_each_leg(self, rng):
        s = heisenberg(1.3)
        for i, leg in enumerate((s.frame.e1, s.frame.e2, s.frame.e3), start=1):
            starred = hodge3(leg, s.frame)
            want = star_frame(s.frame, i)
            for _ in range(4):
                q = pt(XYT, *rng.uniform(-1, 1, size=3))
                assert max_abs_at(starred - want, q) <= 1e-12

    def test_linearity_constant_coefficients(self):
        s = heisenberg(1.0)
        a = s.frame.e1.scale(2.0) + s.frame.e3.scale(3.0)
        want = star_frame(s.frame, 1).scale(2.0) + star_frame(s.frame, 3).scale(3.0)
        q = pt(XYT, 0.5, -0.5, 0.2)
        assert max_abs_at(hodge3(a, s.frame) - want, q) <= 1e-12

    def test_linearity_field_coefficients(self, rng):
        s = heisenberg(1.0)
        f = parse_field("sin(x)+2", XYT)
        a = s.frame.e2.scale(f)
        want = star_frame(s.frame, 2).scale(f)
        for _ in range(5):
            q = pt(XYT, *rng.uniform(-1, 1, size=3))
            assert max_abs_at(hodge3(a, s.frame) - want, q) <= 1e-12

    def test_degree_restriction(self):
        s = heisenberg(1.0)
        two = wedge(s.frame.e1, s.frame.e2)
        with pytest.raises(ValueError):
            hodge3(two, s.frame)

    def test_values_only(self):
        s = heisenberg(1.0)
        q = pt(XYT, 0.5, -0.5, 0.2)
        for f in hodge3(s.omega, s.frame).comps.values():
            assert np.isfinite(f(q, 0).value)
            with pytest.raises(JetOrderError, match="hodge3"):
                f(q, 1)

    def test_singular_frame_at_one_row_of_a_batch(self):
        # e3 = x dt: the coframe determinant is x, below FRAME_DET_TOL at the
        # second and fourth rows; the error names the second row's
        frame = Coframe3(d(XYT, "x"), d(XYT, "y"), d(XYT, "t").scale(parse_field("x", XYT)))
        s = EWStructure(frame, d(XYT, "y"), parse_field("1", XYT))
        rows = [(0.5, 0.1, 0.2), (1e-13, 0.1, 0.2), (2.0, 0.3, 0.4), (1e-14, 0.0, 0.0)]
        batch = PointBatch(XYT, rows)
        residuals = (
            lambda: values_at(hodge3(d(XYT, "y"), frame), batch, PAIRS),
            lambda: monopole_residual(s, batch),
        )
        for residual in residuals:
            with pytest.raises(SingularFrameError, match=r"determinant 1\.000e-13 below"):
                residual()


# --- metrics -----------------------------------------------------------------


class TestFormChecks:
    @pytest.mark.parametrize(
        "degree, comps",
        [
            (1, {(0, 1): 1.0}),
            (1, {(3,): 1.0}),
            (2, {(1, 0): 1.0}),
            (2, {(1, 1): 1.0}),
        ],
        ids=["wrong-degree", "outside-chart", "decreasing", "repeated"],
    )
    def test_public_constructor_checks_every_index(self, degree, comps):
        with pytest.raises(ValueError):
            PForm(XYT, degree, comps)

    def test_algebra_builds_forms_the_checks_accept(self):
        a = d(XYT, "x").scale(parse_field("y*t", XYT)) + d(XYT, "t")
        b = d(XYT, "y").scale(parse_field("x^2", XYT)) - d(XYT, "x")
        c = comp(a, (0,))
        for form in (a + b, -a, a.scale(2.0), wedge(a, b), ext_d(a), ext_d(b.scale(c))):
            again = PForm(form.chart, form.degree, form.comps)
            assert again.comps == form.comps
            assert (again.chart, again.degree) == (form.chart, form.degree)
            assert type(form.degree) is int and type(form.chart) is tuple


class TestComponentAlgebra:
    """The refusals and result classes of the sums and scalings that forms
    and metrics share."""

    def test_a_form_and_a_metric_do_not_add(self):
        form, metric = d(XYT, "x"), symmetric_product(d(XYT, "x"), d(XYT, "y"))
        for left, right in ((form, metric), (metric, form)):
            with pytest.raises(TypeError):
                left + right

    def test_forms_on_two_charts_or_of_two_degrees_do_not_add(self):
        with pytest.raises(ValueError, match="^chart mismatch in form arithmetic$"):
            d(XYT, "x") + d(("x", "y"), "x")
        with pytest.raises(ValueError, match="^degree mismatch in form arithmetic$"):
            d(XYT, "x") + zero_form(XYT, 2)

    def test_metrics_on_two_charts_do_not_add(self):
        g = symmetric_product(d(XYT, "x"), d(XYT, "x"))
        h = symmetric_product(d(("x", "y"), "x"), d(("x", "y"), "x"))
        with pytest.raises(ValueError, match="^chart mismatch in metric arithmetic$"):
            g + h

    def test_scale_and_sum_keep_the_class_and_degree(self):
        f = parse_field("y*t", XYT)
        for form in (d(XYT, "x"), zero_form(XYT, 2), zero_form(XYT, 0)):
            for out in (form.scale(f), form.scale(2.0), form + form):
                assert type(out) is PForm and out.degree == form.degree
        g = symmetric_product(d(XYT, "x"), d(XYT, "t"))
        for out in (g.scale(f), g.scale(-4.0), g + g):
            assert type(out) is MetricField and out.chart == g.chart


class TestMetricFromCoframe:
    def test_flat_case_matrix(self):
        h = metric_from_coframe(flat_frame())
        q = pt(XYT, 0.3, 0.4, 0.5)
        m = h.matrix_at(q)
        want = np.zeros((3, 3))
        want[1, 1] = 1.0
        want[0, 2] = want[2, 0] = -2.0
        np.testing.assert_allclose(m, want, atol=1e-15)

    def test_heisenberg_closed_form(self):
        ell = 1.0
        s = heisenberg(ell)
        h = metric_from_coframe(s.frame)
        for q in box_points(XYT, -1.0, 1.0, 20, 3):
            u = 4.0 / ell * coord(q, "x")
            want = np.zeros((3, 3))
            want[1, 1] = 1.0
            want[1, 2] = want[2, 1] = u
            want[2, 2] = u * u
            want[0, 2] = want[2, 0] = -2.0
            np.testing.assert_allclose(h.matrix_at(q), want, atol=1e-12)

    def test_signature_on_catalog(self):
        s = heisenberg(2.0)
        h = metric_from_coframe(s.frame)
        for q in box_points(XYT, -1.0, 1.0, 20, 4):
            assert signature_at(h, q) == (2, 1)


class TestSharedCoframeForms:
    def test_one_coframe_has_one_metric(self):
        frame = class_b("1+p^2").frame
        assert metric_from_coframe(frame) is metric_from_coframe(frame)

    def test_gt_then_monopole_evaluate_each_leg_once_and_no_star(self, monkeypatch):
        """The stars are products of the packed coframe values: no field of
        the form-valued stars is evaluated, and their values are the
        oracle's, up to the sign of a zero."""
        s = class_b("1+p^2")
        forms = [star_frame(s.frame, i) for i in (1, 2, 3)]
        legs = {id(f): f for form in s.frame.legs for f in form.comps.values()}
        star_fields = {id(f): f for form in forms for f in form.comps.values()}
        calls = Counter()

        def counted(f):
            fn = f.fn
            return lambda q, order=0: calls.update([(id(f), order)]) or fn(q, order)

        for f in {**legs, **star_fields}.values():
            monkeypatch.setattr(f, "fn", counted(f))
        batch = PointBatch.of(box_points(PYT, 0.5, 2.0, 6, 5))
        with evaluation_scope():
            gt_residual(s, batch)
            monopole_residual(s, batch)
            got = stars(s, batch)
        assert {key for key, _ in calls} == set(legs)
        assert set(calls.values()) == {1}
        assert not set(star_fields) & set(legs)
        with evaluation_scope():
            want = np.stack([values_at(form, batch, PAIRS) for form in forms], axis=-2)
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()


class TestMetricField:
    def test_asymmetric_values_rejected(self):
        bad = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            from_value_matrix(("a", "b"), bad)

    def test_constant_metric_roundtrip(self):
        m = np.array([[2.0, 0.0], [0.0, -1.0]])
        g = from_value_matrix(("a", "b"), m)
        q = pt(("a", "b"), 0.0, 0.0)
        np.testing.assert_allclose(g.matrix_at(q), m)
        assert signature_at(g, q) == (1, 1)

    def test_inverse(self):
        s = heisenberg(1.0)
        h = metric_from_coframe(s.frame)
        q = pt(XYT, 0.4, 0.1, -0.3)
        gi = inverse(h, q)
        np.testing.assert_allclose(gi @ h.matrix_at(q), np.eye(3), atol=1e-12)

    def test_symmetric_product_cross_terms(self):
        a = d(XYT, "y")
        b = d(XYT, "t")
        g = symmetric_product(a, b)
        q = pt(XYT, 0.0, 0.0, 0.0)
        m = g.matrix_at(q)
        assert m[1, 2] == pytest.approx(0.5)
        assert m[2, 1] == pytest.approx(0.5)
        assert m[1, 1] == 0.0


class TestEmbedding:
    def test_embed_form_components_move(self):
        s = heisenberg(1.0)
        big = ("alpha",) + XYT
        om4 = embed_form(s.omega, big)
        q4 = pt(big, 0.7, 0.4, -0.2, 0.9)
        q3 = pt(XYT, 0.4, -0.2, 0.9)
        assert comp(om4, (2,))(q4, 0).value == pytest.approx(
            comp(s.omega, (1,))(q3, 0).value
        )
        assert (0,) not in om4.comps

    def test_embedded_fields_ignore_fibre(self):
        s = heisenberg(1.0)
        big = ("p",) + XYT
        h4 = embed_metric(metric_from_coframe(s.frame), big)
        qa = pt(big, -2.0, 0.4, -0.2, 0.9)
        qb = pt(big, 3.0, 0.4, -0.2, 0.9)
        np.testing.assert_allclose(h4.matrix_at(qa), h4.matrix_at(qb))
        assert h4.matrix_at(qa)[0, 0] == 0.0


def _pullback_cases():
    """(3D field, base chart, 4D chart) for the pullback contract."""
    s = heisenberg(1.0)
    h = metric_from_coframe(s.frame)
    heis = list(s.omega.comps.values()) + list(h.comps.values())
    b = class_b("1+p^2")
    expr = [parse_field("exp(p)*y - t^2/p", PYT)] + list(b.omega.comps.values())
    return [(f, XYT, ("p",) + XYT) for f in heis] + [
        (f, PYT, ("q", "p", "y", "t")) for f in expr
    ]


class TestPullback:
    """A field evaluated at a point of an extended chart is its pullback:
    the same jet on the base coordinates, zero along the fibre."""

    BASE_ROWS = np.array([[0.6, -0.2, 0.9], [1.3, 0.4, -0.5], [0.8, 0.7, 0.3]])
    FIBRE = np.array([0.7, -1.1, 0.2])

    @pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
    @pytest.mark.parametrize("batched", (False, True), ids=("point", "batch"))
    def test_base_block_and_zero_fibre(self, order, batched):
        cases = _pullback_cases()
        checked = 0
        for f, small, big in cases:
            pos = tuple(big.index(name) for name in small)
            rows4 = np.column_stack([self.FIBRE, self.BASE_ROWS])
            if batched:
                q3, q4 = PointBatch(small, self.BASE_ROWS), PointBatch(big, rows4)
            else:
                q3, q4 = pt(small, *self.BASE_ROWS[0]), pt(big, *rows4[0])
            try:
                j3 = f(q3, order)
            except JetOrderError:
                # heisenberg omega holds u_x, so it stops one below the
                # cap on either chart
                with pytest.raises(JetOrderError):
                    f(q4, order)
                continue
            checked += 1
            j4 = f(q4, order)
            assert j4.order == order
            np.testing.assert_array_equal(j4.value, j3.value)
            for k in range(1, order + 1):
                part = np.broadcast_to(j4.parts[k], q4.shape + (4,) * k)
                block = (Ellipsis,) + np.ix_(*(pos,) * k)
                np.testing.assert_array_equal(part[block], np.broadcast_to(
                    j3.parts[k], q3.shape + (3,) * k))
                fibre = part.copy()
                fibre[block] = 0.0
                assert not fibre.any()
        # all but heisenberg omega's two components reach the cap
        assert checked == len(cases) - (2 if order == MAX_ORDER else 0)

    def test_embedding_reuses_the_base_fields(self):
        s = heisenberg(1.0)
        big = ("p",) + XYT
        om4 = embed_form(s.omega, big)
        assert om4.comps == {(i + 1,): f for (i,), f in s.omega.comps.items()}
        h = metric_from_coframe(s.frame)
        h4 = embed_metric(h, big)
        assert h4.comps == {(a + 1, b + 1): f for (a, b), f in h.comps.items()}

    def test_embed_form_refuses_a_metric(self):
        h = metric_from_coframe(heisenberg(1.0).frame)
        for metric in (h, symmetric_product(d(XYT, "x"), d(XYT, "y"))):
            with pytest.raises(TypeError, match="embed_form needs a PForm, got MetricField"):
                embed_form(metric, ("p",) + XYT)

    def test_reordering_extension_keeps_the_orientation(self):
        big = ("y", "x", "t", "p")
        a = wedge(d(XYT, "x"), d(XYT, "y")) + wedge(d(XYT, "y"), d(XYT, "t")).scale(3.0)
        want = wedge(d(big, "x"), d(big, "y")) + wedge(d(big, "y"), d(big, "t")).scale(3.0)
        q = pt(big, 0.3, -0.4, 0.8, 1.1)
        assert max_abs_at(embed_form(a, big) - want, q) == 0.0
