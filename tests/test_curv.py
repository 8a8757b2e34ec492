import math

import numpy as np
import pytest

from ewbench import (
    LiftConfig,
    MetricField,
    christoffel,
    em_residual,
    f_squared,
    from_H,
    heisenberg,
    kretschmann,
    maxwell_residual,
    parse_field,
    psi_const,
    ricci,
    riemann,
    weyl_ricci_residual,
)
from ewbench.curv import metric_pass
from ewbench.errors import SingularMetricError
from ewbench.families import class_b, default_domain
from ewbench.forms import coordinate_form, zero_form
from ewbench.jets import ChartPoint, PointBatch, fd_oracle, sample
from ewbench.lift import ALPHA_WINDOW, build, fix_ell_sign

from conftest import XYT, box_points, pt
from oracle import from_value_matrix

ZXYT = ("z", "x", "y", "t")
MINK4 = ("x", "y", "z", "t")


def minkowski():
    return from_value_matrix(MINK4, np.diag([1.0, 1.0, 1.0, -1.0]))


def poincare(ell):
    """g = (ell^2/z^2)(dz^2 + dx^2 + dy^2 - dt^2) on the z > 0 patch."""
    conf = parse_field("1/z^2", ZXYT) * (ell * ell)
    return MetricField(
        ZXYT, {(0, 0): conf, (1, 1): conf, (2, 2): conf, (3, 3): -1.0 * conf}
    )


def lifted_heisenberg(c=0.0, ell=1.0):
    base = heisenberg(ell)
    ell_fixed, _ = fix_ell_sign(base, ell)
    cfg = LiftConfig(base, psi_const(base, c), ell_fixed)
    return build(cfg)


def fibre_points(spacetime, n, seed):
    rng = np.random.default_rng(seed)
    chart = spacetime.chart
    rows = rng.uniform(-1.0, 1.0, size=(n, len(chart)))
    return [pt(chart, *row) for row in rows]


# --- Christoffel symbols ------------------------------------------------------


class TestChristoffel:
    def test_minkowski_vanishes(self):
        q = pt(MINK4, 0.1, 0.2, 0.3, 0.4)
        assert np.abs(christoffel(minkowski(), q)).max() == 0.0

    def test_poincare_radial_component(self):
        g = poincare(2.0)
        for z in (0.5, 1.0, 2.0):
            q = pt(ZXYT, z, 0.3, -0.4, 0.9)
            gamma = christoffel(g, q)
            assert gamma[0, 0, 0] == pytest.approx(-1.0 / z, rel=1e-10)

    def test_lower_index_symmetry(self):
        s = lifted_heisenberg(c=0.5)
        for q in fibre_points(s, 5, 21):
            gamma = christoffel(s.g, q)
            assert np.abs(gamma - np.swapaxes(gamma, 1, 2)).max() <= 1e-10


# --- Ricci and Kretschmann -----------------------------------------------------


class TestRicci:
    def test_minkowski_vanishes(self):
        q = pt(MINK4, 0.0, 0.0, 0.0, 0.0)
        assert np.abs(ricci(minkowski(), q)).max() == 0.0

    @pytest.mark.parametrize("ell", [1.0, 2.0])
    def test_poincare_einstein_condition(self, ell):
        g = poincare(ell)
        rng = np.random.default_rng(31)
        for _ in range(10):
            z = float(rng.uniform(0.4, 2.0))
            q = pt(ZXYT, z, *rng.uniform(-1, 1, size=3))
            res = ricci(g, q) + (3.0 / ell**2) * g.matrix_at(q)
            assert np.abs(res).max() <= 1e-7

    def test_jet_fd_agreement_poincare(self):
        g = poincare(1.0)
        q = pt(ZXYT, 0.8, 0.1, -0.2, 0.5)
        a = ricci(g, q, method="jet")
        b = ricci(g, q, method="fd")
        scale = max(1.0, float(np.abs(a).max()))
        assert np.abs(a - b).max() / scale <= 1e-5

    def test_symmetry_on_catalog(self):
        cases = [
            (poincare(1.5), pt(ZXYT, 0.7, 0.2, -0.3, 0.4)),
            (lifted_heisenberg(c=0.5).g, pt(("p",) + XYT, 0.3, 0.1, -0.2, 0.6)),
        ]
        for g, q in cases:
            r = ricci(g, q)
            assert np.abs(r - r.T).max() <= 1e-9


class TestKretschmann:
    def test_minkowski_vanishes(self):
        assert kretschmann(minkowski(), pt(MINK4, 1.0, 2.0, 3.0, 4.0)) == 0.0

    @pytest.mark.parametrize("ell", [1.0, 3.0])
    def test_poincare_maximally_symmetric_value(self, ell):
        g = poincare(ell)
        for z in (0.5, 1.3):
            q = pt(ZXYT, z, 0.0, 0.2, -0.1)
            assert kretschmann(g, q) == pytest.approx(24.0 / ell**4, rel=1e-6)

    def test_jet_fd_agreement_on_lift(self):
        s = lifted_heisenberg(c=0.5)
        for q in fibre_points(s, 3, 33):
            ric, ric_fd = (ricci(s.g, q, method=m) for m in ("jet", "fd"))
            scale = max(1.0, float(np.abs(ric).max()))
            assert np.abs(ric - ric_fd).max() / scale <= 1e-4
            k, k_fd = (kretschmann(s.g, q, method=m) for m in ("jet", "fd"))
            kscale = max(1.0, abs(k))
            assert abs(k - k_fd) / kscale <= 1e-4


def six_operand_kretschmann(g, q):
    """R_abcd R^abcd as one einsum over six operands, the reference for the
    pairwise contraction, and the same sum over the absolute values of its
    terms, the scale of its rounding error."""
    r_low = np.einsum("...ae,...ebcd->...abcd", g.matrix_at(q), riemann(g, q))
    ginv = metric_pass(g, q).inverse()
    spec = "...abcd,...ae,...bf,...cg,...dh,...efgh->..."
    value = np.einsum(spec, r_low, ginv, ginv, ginv, ginv, r_low)
    r_abs, ginv_abs = np.abs(r_low), np.abs(ginv)
    size = np.einsum(spec, r_abs, ginv_abs, ginv_abs, ginv_abs, ginv_abs, r_abs)
    return value, size


class TestKretschmannContraction:
    @pytest.mark.parametrize("chart", ["p", "alpha"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pairwise_matches_the_six_operand_einsum(self, chart, seed):
        base = heisenberg(1.0)
        cfg = LiftConfig(base, psi_const(base, 0.5), -1.0, chart=chart)
        data = build(cfg)
        rng = np.random.default_rng(seed)
        rows = rng.uniform(-1.0, 1.0, size=(40, 4))
        if chart == "alpha":
            rows[:, 0] = rng.uniform(*ALPHA_WINDOW, size=40)
        q = PointBatch(data.chart, rows)
        want, size = six_operand_kretschmann(data.g, q)
        got = kretschmann(data.g, q)
        assert got.shape == (40,)
        assert np.all(np.abs(got - want) <= 1e-12 * size)
        singles = [kretschmann(data.g, ChartPoint(data.chart, tuple(r))) for r in rows.tolist()]
        assert got.tolist() == singles


class TestRiemann:
    def test_first_bianchi(self):
        s = lifted_heisenberg(c=0.5)
        q = pt(("p",) + XYT, 0.4, 0.2, -0.1, 0.3)
        r = riemann(s.g, q)
        cyc = r + np.einsum("acdb->abcd", r) + np.einsum("adbc->abcd", r)
        assert np.abs(cyc).max() <= 1e-9


# --- Maxwell ------------------------------------------------------------------


def curved_metric():
    """A curved, non-diagonal Lorentzian metric on MINK4."""
    f = lambda src: parse_field(src, MINK4)
    return MetricField(
        MINK4,
        {
            (0, 0): f("2+sin(y)"),
            (0, 3): f("0.3*x*z"),
            (1, 1): f("1+x^2"),
            (1, 2): f("0.2*t"),
            (2, 2): 1.0,
            (3, 3): f("-1-0.1*y^2"),
        },
    )


def non_solution_potential():
    """A = x^2 sin(t) dy + (yz + e^(0.2x)) dt, with d star dA != 0."""
    return coordinate_form(MINK4, "y").scale(parse_field("x^2*sin(t)", MINK4)) + (
        coordinate_form(MINK4, "t").scale(parse_field("y*z+exp(0.2*x)", MINK4))
    )


def maxwell_by_values(A, g, q, h=2e-3):
    """(eps_abcd J^d) for abc = 012, 013, 023, 123, J^d = d_e(sqrt|g| F^ed),
    from values only: F_ab = d_a A_b - d_b A_a by ``fd_oracle``, g from
    ``matrix_at``, and d_e by a 4th-order central stencil of step h."""

    def density(r):
        # da[a, b] = d_a A_b
        da = np.array([[fd_oracle(A.comp((b,)), r, (a,)) for b in range(4)] for a in range(4)])
        fm = da - da.T
        gm = g.matrix_at(r)
        ginv = np.linalg.inv(gm)
        return np.sqrt(abs(np.linalg.det(gm))) * ginv @ fm @ ginv

    j_up = np.zeros(4)
    for e in range(4):
        x = q.coords[e]
        w = [density(q.with_coord(e, x + k * h)) for k in (-2, -1, 1, 2)]
        j_up += ((w[0] - 8.0 * w[1] + 8.0 * w[2] - w[3]) / (12.0 * h))[e]
    return np.array([j_up[3], -j_up[2], j_up[1], -j_up[0]])


class TestMaxwell:
    def test_constant_field_strength(self):
        A = coordinate_form(MINK4, "y").scale(parse_field("x", MINK4))
        q = pt(MINK4, 0.3, 0.1, -0.2, 0.9)
        assert np.abs(maxwell_residual(A, minkowski(), q)).max() <= 1e-13

    def test_quadratic_potential_fails(self):
        A = coordinate_form(MINK4, "y").scale(parse_field("x^2", MINK4))
        q = pt(MINK4, 0.3, 0.1, -0.2, 0.9)
        assert np.abs(maxwell_residual(A, minkowski(), q)).max() == pytest.approx(2.0)

    def test_f_squared_constant_plane(self):
        A = coordinate_form(MINK4, "y").scale(parse_field("x", MINK4))
        q = pt(MINK4, 0.0, 0.0, 0.0, 0.0)
        # F = dx^dy, |F|^2 = F_ab F^ab = 2 for a unit spatial plane
        assert f_squared(A, minkowski(), q) == pytest.approx(2.0)

    def test_agrees_with_a_values_only_oracle(self, rng):
        A, g = non_solution_potential(), curved_metric()
        for _ in range(4):
            q = pt(MINK4, *rng.uniform(-0.8, 0.8, size=4))
            want = maxwell_by_values(A, g, q)
            got = maxwell_residual(A, g, q)
            assert np.abs(want).max() > 0.1
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    def test_conformal_invariance(self, rng):
        A, g = non_solution_potential(), curved_metric()
        scaled = g.scale(parse_field("exp(0.3*x)+1", MINK4))
        rows = rng.uniform(-0.8, 0.8, size=(6, 4))
        q = PointBatch(MINK4, rows)
        a, b = maxwell_residual(A, g, q), maxwell_residual(A, scaled, q)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()

    @pytest.mark.parametrize(
        "check",
        [maxwell_residual, f_squared, lambda A, g, q: ricci(g, q)],
        ids=["maxwell", "f_squared", "ricci"],
    )
    def test_singular_metric_names_its_point(self, check):
        g = from_value_matrix(MINK4, np.diag([1.0, 1.0, 1.0, 0.0]))
        A = coordinate_form(MINK4, "y").scale(parse_field("x", MINK4))
        with pytest.raises(SingularMetricError) as err:
            check(A, g, pt(MINK4, 0.0, 0.0, 0.0, 0.0))
        assert str(err.value) == "|det g| = 0.000e+00 at (0.0, 0.0, 0.0, 0.0)"


# --- Einstein-Maxwell residual ---------------------------------------------------


class TestEmResidual:
    def test_poincare_pure_cosmological(self):
        ell = 1.0
        g = poincare(ell)
        A = zero_form(ZXYT, 1)
        rng = np.random.default_rng(35)
        for _ in range(5):
            q = pt(ZXYT, float(rng.uniform(0.4, 2.0)), *rng.uniform(-1, 1, size=3))
            assert np.abs(em_residual(g, A, ell, q)).max() <= 1e-7

    def test_any_real_ell_gives_the_float_residual(self):
        g, A = poincare(1.0), zero_form(ZXYT, 1)
        q = pt(ZXYT, 0.7, 0.1, -0.2, 0.3)
        want = em_residual(g, A, 1.0, q)
        for ell in (1, np.float64(1.0)):
            assert em_residual(g, A, ell, q).tolist() == want.tolist()

    def test_minkowski_without_cosmological_term(self):
        g = minkowski()
        A = zero_form(MINK4, 1)
        q = pt(MINK4, 0.1, 0.2, 0.3, 0.4)
        assert np.abs(em_residual(g, A, math.inf, q)).max() == 0.0

    def test_lifted_solution_smoke(self):
        s = lifted_heisenberg(c=0.5)
        for q in fibre_points(s, 3, 37):
            assert np.abs(em_residual(s.g, s.potential, s.ell, q)).max() <= 1e-6
            assert np.abs(maxwell_residual(s.potential, s.g, q)).max() <= 1e-6


# --- Einstein-Weyl condition via the Weyl connection ------------------------------


class TestWeylRicci:
    def test_compatibility_identity(self):
        s = heisenberg(1.0)
        for q in box_points(XYT, -1.0, 1.0, 10, 41):
            compat, _ = weyl_ricci_residual(s, q)
            assert compat <= 1e-10

    def test_heisenberg_einstein_weyl(self):
        s = heisenberg(1.0)
        for q in box_points(XYT, -1.0, 1.0, 30, 42):
            _, ew = weyl_ricci_residual(s, q)
            assert ew <= 1e-7

    def test_class_b_einstein_weyl(self):
        s = class_b("1+p^2")
        for q in sample(default_domain("class_b", F="1+p^2", count=20)):
            _, ew = weyl_ricci_residual(s, q)
            assert ew <= 1e-7

    def test_non_solution_flagged(self):
        s = from_H(parse_field("x*y", XYT))
        q = pt(XYT, 0.8, 1.5, -0.4)
        _, ew = weyl_ricci_residual(s, q)
        assert ew > 1e-3

    def test_fd_method_agrees(self):
        s = heisenberg(1.0)
        q = pt(XYT, 0.4, -0.3, 0.7)
        _, ew_jet = weyl_ricci_residual(s, q, method="jet")
        _, ew_fd = weyl_ricci_residual(s, q, method="fd")
        assert abs(ew_jet - ew_fd) <= 1e-5
