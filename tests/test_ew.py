import dataclasses

import numpy as np
import pytest

from ewbench import (
    Field,
    from_H,
    from_uw,
    gauge_transform,
    gt_residual,
    heisenberg,
    hypercr_residual,
    monopole_residual,
    parse_field,
    psi_const,
    psi_residual,
)
from ewbench import jets
from ewbench.errors import ConfigError
from ewbench.families import default_domain
from ewbench.jets import sample
from ewbench.forms import Coframe3, coordinate_form, zero_form

from conftest import XYT, PYT, box_points, pt
from oracle import (
    Weighted,
    constraints_residual,
    ext_d,
    fundamental_H,
    hcr_residual,
    heisenberg_psi,
    max_abs_at,
    scalar_form,
    weighted_d,
)


def flat_structure():
    return from_uw(Field.const(0.0), Field.const(0.0))


# --- hydrodynamic pair -------------------------------------------------------


class TestHypercrResidual:
    def test_linear_shear_solves(self, rng):
        u = parse_field("4*x", XYT)
        w = Field.const(0.0)
        for _ in range(10):
            q = pt(XYT, *rng.uniform(-1, 1, size=3))
            r1, r2 = hypercr_residual(u, w, q)
            assert abs(r1) <= 1e-12 and abs(r2) <= 1e-12

    def test_zero_pair(self):
        q = pt(XYT, 0.2, 0.3, 0.4)
        assert hypercr_residual(Field.const(0.0), Field.const(0.0), q) == (0.0, 0.0)

    def test_rotation_pair_fails_first_equation(self):
        u = parse_field("y", XYT)
        w = parse_field("-x", XYT)
        q = pt(XYT, 5.0, 2.0, -3.0)
        r1, r2 = hypercr_residual(u, w, q)
        assert r1 == pytest.approx(-2.0)
        assert r2 == pytest.approx(0.0)

    def test_needs_x_coordinate(self):
        u = parse_field("p", PYT)
        q = pt(PYT, 1.0, 0.0, 0.0)
        with pytest.raises(ConfigError):
            hypercr_residual(u, u, q)


# --- frame system ------------------------------------------------------------


class TestGtResidual:
    def test_heisenberg_certified(self):
        s = heisenberg(1.0)
        for q in box_points(XYT, -1.0, 1.0, 30, 11):
            assert np.abs(gt_residual(s, q)).max() <= 1e-12

    def test_flat_structure(self):
        s = flat_structure()
        q = pt(XYT, 0.5, -0.7, 0.3)
        assert np.abs(gt_residual(s, q)).max() == 0.0

    @pytest.mark.parametrize("ell", [1.0, 2.0, -3.0])
    def test_sign_flipped_v_breaks_first_equation(self, ell):
        s = heisenberg(ell)
        bad = dataclasses.replace(s, V=Field.const(-2.0 / ell))
        q = pt(XYT, 0.4, 0.2, -0.6)
        r = gt_residual(bad, q)
        assert abs(r[0][0]) == pytest.approx(abs(4.0 / ell), rel=1e-12)


class TestMonopoleResidual:
    def test_heisenberg(self):
        s = heisenberg(1.5)
        for q in box_points(XYT, -1.0, 1.0, 30, 12):
            assert np.abs(monopole_residual(s, q)).max() <= 1e-12

    def test_constant_v_closed_frame(self):
        frame = Coframe3(
            coordinate_form(XYT, "x"),
            coordinate_form(XYT, "y"),
            coordinate_form(XYT, "t"),
        )
        s = dataclasses.replace(
            flat_structure(), frame=frame, omega=zero_form(XYT, 1), V=Field.const(3.0)
        )
        q = pt(XYT, 0.1, 0.2, 0.3)
        assert np.abs(monopole_residual(s, q)).max() == 0.0

    def test_class_a_consequence(self):
        from ewbench import class_a

        s = class_a("y^2-2*t")
        dom = default_domain("class_a", beta="y^2-2*t", count=100)
        for q in sample(dom):
            assert np.abs(monopole_residual(s, q)).max() <= 1e-7


# --- conformal rescaling -----------------------------------------------------

GAUGE_CATALOG = (
    "0.1*x",
    "0.2*y",
    "-0.3*t",
    "0.1*x*y",
    "sin(x)",
    "0.2*cos(y)*t",
    "0.1*(x^2-t^2)",
    "tanh(x)+0.1*y",
    "exp(0.2*t)*0.1",
    "0.05*x*y*t",
)


class TestGaugeTransform:
    def _structures_match(self, a, b, q, tol):
        for la, lb in zip(a.frame.legs, b.frame.legs):
            assert max_abs_at(la - lb, q) <= tol
        assert max_abs_at(a.omega - b.omega, q) <= tol
        assert abs(a.V(q, 0).value - b.V(q, 0).value) <= tol

    def test_zero_is_identity(self):
        s = heisenberg(1.0)
        out = gauge_transform(s, Field.const(0.0))
        q = pt(XYT, 0.4, -0.1, 0.8)
        self._structures_match(s, out, q, 1e-15)

    def test_linear_gauge_preserves_gt(self):
        s = heisenberg(1.0)
        out = gauge_transform(s, parse_field("0.1*x", XYT))
        for q in box_points(XYT, -1.0, 1.0, 30, 13):
            assert np.abs(gt_residual(out, q)).max() <= 1e-9

    def test_inverse_recovers_structure(self, rng):
        s = heisenberg(2.0)
        f = parse_field("0.3*sin(x)+0.1*t", XYT)
        back = gauge_transform(gauge_transform(s, f), -f)
        for _ in range(5):
            q = pt(XYT, *rng.uniform(-1, 1, size=3))
            self._structures_match(s, back, q, 1e-12)

    @pytest.mark.parametrize("src", GAUGE_CATALOG)
    def test_catalog_preserves_gt(self, src):
        s = heisenberg(1.0)
        out = gauge_transform(s, parse_field(src, XYT))
        worst = 0.0
        for q in box_points(XYT, -1.0, 1.0, 20, 14):
            worst = max(worst, float(np.abs(gt_residual(out, q)).max()))
        assert worst <= 1e-9


# --- weighted derivative and the psi equation --------------------------------


class TestWeightedD:
    def test_weight_zero_is_plain_d(self, rng):
        s = heisenberg(1.0)
        a = s.frame.e1.scale(parse_field("sin(y)", XYT))
        psi = Weighted(a, 0.0)
        diff = weighted_d(psi, s.omega) - ext_d(a)
        for _ in range(5):
            q = pt(XYT, *rng.uniform(-1, 1, size=3))
            assert max_abs_at(diff, q) <= 1e-15

    def test_connection_form_self_term_drops(self):
        s = heisenberg(1.0)
        psi = Weighted(s.omega, -1.0)
        diff = weighted_d(psi, s.omega) - ext_d(s.omega)
        q = pt(XYT, 0.3, -0.4, 0.5)
        assert max_abs_at(diff, q) <= 1e-12

    def test_conformal_covariance(self, rng):
        s = heisenberg(1.0)
        m = -1.0
        f = parse_field("0.2*x+0.1*sin(y)", XYT)
        a = s.frame.e2.scale(parse_field("cos(t)", XYT)) + s.frame.e1
        omega_new = s.omega + ext_d(scalar_form(XYT, f)).scale(2.0)
        lhs = weighted_d(Weighted(a.scale(jets.exp(m * f)), m), omega_new)
        rhs = weighted_d(Weighted(a, m), s.omega).scale(jets.exp(m * f))
        for _ in range(5):
            q = pt(XYT, *rng.uniform(-1, 1, size=3))
            assert max_abs_at(lhs - rhs, q) <= 1e-12


class TestPsiResidual:
    def test_constant_multiple_of_omega(self):
        for base in (heisenberg(1.0), heisenberg(-2.0)):
            psi = psi_const(base, 1.7)
            for q in box_points(XYT, -1.0, 1.0, 20, 15):
                assert np.abs(psi_residual(psi, base, q)).max() <= 1e-12

    def test_zero_section(self):
        s = heisenberg(1.0)
        psi = zero_form(XYT, 1)
        q = pt(XYT, 0.1, 0.2, 0.3)
        assert np.abs(psi_residual(psi, s, q)).max() == 0.0

    def test_general_y_independent_family(self):
        s = heisenberg(1.0)
        psi = heisenberg_psi(s, "sin(x)", "t^2")
        for q in box_points(XYT, -1.0, 1.0, 30, 16):
            assert np.abs(psi_residual(psi, s, q)).max() <= 1e-10

    def test_missing_exact_correction_fails(self):
        s = heisenberg(1.0)
        bare = s.omega.scale(parse_field("sin(x)", XYT))
        q = pt(XYT, 0.9, 0.2, 0.4)
        assert np.abs(psi_residual(bare, s, q)).max() > 1e-3

    def test_conformal_invariance_of_solutions(self):
        s = heisenberg(1.0)
        psi = psi_const(s, 1.3)
        f = parse_field("0.2*x+0.1*sin(y)", XYT)
        s2 = gauge_transform(s, f)
        psi2 = psi.scale(jets.exp(-f))
        for q in box_points(XYT, -1.0, 1.0, 20, 17):
            assert np.abs(psi_residual(psi2, s2, q)).max() <= 1e-7


# --- scalar equation ----------------------------------------------------------


class TestHcrResidual:
    def test_fundamental_solution(self):
        dom = default_domain("from_H", count=50)
        for q in sample(dom):
            assert abs(hcr_residual(fundamental_H, q)) <= 1e-10

    def test_constant_gradient(self):
        H = parse_field("x", XYT)
        q = pt(XYT, 1.0, 2.0, 3.0)
        assert hcr_residual(H, q) == 0.0

    def test_product_counterexample(self):
        H = parse_field("x*y", XYT)
        q = pt(XYT, -4.0, 2.0, 7.0)
        assert hcr_residual(H, q) == pytest.approx(-2.0)


class TestConstraintsResidual:
    def test_fundamental_solution_solves_both(self):
        dom = default_domain("from_H", count=50)
        for q in sample(dom):
            nonlinear, linear = constraints_residual(fundamental_H, q)
            assert abs(nonlinear) <= 1e-10
            assert abs(linear) <= 1e-10

    def test_constant_gradient(self):
        H = parse_field("x", XYT)
        assert constraints_residual(H, pt(XYT, 1.0, 2.0, 3.0)) == (0.0, 0.0)

    def test_product_splits_into_nonlinear_part(self, rng):
        H = parse_field("x*y", XYT)
        for _ in range(5):
            y = float(rng.uniform(-2, 2))
            q = pt(XYT, 0.3, y, -0.8)
            nonlinear, linear = constraints_residual(H, q)
            assert nonlinear == pytest.approx(-y)
            assert linear == pytest.approx(0.0)

    def test_decomposition_identity(self, rng):
        H = parse_field("sin(x)*y+t*x^2+y^3-0.5*t^2*x", XYT)
        for _ in range(20):
            q = pt(XYT, *rng.uniform(-1.5, 1.5, size=3))
            nonlinear, linear = constraints_residual(H, q)
            assert hcr_residual(H, q) == pytest.approx(
                nonlinear + linear, abs=1e-12
            )


# --- structures from scalar solutions -----------------------------------------


class TestFromH:
    def test_fundamental_structure_is_certified(self):
        s = from_H(Field(fundamental_H))
        dom = default_domain("from_H", count=50)
        for q in sample(dom):
            assert np.abs(gt_residual(s, q)).max() <= 1e-8
            r1, r2 = hypercr_residual(s.u, s.w, q)
            assert abs(r1) <= 1e-8 and abs(r2) <= 1e-8

    def test_linear_solution_gives_flat_structure(self):
        s = from_H(parse_field("x", XYT))
        q = pt(XYT, 0.4, 0.5, 0.6)
        assert s.u(q, 0).value == 1.0
        assert s.w(q, 0).value == 0.0
        assert s.V(q, 0).value == 0.0
        assert np.abs(gt_residual(s, q)).max() == 0.0

    def test_non_solution_is_flagged(self):
        s = from_H(parse_field("x*y", XYT))
        q = pt(XYT, 0.7, 1.4, -0.2)
        r1, _ = hypercr_residual(s.u, s.w, q)
        assert abs(r1) > 1e-3
        assert np.abs(gt_residual(s, q)).max() > 1e-3

    def test_heisenberg_matches_from_uw(self):
        s = heisenberg(1.0)
        q = pt(XYT, 0.3, 0.2, 0.1)
        assert s.u(q, 0).value == pytest.approx(1.2)
        assert s.V(q, 0).value == pytest.approx(2.0)
