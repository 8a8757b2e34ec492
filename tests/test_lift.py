import dataclasses
import math
import warnings

import numpy as np
import pytest

from ewbench import (
    Field,
    LiftConfig,
    em_residual,
    f_squared,
    flat_limit,
    from_H,
    from_uw,
    heisenberg,
    kretschmann,
    maxwell_residual,
    metric_from_coframe,
    parse_field,
    psi_const,
)
from ewbench.errors import (
    ConfigError,
    DomainError,
    GaugeViolationError,
    PsiResidualError,
)
from ewbench import report
from ewbench.curv import inverse
from ewbench import lift as lift_mod
from ewbench.families import CASES, class_b, default_domain
from ewbench.forms import coordinate_form, embed_form, embed_metric, symmetric_product
from ewbench.jets import ChartPoint, sample
from ewbench.lift import (
    FIBRES,
    alpha_of_p,
    assemble,
    build,
    default_probes,
    fibre_points,
    fix_ell_sign,
    limit_family,
    matched_alpha_point,
    validate_config,
)

from conftest import XYT, PYT, pt
from oracle import comp, dalpha_dp, ext_d, heisenberg_psi, p_of_alpha, signature_at

SQRT2 = math.sqrt(2.0)


def certified_cases():
    """The three lift bases of the certification matrix, with fixed ell."""
    hb = heisenberg(1.0)
    b1 = class_b("1")
    bq = class_b("-1/4")
    return (
        ("heisenberg", hb, -1.0, default_domain("heisenberg", count=8)),
        ("class_b_f1", b1, 4.0, default_domain("class_b", F="1", count=8)),
        ("class_b_fq", bq, -1.0, default_domain("class_b", F="-1/4", count=8)),
    )


def lift_points(data, base_points, seed=99):
    """4D points: a fibre value prepended to each base point."""
    rng = np.random.default_rng(seed)
    out = []
    for q in base_points:
        if data.chart[0] == "alpha":
            fibre = float(rng.uniform(*FIBRES["alpha"].window))
        else:
            fibre = float(rng.uniform(-1.2, 1.2))
        out.append(ChartPoint(data.chart, (fibre,) + q.coords))
    return out


def perturbed(base, amount=0.1):
    """u -> u + amount * x^2 in the base's first coordinate."""
    x = Field.coordinate(base.chart[0])
    return from_uw(base.u + amount * x * x, base.w, chart=base.chart)


# --- configuration and validation ----------------------------------------------


class TestLiftConfig:
    @pytest.mark.parametrize("ell", [0.0, -0.0, np.array([1.0, -0.0])], ids=repr)
    def test_zero_ell_rejected(self, ell):
        s = heisenberg(1.0)
        with pytest.raises(ConfigError, match="^ell must be nonzero$"):
            LiftConfig(s, psi_const(s, 0), ell)

    def test_unknown_chart_rejected(self):
        s = heisenberg(1.0)
        with pytest.raises(ConfigError):
            LiftConfig(s, psi_const(s, 0), -1.0, chart="beta")

    @pytest.mark.parametrize(
        "bad",
        [None, ext_d(heisenberg(1.0).omega), class_b("1").omega],
        ids=["none", "2-form", "other-chart"],
    )
    def test_a_psi_that_is_not_a_1_form_on_the_base_chart_is_refused(self, bad):
        with pytest.raises(ConfigError, match="psi must be a 1-form on the base chart, got"):
            LiftConfig(heisenberg(1.0), bad, -1.0)

    def test_a_psi_on_another_chart_is_refused_naming_both_charts(self):
        with pytest.raises(ConfigError) as err:
            LiftConfig(heisenberg(1.0), class_b("1").omega, -1.0)
        assert str(err.value) == (
            "psi must be a 1-form on the base chart, got "
            "PForm(chart=('p', 'y', 't'), degree=1, comps=[(1,), (2,)]); "
            "the base chart is ('x', 'y', 't')"
        )

    def test_validate_passes_certified_base(self):
        s = heisenberg(1.0)
        cfg = LiftConfig(s, psi_const(s, 0.5), -1.0)
        probes = validate_config(cfg)
        assert len(probes) == 8

    def test_wrong_ell_sign_rejected(self):
        s = heisenberg(1.0)
        with pytest.raises(GaugeViolationError):
            build(LiftConfig(s, psi_const(s, 0), 1.0))

    def test_flat_base_has_no_gauge(self):
        flat = from_uw(Field.const(0.0), Field.const(0.0))
        with pytest.raises(GaugeViolationError):
            build(LiftConfig(flat, psi_const(flat, 0), 1.0))

    def test_broken_structure_equations_rejected(self):
        s = heisenberg(1.0)
        bad = dataclasses.replace(s, omega=s.omega.scale(1.1))
        with pytest.raises(GaugeViolationError):
            build(LiftConfig(bad, psi_const(bad, 0), -1.0))

    def test_non_solution_psi_rejected(self):
        s = heisenberg(1.0)
        bad = s.omega.scale(parse_field("sin(x)", XYT))
        with pytest.raises(PsiResidualError):
            build(LiftConfig(s, bad, -1.0))

    @pytest.mark.parametrize("bad_first", [True, False])
    def test_non_finite_probe_is_a_domain_error(self, bad_first):
        # at x = 1e308 the Heisenberg frame residual overflows to NaN
        s = heisenberg(1.0)
        bad, good = pt(XYT, 1e308, 0.5, 0.5), pt(XYT, 0.5, 0.5, 0.5)
        probes = (bad, good) if bad_first else (good, bad)
        with pytest.raises(DomainError, match=r"'lift\.gt' is nan"):
            validate_config(LiftConfig(s, psi_const(s, 0), -1.0, probes=probes))

    @pytest.mark.parametrize("bad_first", [True, False])
    def test_non_finite_probe_with_a_nonzero_psi_is_a_domain_error(self, bad_first):
        # psi = c omega packs omega before the probes run: that packing
        # overflows at x = 1e308 too, without a warning
        s = heisenberg(1.0)
        bad, good = pt(XYT, 1e308, 0.5, 0.5), pt(XYT, 0.5, 0.5, 0.5)
        probes = (bad, good) if bad_first else (good, bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"'lift\.gt' is nan"):
                validate_config(LiftConfig(s, psi_const(s, 0.5), -1.0, probes=probes))

    def test_alpha_name_collision_rejected(self):
        base = from_uw(
            Field.const(0.0), Field.const(0.0), chart=("alpha", "y", "t")
        )
        cfg = LiftConfig(base, psi_const(base, 0), 1.0, chart="alpha")
        with pytest.raises(ConfigError):
            assemble(cfg, "alpha")


class TestFixEllSign:
    def test_heisenberg_flips(self):
        assert fix_ell_sign(heisenberg(1.0), 1.0) == (-1.0, True)

    def test_class_b_keeps_positive(self):
        assert fix_ell_sign(class_b("1"), 4.0, pt(PYT, 1.0, 0.0, 0.0)) == (4.0, False)

    def test_magnitude_mismatch_rejected(self):
        with pytest.raises(GaugeViolationError):
            fix_ell_sign(heisenberg(1.0), 3.0)

    def test_nonconstant_v_rejected(self):
        s = from_uw(parse_field("x^2", XYT), Field.const(0.0))
        with pytest.raises(GaugeViolationError):
            fix_ell_sign(s, 1.0)

    def test_a_v_that_is_not_finite_is_a_domain_error(self):
        # u = 4x/ell overflows, so V = inf: no sign of ell is checked
        match = r"V is not finite at the probe: V = inf for ell = 5e-324"
        with np.errstate(all="ignore"), pytest.raises(DomainError, match=match):
            fix_ell_sign(heisenberg(5e-324), 5e-324)

    def test_without_ell_v_sets_it(self):
        assert fix_ell_sign(class_b("1"), None, pt(PYT, 1.0, 0.0, 0.0)) == (4.0, False)
        assert fix_ell_sign(heisenberg(2.0), None) == (-2.0, False)

    def test_without_ell_v_zero_is_refused(self):
        with pytest.raises(ConfigError, match="V = 0 at the probe"):
            fix_ell_sign(from_H(parse_field("y", XYT)), None)

    @pytest.mark.parametrize("F, ell", [("1e12", 4e12), ("1e200", 4e200)])
    def test_without_ell_a_small_v_sets_it(self, F, ell):
        # V = -1/(2F) is tiny but not 0: -2/V is a finite ell
        assert fix_ell_sign(class_b(F), None, pt(PYT, 1.0, 0.0, 0.0)) == (ell, False)

    def test_without_ell_an_overflowing_minus_two_over_v_is_refused(self):
        # V = -5e-309: -2/V is past the float range
        with pytest.raises(ConfigError, match=r"ell = -2/V is not finite: V = -5e-309"):
            fix_ell_sign(class_b("1e308"), None, pt(PYT, 1.0, 0.0, 0.0))

    def test_default_probes_deterministic(self):
        a = default_probes(XYT)
        b = default_probes(XYT)
        assert a == b

    def test_default_probes_are_drawn_once(self):
        assert default_probes(PYT, count=3) is default_probes(PYT, count=3)


def count_point_scopes(monkeypatch):
    """Count the scopes ``run_check`` opens for its per-point fallback."""
    calls = []
    opened = report.evaluation_scope

    def counting():
        calls.append(1)
        return opened()

    monkeypatch.setattr(report, "evaluation_scope", counting)
    return calls


class TestConstantGauge:
    @pytest.mark.parametrize("base,ell", [(heisenberg(1.0), -1.0), (class_b("-1/4"), -1.0),
                                          (class_b("2"), 8.0)], ids=["heisenberg", "fq", "f2"])
    def test_a_constant_v_is_checked_once_over_the_probes(self, monkeypatch, base, ell):
        calls = count_point_scopes(monkeypatch)
        validate_config(LiftConfig(base, psi_const(base, 0.5), ell))
        assert calls == []

    def test_a_failing_constant_gauge_names_its_residual(self, monkeypatch):
        calls = count_point_scopes(monkeypatch)
        s = heisenberg(1.0)
        with pytest.raises(GaugeViolationError, match=r"V\*ell \+ 2 reaches 4\.000e\+00"):
            validate_config(LiftConfig(s, psi_const(s, 0), 1.0))
        assert calls == []

    def test_a_numeric_f_folds_v(self):
        assert class_b("2").V.number == -0.25
        assert class_b("1+p^2").V.number is None


# --- certification of the lifted space-times -------------------------------------


@pytest.mark.parametrize("chart", ["p", "alpha"])
@pytest.mark.parametrize("c", [0.0, 0.5])
def test_lifted_heisenberg_solves_field_equations(c, chart):
    base = heisenberg(1.0)
    cfg = LiftConfig(base, psi_const(base, c), -1.0, chart=chart)
    data = build(cfg)
    base_pts = sample(default_domain("heisenberg", count=6))
    for q in lift_points(data, base_pts):
        assert np.abs(em_residual(data.g, data.potential, data.ell, q)).max() <= 1e-6
        assert np.abs(maxwell_residual(data.potential, data.g, q)).max() <= 1e-6


@pytest.mark.parametrize("name,base,ell,dom", certified_cases()[1:],
                         ids=["class_b_f1", "class_b_fq"])
def test_lifted_class_b_solves_field_equations(name, base, ell, dom):
    cfg = LiftConfig(base, psi_const(base, 0.5), ell)
    data = build(cfg)
    for q in lift_points(data, sample(dom)):
        assert np.abs(em_residual(data.g, data.potential, data.ell, q)).max() <= 1e-6
        assert np.abs(maxwell_residual(data.potential, data.g, q)).max() <= 1e-6


def test_general_psi_family_lifts(rng):
    base = heisenberg(1.0)
    psi = heisenberg_psi(base, "0.3*sin(x)", "0.2*t^2")
    data = build(LiftConfig(base, psi, -1.0))
    base_pts = sample(default_domain("heisenberg", count=4))
    for q in lift_points(data, base_pts, seed=101):
        assert np.abs(em_residual(data.g, data.potential, data.ell, q)).max() <= 1e-6
        assert np.abs(maxwell_residual(data.potential, data.g, q)).max() <= 1e-6


def test_signature_is_lorentzian_everywhere():
    for name, base, ell, dom in certified_cases():
        cfg = LiftConfig(base, psi_const(base, 0.5), ell)
        data = build(cfg)
        for q in lift_points(data, sample(dom), seed=7):
            assert signature_at(data.g, q) == (3, 1), name


def test_fibre_name_avoids_collision():
    base = class_b("1")
    data = build(LiftConfig(base, psi_const(base, 0), 4.0))
    assert data.chart == ("q", "p", "y", "t")


@pytest.mark.parametrize("chart", sorted(FIBRES))
@pytest.mark.parametrize("name, base, ell, dom", certified_cases()[:2])
def test_fibre_points_keep_the_base_and_draw_inside_the_chart_window(name, base, ell, dom, chart):
    data = build(LiftConfig(base, psi_const(base, 0), ell, chart=chart))
    base_pts = sample(dom)
    pts = fibre_points(data, 3, base_pts)
    lo, hi = FIBRES[chart].window
    fibres = [q.coords[0] for q in pts]
    assert [q.chart for q in pts] == [data.chart] * len(base_pts)
    assert [q.coords[1:] for q in pts] == [q.coords for q in base_pts]
    assert lo <= min(fibres) and max(fibres) <= hi
    assert max(fibres) - min(fibres) > (hi - lo) / 2
    assert fibre_points(data, 3, base_pts) == pts


# --- negative controls -------------------------------------------------------------


class TestNegativeControls:
    def test_perturbed_bases_fail_field_equations(self):
        cases = (
            (perturbed(heisenberg(1.0)), -1.0),
            (perturbed(from_uw(parse_field("x", XYT), Field.const(0.0))), -4.0),
        )
        for bad, ell in cases:
            data = assemble(LiftConfig(bad, psi_const(bad, 0), ell), "p")
            q = ChartPoint(data.chart, (0.4, 0.5, 0.3, 0.7))
            worst = np.abs(em_residual(data.g, data.potential, data.ell, q)).max()
            assert worst > 1e-3

    def test_halved_field_strength_normalization_fails(self):
        base = heisenberg(1.0)
        data = build(LiftConfig(base, psi_const(base, 0.5), -1.0))
        q = ChartPoint(data.chart, (0.3, 0.4, -0.2, 0.6))
        ok = np.abs(em_residual(data.g, data.potential, data.ell, q)).max()
        fsq = f_squared(data.potential, data.g, q)[..., None, None]
        halved = em_residual(data.g, data.potential, data.ell, q) + 0.25 * fsq * data.g.matrix_at(q)
        bad = np.abs(halved).max()
        assert ok <= 1e-6
        assert bad > 1e-3

    def test_flipped_maxwell_coupling_fails(self):
        base = heisenberg(1.0)
        data = build(LiftConfig(base, psi_const(base, 0.5), -1.0))
        q = ChartPoint(data.chart, (0.3, 0.4, -0.2, 0.6))
        fm = np.zeros((4, 4))
        for (a, b), f in ext_d(data.potential).comps.items():
            v = f(q, 0).value
            fm[a, b] = v
            fm[b, a] = -v
        ginv = inverse(data.g, q)
        stress = np.einsum("ac,bd,dc->ab", fm, fm, ginv)
        flipped = em_residual(data.g, data.potential, data.ell, q) - 4.0 * stress
        assert np.abs(flipped).max() > 1e-3

    def test_flat_base_angle_metric_is_not_einstein_maxwell(self):
        """The ungauged V = 0 base produces the stated metric but no solution."""
        flat = from_uw(Field.const(0.0), Field.const(0.0))
        cfg = LiftConfig(flat, psi_const(flat, 0), 1.0, chart="alpha")
        data = assemble(cfg, "alpha")
        al, x = 0.9, 0.3
        q = ChartPoint(data.chart, (al, x, -0.2, 0.5))
        want = np.zeros((4, 4))
        want[0, 0] = 1.0 / math.sin(al) ** 2
        want[2, 2] = 1.0 / math.sin(al) ** 2
        want[1, 3] = want[3, 1] = -2.0 / math.sin(al) ** 2
        np.testing.assert_allclose(data.g.matrix_at(q), want, atol=1e-12)
        worst = np.abs(em_residual(data.g, data.potential, data.ell, q)).max()
        assert worst > 1e-1


# --- chart agreement ------------------------------------------------------------------


class TestChartAgreement:
    @staticmethod
    def _pair(c=0.5):
        base = heisenberg(1.0)
        cfg = LiftConfig(base, psi_const(base, c), -1.0)
        return build(cfg), build(dataclasses.replace(cfg, chart="alpha"))

    def test_metric_pullback_agreement(self, rng):
        data_p, data_a = self._pair()
        ell = data_p.ell
        for _ in range(6):
            p = float(rng.uniform(-1.0, 1.0))
            qp = ChartPoint(data_p.chart, (p,) + tuple(rng.uniform(-1, 1, size=3)))
            qa = matched_alpha_point(qp, ell)
            jac = np.diag([dalpha_dp(p, ell), 1.0, 1.0, 1.0])
            pulled = jac.T @ data_a.g.matrix_at(qa) @ jac
            assert np.abs(pulled - data_p.g.matrix_at(qp)).max() <= 1e-8

    def test_potential_agreement(self, rng):
        data_p, data_a = self._pair()
        for _ in range(6):
            p = float(rng.uniform(-1.0, 1.0))
            qp = ChartPoint(data_p.chart, (p,) + tuple(rng.uniform(-1, 1, size=3)))
            qa = matched_alpha_point(qp, data_p.ell)
            assert comp(data_a.potential, (0,))(qa, 0).value == 0.0
            for i in range(1, 4):
                va = comp(data_a.potential, (i,))(qa, 0).value
                vp = comp(data_p.potential, (i,))(qp, 0).value
                assert abs(va - vp) <= 1e-10

    def test_scalar_invariants_agree(self, rng):
        data_p, data_a = self._pair()
        for _ in range(3):
            p = float(rng.uniform(-0.8, 0.8))
            qp = ChartPoint(data_p.chart, (p,) + tuple(rng.uniform(-1, 1, size=3)))
            qa = matched_alpha_point(qp, data_p.ell)
            kp = kretschmann(data_p.g, qp)
            ka = kretschmann(data_a.g, qa)
            assert abs(kp - ka) / max(1.0, abs(kp)) <= 1e-6
            fp = f_squared(data_p.potential, data_p.g, qp)
            fa = f_squared(data_a.potential, data_a.g, qa)
            assert abs(fp - fa) / max(1.0, abs(fp)) <= 1e-6

    def test_chart_maps_are_mutually_inverse(self, rng):
        for _ in range(10):
            p = float(rng.uniform(-2.0, 2.0))
            ell = float(rng.choice([-1.0, 2.0, 4.0]))
            assert p_of_alpha(alpha_of_p(p, ell), ell) == pytest.approx(p, abs=1e-12)
        assert alpha_of_p(0.0, 1.0) == pytest.approx(math.pi / 2.0)
        with pytest.raises(ConfigError):
            p_of_alpha(3.5, 1.0)


# --- regularity at the equator ---------------------------------------------------------


class TestEquator:
    @staticmethod
    def _lift(c=0.5):
        base = heisenberg(1.0)
        return build(LiftConfig(base, psi_const(base, c), -1.0))

    def test_metric_at_fibre_origin(self):
        data = self._lift()
        base = heisenberg(1.0)
        q0 = ChartPoint(data.chart, (0.0, 0.4, -0.2, 0.7))
        ps = embed_form(psi_const(base, 0.5), data.chart)
        h4 = embed_metric(metric_from_coframe(base.frame), data.chart)
        leg = coordinate_form(data.chart, "p") - ps.scale(SQRT2)
        want = symmetric_product(leg, leg) + h4
        np.testing.assert_allclose(
            data.g.matrix_at(q0), want.matrix_at(q0), atol=1e-12
        )

    def test_kretschmann_continuous_through_origin(self):
        data = self._lift()
        rest = (0.4, -0.2, 0.7)
        ks = [
            kretschmann(data.g, ChartPoint(data.chart, (p,) + rest))
            for p in (-0.1, 0.0, 0.1)
        ]
        assert all(np.isfinite(ks))
        second_diff = abs(ks[0] + ks[2] - 2.0 * ks[1])
        assert second_diff <= 0.1 * max(1.0, abs(ks[1]))


# --- flat limit --------------------------------------------------------------------------


def heisenberg_flow(c=0.0):
    def factory(scale):
        base, ell = CASES["heisenberg"].limit(scale)
        return LiftConfig(base, psi_const(base, c), ell)

    return factory


def frozen_omega_flow(scale):
    """Negative control: the base no longer scales with the flow parameter,
    so it fails the gauge; the test that runs it skips the validation."""
    base = heisenberg(1.0)
    return LiftConfig(base, psi_const(base, 0), -scale)


class TestFlatLimit:
    def test_quadratic_convergence_rate(self):
        rep = flat_limit(heisenberg_flow(), (100.0, 200.0))
        assert 3.6 <= rep["ratios"][0] <= 4.4
        assert not rep["diverges"]

    def test_limit_metric_flattens(self):
        rep = flat_limit(heisenberg_flow(), (100.0, 1000.0, 10000.0))
        assert rep["form_gap"][0] > rep["form_gap"][-1]
        assert rep["riemann_limit"][-1] <= 1e-6
        assert rep["f_norm"][-1] <= 1e-2
        assert rep["f_norm"][0] > rep["f_norm"][-1]
        assert rep["ell_used"] == [-100.0, -1000.0, -10000.0]

    def test_field_strength_tracks_limit_term(self):
        rep = flat_limit(heisenberg_flow(), (100.0, 200.0, 400.0))
        gaps = rep["f_gap"]
        assert gaps[-1] <= 1e-4
        for a, b in zip(gaps, gaps[1:]):
            assert 3.6 <= a / b <= 4.4

    def test_class_b_flow_converges(self):
        def factory(scale):
            base = class_b(scale / 4.0)
            return LiftConfig(
                base,
                psi_const(base, 0),
                scale,
                probes=tuple(sample(default_domain("class_b", F="1", count=4))),
            )

        rep = flat_limit(factory, (100.0, 200.0, 400.0))
        assert not rep["diverges"]
        assert rep["form_gap"][0] > rep["form_gap"][-1]

    def test_frozen_omega_diverges(self, monkeypatch):
        monkeypatch.setattr(lift_mod, "validate_config", lambda cfg: None)
        rep = flat_limit(frozen_omega_flow, (10.0, 100.0, 1000.0))
        assert rep["diverges"]
        assert rep["f_term"][-1] > rep["f_term"][0]

    def test_needs_two_scales(self):
        with pytest.raises(ConfigError):
            flat_limit(heisenberg_flow(), (100.0,))


class TestLimitFamily:
    @pytest.mark.parametrize("case", ["heisenberg", "class_b"])
    def test_chart_is_the_chart_of_the_built_lift(self, case):
        factory, chart = limit_family(case, 0.5)
        assert build(factory(100.0)).chart == chart

    def test_heisenberg_lifts_at_the_sign_fixed_ell(self):
        factory, _ = limit_family("heisenberg", 0.0)
        assert factory(100.0).ell == -100.0

    def test_a_case_without_a_family_is_refused(self):
        with pytest.raises(ConfigError, match="case 'class_a' has no ell-parameterized"):
            limit_family("class_a", 0.0)
