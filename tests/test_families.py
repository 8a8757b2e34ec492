import numpy as np
import pytest

from ewbench import cli, report
from ewbench import families as fam
from ewbench import lift as lift_mod
from ewbench import (
    GeneratorG,
    class_a,
    class_b,
    class_c,
    from_generator,
    gt_residual,
    heisenberg,
    metric_from_coframe,
    monopole_residual,
    parse_field,
)
from ewbench.errors import (
    ConfigError,
    DegenerateLegendreError,
    DomainError,
    HeatResidualError,
)
from ewbench.families import (
    CASES,
    CLASS_A_BETAS,
    CLASS_C_PHIS,
    default_domain,
    generator_for,
)
from ewbench.jets import ChartPoint, sample

from conftest import XYT, PYT, pt
from oracle import (
    CLASS_B_FS,
    branch_residual,
    class_a_closed,
    class_b_closed,
    class_c_closed,
    comp,
    fundamental_H,
    g_equation_residual,
    k_from_phi,
    max_abs_at,
)


def catalog():
    """Every certified structure with its sampling domain."""
    out = [("heisenberg", heisenberg(1.0), default_domain("heisenberg", count=40))]
    for beta in CLASS_A_BETAS:
        out.append(
            (f"class_a({beta})", class_a(beta),
             default_domain("class_a", beta=beta, count=40))
        )
    for F in CLASS_B_FS:
        out.append(
            (f"class_b({F})", class_b(F),
             default_domain("class_b", F=F, count=40))
        )
    for phi, data in CLASS_C_PHIS.items():
        out.append(
            (f"class_c({phi})", class_c(data["K"]),
             default_domain("class_c", K=data["K"], count=40))
        )
    return out


def assert_structures_close(a, b, q, tol):
    for la, lb in zip(a.frame.legs, b.frame.legs):
        assert max_abs_at(la - lb, q) <= tol
    assert max_abs_at(a.omega - b.omega, q) <= tol
    assert abs(a.V(q, 0).value - b.V(q, 0).value) <= tol


# --- certification of the catalog ---------------------------------------------


@pytest.mark.parametrize("name,s,dom", catalog(), ids=[c[0] for c in catalog()])
def test_catalog_satisfies_frame_and_monopole_systems(name, s, dom):
    worst_gt = 0.0
    worst_mono = 0.0
    for q in sample(dom):
        worst_gt = max(worst_gt, float(np.abs(gt_residual(s, q)).max()))
        worst_mono = max(worst_mono, float(np.abs(monopole_residual(s, q)).max()))
    assert worst_gt <= 1e-7, f"{name}: frame residual {worst_gt:.3e}"
    assert worst_mono <= 1e-7, f"{name}: monopole residual {worst_mono:.3e}"


# --- heisenberg -----------------------------------------------------------------


class TestHeisenberg:
    def test_residual_tight(self):
        s = heisenberg(2.5)
        for q in sample(default_domain("heisenberg", count=30)):
            assert np.abs(gt_residual(s, q)).max() <= 1e-10

    def test_x_zero_slice_is_flat(self):
        s = heisenberg(1.7)
        h = metric_from_coframe(s.frame)
        m = h.matrix_at(pt(XYT, 0.0, 0.8, -0.3))
        want = np.zeros((3, 3))
        want[1, 1] = 1.0
        want[0, 2] = want[2, 0] = -2.0
        np.testing.assert_allclose(m, want, atol=1e-14)

    def test_zero_ell_rejected(self):
        with pytest.raises(ConfigError):
            heisenberg(0.0)

    def test_v_constant(self):
        s = heisenberg(4.0)
        q = pt(XYT, 0.3, -0.2, 0.9)
        assert s.V(q, 0).value == pytest.approx(0.5)


# --- class constructors -----------------------------------------------------------


class TestClassA:
    def test_heat_violation_rejected(self):
        with pytest.raises(HeatResidualError):
            class_a("y^2")

    @pytest.mark.parametrize("beta,reaches", [("y-2", None), ("5", None), ("t+y", r"1\.000e\+00")])
    def test_a_row_independent_heat_residual_is_checked_once(self, monkeypatch, beta, reaches):
        calls = []
        opened = report.evaluation_scope

        def counting():
            calls.append(1)
            return opened()

        monkeypatch.setattr(report, "evaluation_scope", counting)
        if reaches is None:
            class_a(beta)
        else:
            with pytest.raises(HeatResidualError, match=f"reaches {reaches} on the probe set"):
                class_a(beta)
        assert calls == []

    def test_polynomial_solution_accepted(self):
        s = class_a("y^2-2*t")
        q = pt(PYT, 1.0, 2.5, 0.5)
        assert np.abs(gt_residual(s, q)).max() <= 1e-8

    def test_separable_solution_accepted(self):
        class_a("exp(t)*sin(y)")

    def test_domain_requires_beta(self):
        with pytest.raises(ConfigError):
            default_domain("class_a")


@pytest.mark.parametrize("case,name", [("class_b", "F"), ("class_c", "K"), ("from_G", "A")])
def test_a_domain_guard_requires_its_parameter(case, name):
    with pytest.raises(ConfigError, match=f"{case} domain needs {name}"):
        default_domain(case)


class TestClosedForms:
    CASES = (
        ("class_a", CLASS_A_BETAS[0]),
        ("class_a", CLASS_A_BETAS[1]),
        ("class_b", "1"),
        ("class_b", "1+p^2"),
        ("class_b", "-1/4"),
        ("class_c", "2^(-4/3)*s^(-1/3)"),
        ("class_c", "s"),
    )

    @staticmethod
    def _build(case, param):
        if case == "class_a":
            return (
                class_a(param),
                class_a_closed(param),
                default_domain("class_a", beta=param, count=30),
            )
        if case == "class_b":
            return (
                class_b(param),
                class_b_closed(param),
                default_domain("class_b", F=param, count=30),
            )
        K = k_from_phi(param)
        return (
            class_c(K),
            class_c_closed(K),
            default_domain("class_c", K=K, count=30),
        )

    @pytest.mark.parametrize("case,param", CASES)
    def test_structure_metric_matches_closed_form(self, case, param):
        s, (h_closed, om_closed), dom = self._build(case, param)
        h = metric_from_coframe(s.frame)
        for q in sample(dom):
            np.testing.assert_allclose(
                h.matrix_at(q), h_closed.matrix_at(q), atol=1e-9
            )
            assert max_abs_at(s.omega - om_closed, q) <= 1e-9


class TestClassBHeisenbergEquivalence:
    def test_metric_agrees_under_substitution(self, rng):
        ell = 1.0
        hH = metric_from_coframe(heisenberg(ell).frame)
        hB = metric_from_coframe(class_b(repr(-ell / 4.0)).frame)
        jac = np.diag([4.0 / ell, 1.0, 1.0])
        for _ in range(25):
            x, y, t = rng.uniform(-1, 1, size=3)
            qx = pt(XYT, x, y, t)
            qp = pt(PYT, 4.0 * x / ell, y, t)
            pulled = jac.T @ hB.matrix_at(qp) @ jac
            np.testing.assert_allclose(pulled, hH.matrix_at(qx), atol=1e-10)


class TestClassC:
    @pytest.mark.parametrize("phi", list(CLASS_C_PHIS))
    def test_v_prefactor_identity(self, phi):
        K = k_from_phi(phi)
        s = class_c(K)
        k_of_s = parse_field(K, ["s"])
        for q in sample(default_domain("class_c", K=K, count=30)):
            p, _, t = q.coords
            sval = t * p * p
            kval = k_of_s(ChartPoint(("s",), (sval,)), 0).value
            assert s.V(q, 0).value == pytest.approx(-p / (4.0 * kval), rel=1e-12)

    def test_unknown_phi_rejected(self):
        with pytest.raises(ConfigError):
            k_from_phi("s^2")


# --- generator route ---------------------------------------------------------------


class TestFromGenerator:
    def test_quadratic_generator(self):
        s = from_generator(GeneratorG("p^2/2", "0"))
        q = pt(PYT, 0.7, 0.1, -0.4)
        assert s.V(q, 0).value == pytest.approx(-0.5)
        vals = [comp(s.omega, (i,))(q, 0).value for i in range(3)]
        assert vals == pytest.approx([0.0, -1.0, -0.7])

    @pytest.mark.parametrize(
        "case,param",
        (
            ("class_a", CLASS_A_BETAS[0]),
            ("class_a", CLASS_A_BETAS[1]),
            ("class_b", "1"),
            ("class_b", "1+p^2"),
            ("class_c", "2^(-4/3)*s^(-1/3)"),
            ("class_c", "s"),
        ),
    )
    def test_matches_closed_constructor(self, case, param):
        gen = from_generator(generator_for(case, param))
        if case == "class_a":
            ref = class_a(param)
            dom = default_domain(case, beta=param, count=30)
        elif case == "class_b":
            ref = class_b(param)
            dom = default_domain(case, F=param, count=30)
        else:
            K = k_from_phi(param)
            ref = class_c(K)
            dom = default_domain(case, K=K, count=30)
        for q in sample(dom):
            assert_structures_close(gen, ref, q, 1e-9)

    def test_degenerate_legendre_data_rejected(self):
        s = from_generator(GeneratorG("p", "0"))
        with pytest.raises(DegenerateLegendreError):
            s.V(pt(PYT, 1.0, 0.0, 0.0), 0)

    def test_unknown_case_has_no_generator(self):
        with pytest.raises(ConfigError):
            generator_for("heisenberg", None)


class TestGEquation:
    def test_quadratic_generator_solves(self):
        gen = GeneratorG("p^2/2", "0")
        assert g_equation_residual(gen, pt(PYT, 0.5, 0.2, 0.8)) == 0.0

    def test_class_a_generator_solves(self, rng):
        gen = generator_for("class_a", "exp(t)*sin(y)")
        for _ in range(10):
            q = pt(
                PYT,
                float(rng.uniform(0.5, 2.0)),
                float(rng.uniform(2.0, 3.0)),
                float(rng.uniform(0.2, 0.9)),
            )
            assert abs(g_equation_residual(gen, q)) <= 1e-10

    def test_cubic_b_fails(self):
        gen = GeneratorG("p^2/2", "y^3")
        q = pt(PYT, 0.5, 1.5, 0.3)
        assert abs(g_equation_residual(gen, q)) > 1e-3


class TestBranchResidual:
    def test_class_a_data_vanishes(self, rng):
        gen = generator_for("class_a", "y^2-2*t")
        for _ in range(10):
            q = pt(
                PYT,
                float(rng.uniform(0.5, 2.0)),
                float(rng.uniform(2.0, 3.0)),
                float(rng.uniform(0.2, 0.9)),
            )
            assert abs(branch_residual(gen.A, gen.B, q)) <= 1e-10

    def test_constant_b(self):
        assert branch_residual("p^2/2", "5", pt(PYT, 1.0, 2.0, 0.5)) == 0.0

    def test_cubic_b_closed_form(self, rng):
        for _ in range(5):
            p = float(rng.uniform(0.5, 2.0))
            y = float(rng.uniform(-2.0, 2.0))
            q = pt(PYT, p, y, 0.4)
            want = 36.0 * y**3 - 6.0 * p
            assert branch_residual("p^2/2", "y^3", q) == pytest.approx(want)


# --- fundamental solution ----------------------------------------------------------


class TestFundamentalH:
    def test_unit_value_point(self):
        j = fundamental_H(pt(XYT, 1.0, 3.0, 2.0), 0)
        assert j.value == pytest.approx(1.0)

    def test_cone_point_rejected(self):
        with pytest.raises(DomainError):
            fundamental_H(pt(XYT, 1.0, 2.0, 1.0), 1)

    def test_guarded_domain_respects_cone(self):
        dom = default_domain("from_H", count=50)
        field = parse_field("y^2-4*x*t", XYT)
        for q in sample(dom):
            assert field(q, 0).value > 0.25

    def test_the_guard_is_built_once(self):
        first = default_domain("from-H").guard
        assert first is not None and default_domain("from-H", seed=3).guard is first


def test_default_domain_unknown_case():
    with pytest.raises(ConfigError):
        default_domain("torus")


# --- the case rows -----------------------------------------------------------------


@pytest.mark.parametrize(
    "case, chart, box, guard, probe, value",
    (
        ("heisenberg", XYT, ((-1.0, 1.0),) * 3, None, None, None),
        ("class_a", PYT, ((0.5, 2.0), (2.0, 3.0), (0.2, 0.9)), ("beta > 0.1", 0.1),
         (1.0, 2.5, 0.5), 5.25),
        ("class_b", PYT, ((0.5, 2.0), (-1.0, 1.0), (-1.0, 1.0)), ("F^2 > 1e-4", 1e-4),
         (1.2, 0.3, 0.4), 1.0),
        ("class_c", PYT, ((0.5, 2.0), (-1.0, 1.0), (0.5, 2.0)), ("K^2 > 1e-6", 1e-6),
         (1.2, 0.3, 0.4), 0.576**2),
        ("from_H", XYT, ((-1.0, 1.0), (2.0, 3.0), (-1.0, 1.0)), ("y^2-4xt > 0.25", 0.25),
         (0.1, 2.5, 0.5), 6.05),
        ("from_G", PYT, ((0.5, 2.0), (-1.0, 1.0), (0.3, 1.5)), ("G_pp^2 > 1e-6", 1e-6),
         (1.2, 0.3, 0.4), 1.0 / 1.44),
    ),
)
def test_a_case_row_pins_its_chart_box_and_guard(case, chart, box, guard, probe, value):
    defaults = {name: default for name, (default, _) in CASES[case].exprs.items()}
    dom = default_domain(case, seed=5, count=3, **defaults)
    assert (dom.chart, dom.box, dom.seed, dom.count) == (chart, box, 5, 3)
    g = dom.guard
    assert (None if g is None else (g.label, g.threshold)) == guard
    if guard is not None:
        assert g.predicate(pt(chart, *probe), 0).value == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize(
    "case, param, message",
    (
        ("class_b", "2", "no recorded antiderivative for F = '2'"),
        ("class_c", "s^2", "no recorded generator for Phi = 's^2'"),
        ("heisenberg", None, "no generator route for case 'heisenberg'"),
        ("from_G", "p", "no generator route for case 'from_G'"),
        ("torus", None, "unknown case 'torus'"),
    ),
)
def test_a_case_without_a_recorded_generator_names_what_it_lacks(case, param, message):
    with pytest.raises(ConfigError) as err:
        generator_for(case, param)
    assert str(err.value) == message


def test_an_unknown_phi_names_its_k():
    with pytest.raises(ConfigError) as err:
        k_from_phi("s^2")
    assert str(err.value) == "no recorded K for Phi = 's^2'; supply K directly"


def test_an_unknown_case_has_no_domain():
    with pytest.raises(ConfigError) as err:
        default_domain("torus")
    assert str(err.value) == "unknown case 'torus'"


# --- one case lookup ------------------------------------------------------------

CASE_ENTRY_POINTS = {
    "cli.build_case": lambda case: sample(cli.build_case({**cli.DEFAULTS, "case": case, "points": 3})[1]),
    "families.build": lambda case: sample(fam.build(case, {}, count=3)[1]),
    "default_domain": lambda case: sample(fam.default_domain(case, count=3, F="1")),
    "generator_for": lambda case: fam.generator_for(case, "1"),
    "limit_family": lambda case: lift_mod.limit_family(case, 0.0)[1],
}


@pytest.mark.parametrize("entry", CASE_ENTRY_POINTS)
def test_every_case_entry_point_reads_a_dash_as_an_underscore(entry):
    fn = CASE_ENTRY_POINTS[entry]
    assert fn("class-b") == fn("class_b")


@pytest.mark.parametrize("entry", CASE_ENTRY_POINTS)
def test_every_case_entry_point_names_an_unknown_case_as_given(entry):
    with pytest.raises(ConfigError) as err:
        CASE_ENTRY_POINTS[entry]("nope")
    assert str(err.value) == "unknown case 'nope'"


@pytest.mark.parametrize("case", ["class-b", "class_b", "nope"])
def test_unread_flags_are_refused_for_a_known_case_only(case):
    cfg = {**cli.DEFAULTS, "command": "verify", "case": case}
    if case == "nope":
        assert cli._refuse_unread_flags(cfg, ["H"]) is None  # build_case names it
    else:
        with pytest.raises(ConfigError) as err:
            cli._refuse_unread_flags(cfg, ["H"])
        assert str(err.value) == f"--H is not used by verify --case {case}"
