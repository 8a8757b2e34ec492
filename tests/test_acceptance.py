"""End-to-end certification of every headline property at full sample size.

Each test prints one line with the measured worst-case numbers next to the
tolerance it certifies, so a verbose run doubles as a numerical report.
"""
import hashlib
import re

import numpy as np

from ewbench import (
    Field,
    LiftConfig,
    MetricField,
    em_residual,
    f_squared,
    from_uw,
    gauge_transform,
    gt_residual,
    heisenberg,
    kretschmann,
    maxwell_residual,
    metric_from_coframe,
    monopole_residual,
    parse_field,
    psi_const,
    ricci,
    weyl_ricci_residual,
)
from ewbench.cli import main
from ewbench.families import (
    CASES,
    CLASS_A_BETAS,
    CLASS_C_PHIS,
    class_a,
    class_b,
    class_c,
    default_domain,
    from_generator,
    generator_for,
)
from ewbench.forms import coordinate_form
from ewbench.jets import ChartPoint, sample
from ewbench.lift import assemble, build, flat_limit

from conftest import XYT, PYT, pt
from oracle import (
    CLASS_B_FS,
    constraints_residual,
    ext_d,
    fd_oracle,
    fundamental_H,
    hcr_residual,
    k_from_phi,
    max_abs_at,
    scalar_form,
)


def worst(values):
    return float(max(values))


# 1. every catalog family satisfies the frame system, the monopole equation,
#    and the direct Einstein-Weyl condition on 200 seeded points


def test_family_certification_on_full_sample():
    cases = [("heisenberg", heisenberg(1.0), default_domain("heisenberg"))]
    cases += [
        (f"class_a[{b}]", class_a(b), default_domain("class_a", beta=b))
        for b in CLASS_A_BETAS
    ]
    cases += [
        (f"class_b[{F}]", class_b(F), default_domain("class_b", F=F))
        for F in CLASS_B_FS
    ]
    cases += [
        (f"class_c[{phi}]", class_c(d["K"]), default_domain("class_c", K=d["K"]))
        for phi, d in CLASS_C_PHIS.items()
    ]
    overall = {}
    for name, s, dom in cases:
        pts = sample(dom)
        assert len(pts) == 200
        gt = worst(np.abs(gt_residual(s, q)).max() for q in pts)
        mono = worst(np.abs(monopole_residual(s, q)).max() for q in pts)
        ew = worst(weyl_ricci_residual(s, q)[1] for q in pts)
        overall[name] = max(gt, mono, ew)
        assert gt <= 1e-7, f"{name} frame-system residual {gt:.3e}"
        assert mono <= 1e-7, f"{name} monopole residual {mono:.3e}"
        assert ew <= 1e-7, f"{name} Einstein-Weyl residual {ew:.3e}"
    top = max(overall.values())
    print(f"family certification: 8 structures x 200 pts, worst {top:.3e} <= 1e-7")


# 2. the fundamental solution solves the scalar equation and both constraints


def test_fundamental_solution_on_guarded_sample():
    pts = sample(default_domain("from_H"))
    assert len(pts) == 200
    r = worst(abs(hcr_residual(fundamental_H, q)) for q in pts)
    parts = [constraints_residual(fundamental_H, q) for q in pts]
    nl = worst(abs(a) for a, _ in parts)
    ln = worst(abs(b) for _, b in parts)
    assert r <= 1e-8 and nl <= 1e-8 and ln <= 1e-8
    print(
        "fundamental solution: 200 pts, |scalar eq| "
        f"{r:.3e}, constraints ({nl:.3e}, {ln:.3e}) <= 1e-8"
    )


# 3. the closed-form classes, their generator reconstructions, and the
#    Heisenberg correspondence agree pointwise


def test_generator_route_reproduces_closed_forms():
    matrix = [
        ("class_a", b, dict(beta=b)) for b in CLASS_A_BETAS
    ] + [
        ("class_b", F, dict(F=F)) for F in CLASS_B_FS
    ] + [
        ("class_c", phi, dict(K=k_from_phi(phi))) for phi in CLASS_C_PHIS
    ]
    builders = {"class_a": class_a, "class_b": class_b, "class_c": class_c}
    top = 0.0
    for case, param, kw in matrix:
        gen = from_generator(generator_for(case, param))
        ref = builders[case](kw["K"] if case == "class_c" else param)
        for q in sample(default_domain(case, **kw)):
            dev = max(
                max_abs_at(la - lb, q)
                for la, lb in zip(gen.frame.legs, ref.frame.legs)
            )
            dev = max(dev, max_abs_at(gen.omega - ref.omega, q))
            dev = max(dev, abs(gen.V(q, 0).value - ref.V(q, 0).value))
            top = max(top, dev)
            assert dev <= 1e-9, f"{case}[{param}] deviates by {dev:.3e}"
    print(f"generator route: 7 members x 200 pts, worst deviation {top:.3e} <= 1e-9")


def test_class_b_is_heisenberg_in_disguise():
    ell = 1.0
    hH = metric_from_coframe(heisenberg(ell).frame)
    hB = metric_from_coframe(class_b(repr(-ell / 4.0)).frame)
    jac = np.diag([4.0 / ell, 1.0, 1.0])
    top = 0.0
    for q in sample(default_domain("heisenberg")):
        x, y, t = q.coords
        qp = pt(PYT, 4.0 * x / ell, y, t)
        dev = np.abs(jac.T @ hB.matrix_at(qp) @ jac - hH.matrix_at(q)).max()
        top = max(top, float(dev))
    assert top <= 1e-10
    print(f"class B vs Heisenberg under p = 4x/ell: 200 pts, worst {top:.3e} <= 1e-10")


# 4. the lifted space-times solve the Einstein-Maxwell equations; perturbed
#    bases do not


def _lift_cases():
    return (
        ("heisenberg", heisenberg(1.0), -1.0, default_domain("heisenberg", count=50)),
        ("class_b[1]", class_b("1"), 4.0, default_domain("class_b", F="1", count=50)),
        ("class_b[-1/4]", class_b("-1/4"), -1.0,
         default_domain("class_b", F="-1/4", count=50)),
    )


def test_lift_certification_full_matrix():
    rng = np.random.default_rng(2024)
    top = 0.0
    for name, base, ell, dom in _lift_cases():
        base_pts = sample(dom)
        for c in (0.0, 0.5):
            data = build(LiftConfig(base, psi_const(base, c), ell))
            fibres = rng.uniform(-1.2, 1.2, size=2 * len(base_pts))
            pts4 = [
                ChartPoint.make(data.chart, (fv,) + q.coords)
                for fv, q in zip(fibres, list(base_pts) * 2)
            ]
            assert len(pts4) == 100
            for q in pts4:
                em = np.abs(em_residual(data.g, data.potential, data.ell, q)).max()
                mx = np.abs(maxwell_residual(data.potential, data.g, q)).max()
                top = max(top, float(em), float(mx))
                assert em <= 1e-6, f"{name} c={c}: em residual {em:.3e}"
                assert mx <= 1e-6, f"{name} c={c}: maxwell residual {mx:.3e}"
    print(
        "lift certification: 3 bases x c in {0, 0.5} x 100 pts, "
        f"worst residual {top:.3e} <= 1e-6"
    )


def test_lift_negative_controls_fail():
    x = Field.coordinate("x")
    controls = (
        ("heisenberg", heisenberg(1.0), -1.0),
        ("linear shear", from_uw(parse_field("x", XYT), Field.const(0.0)), -4.0),
    )
    devs = []
    for name, base, ell in controls:
        bad = from_uw(base.u + 0.1 * x * x, base.w)
        data = assemble(LiftConfig(bad, psi_const(bad, 0), ell), "p")
        q = ChartPoint.make(data.chart, (0.4, 0.5, 0.3, 0.7))
        dev = float(np.abs(em_residual(data.g, data.potential, data.ell, q)).max())
        devs.append(dev)
        assert dev > 1e-3, f"perturbed {name} base slipped through: {dev:.3e}"
    print(
        "perturbed bases u -> u + 0.1x^2: em residuals "
        f"{devs[0]:.3e}, {devs[1]:.3e} > 1e-3"
    )


# 5. the curvature conventions are pinned by the anti-de Sitter oracle, and
#    the rejected field-strength normalization visibly fails


def test_convention_pinning_ads_oracle():
    ZXYT = ("z", "x", "y", "t")
    rng = np.random.default_rng(55)
    worst_einstein = 0.0
    worst_k = 0.0
    for ell in (1.0, 2.0):
        conf = parse_field("1/z^2", ZXYT) * (ell * ell)
        g = MetricField(
            ZXYT,
            {(0, 0): conf, (1, 1): conf, (2, 2): conf, (3, 3): -1.0 * conf},
        )
        for _ in range(10):
            q = pt(ZXYT, float(rng.uniform(0.4, 2.0)), *rng.uniform(-1, 1, size=3))
            res = ricci(g, q) + (3.0 / ell**2) * g.matrix_at(q)
            worst_einstein = max(worst_einstein, float(np.abs(res).max()))
            k = kretschmann(g, q)
            worst_k = max(worst_k, abs(k - 24.0 / ell**4) / (24.0 / ell**4))
    assert worst_einstein <= 1e-7
    assert worst_k <= 1e-6

    base = heisenberg(1.0)
    data = build(LiftConfig(base, psi_const(base, 0.5), -1.0))
    q = ChartPoint.make(data.chart, (0.3, 0.4, -0.2, 0.6))
    pinned = float(np.abs(em_residual(data.g, data.potential, data.ell, q)).max())
    fsq = f_squared(data.potential, data.g, q)[..., None, None]
    halved_em = em_residual(data.g, data.potential, data.ell, q) + 0.25 * fsq * data.g.matrix_at(q)
    halved = float(np.abs(halved_em).max())
    assert pinned <= 1e-6 and halved > 1e-3
    print(
        f"conventions: AdS Einstein residual {worst_einstein:.3e} <= 1e-7, "
        f"|Riemann|^2 off by {worst_k:.3e} rel <= 1e-6; halved |F|^2 "
        f"normalization fails at {halved:.3e}"
    )


# 6. conformal rescaling preserves the certified structures


def test_conformal_invariance_of_certificates():
    bases = {
        "x": ("0.1*x", "0.2*y", "-0.3*t", "0.1*x*y", "sin(x)", "0.2*cos(y)*t",
              "0.1*(x^2-t^2)", "tanh(x)+0.1*y", "0.1*exp(0.2*t)", "0.05*x*y*t"),
        "p": ("0.1*p", "0.2*y", "-0.3*t", "0.1*p*y", "sin(p)", "0.2*cos(y)*t",
              "0.1*(p^2-t^2)", "tanh(p)+0.1*y", "0.1*exp(0.2*t)", "0.05*p*y*t"),
    }
    rng = np.random.default_rng(66)
    structures = (
        (heisenberg(1.0), default_domain("heisenberg", count=40)),
        (class_b("1+p^2"), default_domain("class_b", F="1+p^2", count=40)),
    )
    top = 0.0
    for s, dom in structures:
        pts = sample(dom)
        for src in bases[s.chart[0]]:
            f = parse_field(src, s.chart) * float(rng.uniform(0.5, 1.5))
            out = gauge_transform(s, f)
            dev = worst(np.abs(gt_residual(out, q)).max() for q in pts)
            top = max(top, dev)
            assert dev <= 1e-6, f"gauge f = {src}: residual {dev:.3e}"
    print(f"conformal invariance: 2 structures x 10 gauges, worst {top:.3e} <= 1e-6")


# 7. the flat limit of the Heisenberg lifts converges quadratically and the
#    limit metric is flat


def test_flat_limit_rate_and_limit_curvature():
    def factory(scale):
        base, ell = CASES["heisenberg"].limit(scale)
        return LiftConfig(base, psi_const(base, 0.0), ell)

    rep = flat_limit(factory, (100.0, 200.0, 10000.0))
    ratio = rep["ratios"][0]
    rie = rep["riemann_limit"][-1]
    assert 3.6 <= ratio <= 4.4
    assert rie <= 1e-6
    print(
        f"flat limit: gap ratio at ell vs 2*ell = {ratio:.3f} in [3.6, 4.4]; "
        f"limit-metric Riemann at ell = 1e4 is {rie:.3e} <= 1e-6"
    )


# 8. infrastructure: d.d = 0, jets match finite differences on the catalog
#    fields, and reports are byte-stable


CATALOG_FIELDS = (
    ("y^2-2*t", XYT),
    ("exp(t)*sin(y)", XYT),
    ("1+p^2", PYT),
    ("-p^2/8", PYT),
    ("p^2/2+p^4/12", PYT),
    ("3*2^(-4/3)*t^(-1/3)*p^(1/3)", PYT),
    ("t*p^3/3", PYT),
    ("p*ln(p)-p", PYT),
    ("1/sqrt(y^2-4*x*t)", XYT),
)


def test_infrastructure_exterior_and_oracle_and_reports(capsys, tmp_path):
    # d o d on scalars and 1-forms
    rng = np.random.default_rng(77)
    dd_top = 0.0
    for src in ("x*y*t", "sin(x)*exp(t)", "tanh(y)+x^2"):
        f = scalar_form(XYT, parse_field(src, XYT))
        a = coordinate_form(XYT, "x").scale(parse_field(src, XYT))
        for _ in range(100):
            q = pt(XYT, *rng.uniform(-1, 1, size=3))
            dd_top = max(dd_top, max_abs_at(ext_d(ext_d(f)), q))
            dd_top = max(dd_top, max_abs_at(ext_d(ext_d(a)), q))
    assert dd_top <= 1e-9

    # jets vs finite differences on every catalog field
    fd_top = 0.0
    for src, chart in CATALOG_FIELDS:
        f = parse_field(src, chart)
        if chart == XYT:
            dom = default_domain("from_H", count=10)
        else:
            dom = default_domain("class_c", K="s", count=10)
        for q in sample(dom):
            jet = f(q, 1)
            grad_fd = np.array([fd_oracle(f, q, (i,)) for i in range(3)])
            scale = max(1.0, float(np.abs(jet.grad).max()))
            fd_top = max(fd_top, float(np.abs(jet.grad - grad_fd).max()) / scale)
    assert fd_top <= 1e-4

    # byte-stable reports
    args = ["verify", "--case", "heisenberg", "--checks", "gt", "--points", "20"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    strip = lambda s: re.sub(r",\n  \"wall_time_s\": [^\n]*", "", s)
    h1 = hashlib.sha256(strip(first).encode()).hexdigest()
    h2 = hashlib.sha256(strip(second).encode()).hexdigest()
    assert h1 == h2
    print(
        f"infrastructure: d o d worst {dd_top:.3e} <= 1e-9; jets vs finite "
        f"differences rel {fd_top:.3e} <= 1e-4; report hashes match ({h1[:12]})"
    )
