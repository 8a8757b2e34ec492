"""The catalog of certified Einstein-Weyl structures.

Four named constructions: the nilpotent (Heisenberg) example on (x, y, t),
and Classes A, B, C on a chart (p, y, t) where p is the Legendre dual of x.
The p-chart structures can be produced two independent ways: directly from
the closed-form coframe components (class_a / class_b / class_c), or by
running the generic Legendre-generator route (from_generator) on the raw
data G(p, y, t) = A(p, t) + p B(y, t).  Agreement of the two routes is one
of the main consistency checks of the suite; neither is an oracle for the
other in code, they only share the chart.

Closed-form constructors differentiate their parameter expressions once at
most, so curvature of the induced metric stays inside the order-3 jet cap.
The generator route needs A_pp and therefore tops out at the exterior
residuals; asking it for curvature raises JetOrderError by design.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import ConfigError, DegenerateLegendreError, HeatResidualError
from .ew import EWStructure, WeightedForm, from_uw
from .forms import (
    Coframe3,
    coordinate_form,
    ext_d,
    scalar_form,
    symmetric_product,
)
from .jets import ChartPoint, Field, Guard, SampleDomain, anywhere, first_where
from .report import run_check

__all__ = [
    "PYT",
    "XYT",
    "heisenberg",
    "heisenberg_psi",
    "psi_const",
    "class_a",
    "class_b",
    "class_c",
    "GeneratorG",
    "from_generator",
    "generator_for",
    "g_equation_residual",
    "branch_residual",
    "fundamental_H",
    "FUNDAMENTAL_H",
    "class_a_closed",
    "class_b_closed",
    "class_c_closed",
    "default_domain",
    "CLASS_A_BETAS",
    "CLASS_B_FS",
    "CLASS_C_PHIS",
    "k_from_phi",
]

XYT = ("x", "y", "t")
PYT = ("p", "y", "t")

LEGENDRE_TOL = 1e-10
HEAT_TOL = 1e-9


def _ast(source, variables):
    if isinstance(source, str):
        return ex.parse(source, variables)
    return source


# ---------------------------------------------------------------------------
# Heisenberg example
# ---------------------------------------------------------------------------


def heisenberg(ell):
    """u = 4/ell x, w = 0; the structure lives on a nilpotent group.

    V comes out as the constant +2/ell.
    """
    ell = float(ell)
    if ell == 0.0:
        raise ConfigError("heisenberg requires ell != 0")
    u = Field.coordinate("x") * (4.0 / ell)
    return from_uw(u, Field.const(0.0), family="heisenberg")


def psi_const(s, c):
    """The particular solution psi = c omega (weight -1), c constant."""
    return WeightedForm(s.omega.scale(float(c)), -1.0)


def heisenberg_psi(s, c_source, k_source):
    """The y-independent family psi = c(x) omega + d(c + k), weight -1.

    c depends on x only and k on t only; both may be expression text.
    """
    c_field = ex.to_field(_ast(c_source, ["x"]))
    k_field = ex.to_field(_ast(k_source, ["t"]))
    psi = s.omega.scale(c_field) + ext_d(scalar_form(s.chart, c_field + k_field))
    return WeightedForm(psi, -1.0)


# ---------------------------------------------------------------------------
# closed-form classes on (p, y, t)
# ---------------------------------------------------------------------------


def _p_coframe(a_pp, dy_extra, dt_extra):
    """e1 = -a_pp dp - (p + dy_extra) dy - dt_extra dt, e2 = dy - p dt, e3 = dt."""
    p = Field.coordinate("p")
    dp = coordinate_form(PYT, "p")
    dy = coordinate_form(PYT, "y")
    dt = coordinate_form(PYT, "t")
    e1 = -dp.scale(a_pp) - dy.scale(p + dy_extra) - dt.scale(dt_extra)
    e2 = dy - dt.scale(p)
    e3 = dt
    return Coframe3(e1, e2, e3), dp, dy, dt


def class_a(beta):
    """Class A structure from beta(y, t) solving beta_t + beta_yy = 0.

    The heat condition is probed on a fixed deterministic point set before
    anything is built; a violation is a constructor error, not a residual.
    """
    beta_ast = _ast(beta, ["y", "t"])
    _heat_probe(beta_ast)
    b = ex.to_field(beta_ast)
    by = b.d("y")
    bt = b.d("t")
    p = Field.coordinate("p")
    ry = by / b
    rt = bt / b
    frame, dp, dy, dt = _p_coframe(
        a_pp=1.0 / p, dy_extra=-ry, dt_extra=-rt - p * ry
    )
    omega = -(dy.scale(p) + dt.scale(p * (p - 2.0 * ry)))
    return EWStructure(
        frame=frame,
        omega=omega,
        V=p * (-0.5),
        family="class_a",
        u=p,
        w=p * ry,
    )


def _heat_probe(beta_ast):
    rng = np.random.default_rng(1234)
    rows = rng.uniform((2.0, 0.2), (3.0, 0.9), size=(25, 2))
    pts = [ChartPoint(("y", "t"), (float(y), float(t))) for y, t in rows]

    def heat(pt):
        j = ex.eval_jet(beta_ast, pt, 2)
        return j.grad[..., 1] + j.hess[..., 0, 0]

    r = run_check("families.heat", heat, pts, HEAT_TOL)
    if r.verdict == "fail":
        raise HeatResidualError(
            f"beta_t + beta_yy reaches {r.max:.3e} on the probe set "
            f"(tolerance {HEAT_TOL:g})"
        )


def class_b(F):
    """Class B structure from an arbitrary nonvanishing F(p)."""
    f = ex.to_field(_ast(F, ["p"]))
    p = Field.coordinate("p")
    frame, dp, dy, dt = _p_coframe(a_pp=f, dy_extra=0.0, dt_extra=0.0)
    inv = 1.0 / f
    omega = -(dy.scale(inv) + dt.scale(p * inv))
    return EWStructure(
        frame=frame,
        omega=omega,
        V=-0.5 * inv,
        family="class_b",
        u=p,
        w=Field.const(0.0),
    )


def class_c(K):
    """Class C structure from K(s), s = t p^2, K nonvanishing.

    K is supplied as an expression in the single variable s and composed
    with s = t p^2 here, so callers parameterize by the similarity
    variable rather than by (p, t) separately.
    """
    k_ast = _ast(K, ["s"])
    k_pyt = ex.substitute(k_ast, "s", ex.parse("t*p^2", ["p", "t"]))
    k = ex.to_field(k_pyt)
    p = Field.coordinate("p")
    y = Field.coordinate("y")
    t = Field.coordinate("t")
    b_y = -y / (2.0 * t)
    frame, dp, dy, dt = _p_coframe(
        a_pp=2.0 * k / p,
        dy_extra=b_y,
        dt_extra=k / t + y * y / (4.0 * t * t) + p * b_y,
    )
    pref = -p / (2.0 * k)
    omega = dy.scale(pref) + dt.scale(pref * (p + 2.0 * b_y))
    return EWStructure(
        frame=frame,
        omega=omega,
        V=-p / (4.0 * k),
        family="class_c",
        u=p,
        w=-p * b_y,
    )


# ---------------------------------------------------------------------------
# closed-form (h, omega) pairs for the cross-checks
# ---------------------------------------------------------------------------


def _dy_p_dt():
    dy = coordinate_form(PYT, "y")
    dt = coordinate_form(PYT, "t")
    return dy + dt.scale(Field.coordinate("p")), dy, dt


def class_a_closed(beta):
    """Closed-form (h, omega) for Class A.

    h = (dy+pdt)^2 + 4(dp/p - (beta_y/beta)(dy+pdt) - (beta_t/beta)dt) (.) dt.
    The bracket enters with a plus sign: that is what the generator route
    produces and what matches Classes B and C; the opposite sign fails the
    direct Einstein-Weyl check (see tests).
    """
    b = ex.to_field(_ast(beta, ["y", "t"]))
    ry = b.d("y") / b
    rt = b.d("t") / b
    p = Field.coordinate("p")
    dyp, dy, dt = _dy_p_dt()
    dp = coordinate_form(PYT, "p")
    bracket = dp.scale(1.0 / p) - dyp.scale(ry) - dt.scale(rt)
    h = symmetric_product(dyp, dyp) + symmetric_product(bracket, dt).scale(4.0)
    omega = -dyp.scale(p) + dt.scale(2.0 * p * ry)
    return h, omega


def class_b_closed(F):
    """h = (dy+pdt)^2 + 4F dp (.) dt, omega = -(1/F)(dy+pdt)."""
    f = ex.to_field(_ast(F, ["p"]))
    dyp, dy, dt = _dy_p_dt()
    dp = coordinate_form(PYT, "p")
    h = symmetric_product(dyp, dyp) + symmetric_product(dp, dt).scale(4.0 * f)
    omega = -dyp.scale(1.0 / f)
    return h, omega


def class_c_closed(K):
    """Closed-form (h, omega) for Class C with K = K(t p^2)."""
    k_pyt = ex.substitute(
        _ast(K, ["s"]), "s", ex.parse("t*p^2", ["p", "t"])
    )
    k = ex.to_field(k_pyt)
    p = Field.coordinate("p")
    y = Field.coordinate("y")
    t = Field.coordinate("t")
    dyp, dy, dt = _dy_p_dt()
    dp = coordinate_form(PYT, "p")
    bracket = (
        dp.scale(2.0 * k / p)
        - dy.scale(y / (2.0 * t))
        + dt.scale((y * y / (4.0 * t) + k - p * y * 0.5) / t)
    )
    h = symmetric_product(dyp, dyp) + symmetric_product(bracket, dt).scale(4.0)
    omega = (dyp - dt.scale(y / t)).scale(-p / (2.0 * k))
    return h, omega


# ---------------------------------------------------------------------------
# the Legendre generator route
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorG:
    """Raw generator data G = A(p, t) + p B(y, t) on the (p, y, t) chart."""

    A: object
    B: object

    def __post_init__(self):
        object.__setattr__(self, "A", _ast(self.A, ["p", "t"]))
        object.__setattr__(self, "B", _ast(self.B, ["y", "t"]))

    def a_field(self):
        return ex.to_field(self.A)

    def b_field(self):
        return ex.to_field(self.B)


def _legendre_inv(g_pp):
    """1 / G_pp with the degeneracy cutoff, as a field."""

    def fn(pt, order=0):
        j = g_pp(pt, order)
        small = np.abs(j.value) < LEGENDRE_TOL
        if anywhere(small):
            raise DegenerateLegendreError(
                f"|G_pp| = {abs(first_where(j.value, small)):.3e} "
                f"below {LEGENDRE_TOL:g} at {pt.coords}"
            )
        return j.reciprocal()

    return Field(fn)


def from_generator(gen):
    """Structure from the generator: substitute dx = -(G_pp dp + G_py dy + G_pt dt).

    u = p and w = -p B_y; the frame is e^i with x eliminated.  Components
    carry second derivatives of A and B, so only the exterior residuals are
    available at full order; curvature-grade consumers should use the
    closed-form constructors.
    """
    a = gen.a_field()
    b = gen.b_field()
    a_pp = a.d("p").d("p")
    a_pt = a.d("p").d("t")
    b_y = b.d("y")
    b_t = b.d("t")
    p = Field.coordinate("p")
    frame, dp, dy, dt = _p_coframe(
        a_pp=a_pp, dy_extra=b_y, dt_extra=a_pt + b_t + p * b_y
    )
    inv = _legendre_inv(a_pp)
    omega = -(dy + dt.scale(p + 2.0 * b_y)).scale(inv)
    return EWStructure(
        frame=frame,
        omega=omega,
        V=inv * (-0.5),
        family="generator",
        u=p,
        w=-p * b_y,
    )


def g_equation_residual(gen, pt):
    """G_yp^2 - G_yy G_pp - G_pt for G = A + pB, as jets of A and B."""
    ja = ex.eval_jet(gen.A, pt, 2)
    jb = ex.eval_jet(gen.B, pt, 2)
    ip, iy, it = (pt.chart.index(n) for n in PYT)
    p = pt.coord("p")
    g_yp = jb.grad[..., iy]
    g_yy = p * jb.hess[..., iy, iy]
    g_pp = ja.hess[..., ip, ip]
    g_pt = ja.hess[..., ip, it] + jb.grad[..., it]
    return g_yp**2 - g_yy * g_pp - g_pt


def branch_residual(A, B, pt):
    """2 B_y B_yy - p B_yyy A_pp - B_yt, the y-derivative of the G-equation."""
    ja = ex.eval_jet(_ast(A, ["p", "t"]), pt, 2)
    jb = ex.eval_jet(_ast(B, ["y", "t"]), pt, 3)
    ip, iy, it = (pt.chart.index(n) for n in PYT)
    p = pt.coord("p")
    return (
        2.0 * jb.grad[..., iy] * jb.hess[..., iy, iy]
        - p * jb.third[..., iy, iy, iy] * ja.hess[..., ip, ip]
        - jb.hess[..., iy, it]
    )


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

CLASS_A_BETAS = ("y^2-2*t", "exp(t)*sin(y)")
CLASS_B_FS = ("-1/4", "1", "1+p^2")

# Phi parameterizes Class C through A_p = Phi(t p^2); K = s Phi'(s).
# Antiderivatives in p are recorded alongside for the generator route.
CLASS_C_PHIS = {
    "2^(-4/3)*s^(-1/3)": {
        "K": "-(1/3)*2^(-4/3)*s^(-1/3)",
        "A": "3*2^(-4/3)*t^(-1/3)*p^(1/3)",
    },
    "s": {
        "K": "s",
        "A": "t*p^3/3",
    },
}

# closed-form antiderivatives a(p) with a_pp = F for the Class B presets
_CLASS_B_AS = {
    "-1/4": "-p^2/8",
    "1": "p^2/2",
    "1+p^2": "p^2/2+p^4/12",
}


def k_from_phi(phi_source):
    """K expression for a Class C member given Phi (A_p = Phi(tp^2))."""
    try:
        return CLASS_C_PHIS[phi_source]["K"]
    except KeyError:
        raise ConfigError(
            f"no recorded K for Phi = {phi_source!r}; supply K directly"
        ) from None


def generator_for(case, param):
    """GeneratorG matching a closed-form class member, for cross-checks."""
    if case == "class_a":
        beta_ast = _ast(param, ["y", "t"])
        b_ast = ex.Neg(ex.Call("ln", beta_ast))
        return GeneratorG("p*ln(p)-p", b_ast)
    if case == "class_b":
        if param not in _CLASS_B_AS:
            raise ConfigError(
                f"no recorded antiderivative for F = {param!r}"
            )
        return GeneratorG(_CLASS_B_AS[param], "0")
    if case == "class_c":
        if param not in CLASS_C_PHIS:
            raise ConfigError(f"no recorded generator for Phi = {param!r}")
        return GeneratorG(CLASS_C_PHIS[param]["A"], "-y^2/(4*t)")
    raise ConfigError(f"no generator route for case {case!r}")


# ---------------------------------------------------------------------------
# the fundamental solution
# ---------------------------------------------------------------------------

FUNDAMENTAL_H = ex.parse_field("1/sqrt(y^2-4*x*t)", ["x", "y", "t"])


def fundamental_H(pt, order=3):
    """Jet of H = (y^2 - 4xt)^(-1/2); domain error on the cone."""
    return FUNDAMENTAL_H(pt, order)


# ---------------------------------------------------------------------------
# sampling domains
# ---------------------------------------------------------------------------


def default_domain(case, *, seed=7, count=200, beta=None, F=None, K=None, H=None):
    """The pinned sampling box and guards for each catalog case.

    Guards keep clear of the singular sets: p > 0 where dp/p appears,
    beta > 0 under the logarithm, F and K away from zero where inverted,
    and the light cone for the fundamental solution.
    """
    if case == "heisenberg":
        return SampleDomain(XYT, ((-1.0, 1.0),) * 3, (), seed, count)
    if case == "from_H":
        guards = (
            Guard(
                ex.to_field(ex.parse("y^2-4*x*t", ["x", "y", "t"])),
                0.25,
                "y^2-4xt > 0.25",
            ),
        )
        box = ((-1.0, 1.0), (2.0, 3.0), (-1.0, 1.0))
        return SampleDomain(XYT, box, guards, seed, count)
    if case == "class_a":
        if beta is None:
            raise ConfigError("class_a domain needs beta")
        guard = Guard(ex.to_field(_ast(beta, ["y", "t"])), 0.1, "beta > 0.1")
        box = ((0.5, 2.0), (2.0, 3.0), (0.2, 0.9))
        return SampleDomain(PYT, box, (guard,), seed, count)
    if case == "class_b":
        if F is None:
            raise ConfigError("class_b domain needs F")
        f = ex.to_field(_ast(F, ["p"]))
        guard = Guard(f * f, 1e-4, "F^2 > 1e-4")
        box = ((0.5, 2.0), (-1.0, 1.0), (-1.0, 1.0))
        return SampleDomain(PYT, box, (guard,), seed, count)
    if case == "class_c":
        if K is None:
            raise ConfigError("class_c domain needs K")
        k_pyt = ex.substitute(_ast(K, ["s"]), "s", ex.parse("t*p^2", ["p", "t"]))
        k = ex.to_field(k_pyt)
        guard = Guard(k * k, 1e-6, "K^2 > 1e-6")
        box = ((0.5, 2.0), (-1.0, 1.0), (0.5, 2.0))
        return SampleDomain(PYT, box, (guard,), seed, count)
    raise ConfigError(f"unknown case {case!r}")
