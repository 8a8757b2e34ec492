"""The catalog of certified Einstein-Weyl structures.

Six cases: the nilpotent (Heisenberg) example and the structures of a
scalar solution H on (x, y, t); Classes A, B, C on a chart (p, y, t)
where p is the Legendre dual of x; and the structures of a Legendre
generator G(p, y, t) = A(p, t) + p B(y, t).  Each case is one ``CASES``
row: its expression parameters with their defaults, its constructor, its
sampling chart, box and guard (``default_domain``), the route to its
Legendre generator (``generator_for``) and its lift family (``limit``).
``case_row`` is the one lookup of a case name, which reads '-' as '_';
``build`` parses, checks and makes a field of each parameter once, for
the constructor and the guard.  A domain's sampling defaults,
``SAMPLE_SEED`` and ``SAMPLE_POINTS``, are stated here only: the CLI's
defaults read them.  The p-chart structures can be produced two
independent ways: directly from the closed-form coframe components
(class_a / class_b / class_c), or by running the generic Legendre-generator
route (from_generator) on the raw data.  Agreement of the two routes is one
of the main consistency checks of the suite; neither is an oracle for the
other in code, they only share the chart.

Closed-form constructors differentiate their parameter expressions once at
most, so curvature of the induced metric stays inside the jet cap
``jets.MAX_ORDER``.  The generator route's frame holds A_pp, so its weyl
check reads A through order 4, one past the cap of 3: it raises JetOrderError.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import expr as ex
from .errors import ConfigError, DegenerateLegendreError, HeatResidualError
from .ew import XYT, EWStructure, from_H, from_uw
from .forms import Coframe3, coordinate_form, zero_form
from .jets import Field, Guard, PointBatch, SampleDomain, anywhere, evaluation_scope, first_where
from .report import run_check

PYT = ("p", "y", "t")

LEGENDRE_TOL = 1e-10
HEAT_TOL = 1e-9
# a domain's seed and sample size unless one is given
SAMPLE_SEED = 7
SAMPLE_POINTS = 200


def _ast(source, variables):
    if isinstance(source, str):
        return ex.parse(source, variables)
    return source


# ---------------------------------------------------------------------------
# Heisenberg example
# ---------------------------------------------------------------------------


def heisenberg(ell):
    """u = 4/ell x, w = 0; the structure lives on a nilpotent group.

    V comes out as the constant +2/ell.  ``ell`` is a number, or an (N,)
    array that gives each row of a batch of N points its own ell.  A zero
    number is refused; an array is not checked, and a row whose 4/ell is
    not finite, a zero one included, is left to evaluation, as the
    constants of every field that does not fold are.
    """
    if type(ell) is np.ndarray:
        with np.errstate(divide="ignore", over="ignore"):  # inf, as a float's 4/ell
            u_x = 4.0 / ell
    else:
        ell = float(ell)
        if ell == 0.0:
            raise ConfigError("heisenberg requires ell != 0")
        u_x = 4.0 / ell
    u = Field.coordinate("x") * u_x
    return from_uw(u, Field.const(0.0))


def psi_const(s, c):
    """The particular solution psi = c omega, c constant.

    At c = 0, of either sign, it is the zero 1-form, with no components
    rather than the components of 0 omega: a lift, limit form or residual
    built from it then builds and evaluates no psi terms, while a psi
    check of it still tests the coframe determinant at every point (see
    ``ew.psi_residual``).
    """
    if c == 0:
        return zero_form(s.chart, 1)
    return s.omega.scale(float(c))


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
        u=p,
        w=p * ry,
    )


def _heat_probe(beta_ast):
    rng = np.random.default_rng(1234)
    pts = PointBatch(("y", "t"), rng.uniform((2.0, 0.2), (3.0, 0.9), size=(25, 2)))

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
    """Class B structure from an arbitrary nonvanishing F(p): expression
    text, a parsed expression, or a number or an (N,) array of one per
    row of a batch, which is the constant field of its value (see
    ``jets.Field``).  A constant F is not checked: where 1/F does not fold,
    in some row of an array, it is left to evaluation, which raises
    DomainError at a zero F."""
    if isinstance(F, (int, float, np.ndarray)):
        f = Field.const(F)
    else:
        f = ex.to_field(_ast(F, ["p"]))
    p = Field.coordinate("p")
    frame, dp, dy, dt = _p_coframe(a_pp=f, dy_extra=0.0, dt_extra=0.0)
    inv = 1.0 / f
    omega = -(dy.scale(inv) + dt.scale(p * inv))
    return EWStructure(
        frame=frame,
        omega=omega,
        V=-0.5 * inv,
        u=p,
        w=Field.const(0.0),
    )


def _k_field(K):
    """K(s) composed with s = t p^2, as a field on (p, y, t)."""
    return ex.to_field(ex.substitute(_ast(K, ["s"]), "s", ex.parse("t*p^2", ["p", "t"])))


def class_c(K):
    """Class C structure from K(s), s = t p^2, K nonvanishing.

    K is supplied as an expression in the single variable s and composed
    with s = t p^2 here, so callers parameterize by the similarity
    variable rather than by (p, t) separately.
    """
    k = _k_field(K)
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
        u=p,
        w=-p * b_y,
    )


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
    carry second derivatives of A and B, so weyl reads A through order 4,
    one past the jet cap of 3 (``jets.MAX_ORDER``), and raises JetOrderError.
    """
    a = ex.to_field(gen.A)
    b = ex.to_field(gen.B)
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
        u=p,
        w=-p * b_y,
    )


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

CLASS_A_BETAS = ("y^2-2*t", "exp(t)*sin(y)")

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


def _preset(table, key, what):
    """``table[key]``, or a ConfigError naming the ``what`` not recorded."""
    if key not in table:
        raise ConfigError(f"no recorded {what} = {key!r}")
    return table[key]


def generator_for(case, param):
    """GeneratorG matching a closed-form class member: its ``CASES`` row's route."""
    row = case_row(case)
    if row.generator is None:
        raise ConfigError(f"no generator route for case {case!r}")
    return row.generator(param)


# ---------------------------------------------------------------------------
# sampling domains
# ---------------------------------------------------------------------------


def default_domain(case, *, seed=SAMPLE_SEED, count=SAMPLE_POINTS, **params):
    """The pinned sampling box and guard (or None) of a catalog case, from its row.

    ``params`` holds the case's expression parameters (``CASES``), as text
    or parsed; a guard that reads one it is not given raises ConfigError.
    """
    row = case_row(case)

    def param(name):
        if params.get(name) is None:
            raise ConfigError(f"{case} domain needs {name}")
        return _ast(params[name], row.exprs[name][1])

    guard = None if row.guard is None else row.guard(param)
    return SampleDomain(row.chart, row.box, guard, seed, count)


# ---------------------------------------------------------------------------
# the case table
# ---------------------------------------------------------------------------


def _nonzero(field, floor, label):
    """The guard field^2 > floor, keeping clear of a zero of ``field``."""
    return Guard(field * field, floor, label)


class Case(NamedTuple):
    """One catalog case.  ``limit`` states the gauge V = -2/ell of the
    case's lift family by construction: heisenberg(s) has V = +2/s and
    lifts at ell = -s; class B at F = s/4 has V = -2/s, at ell = s."""

    exprs: dict  # expression parameter -> (default text, its variables), in flag order
    make: Callable  # (ell, **parsed parameters) -> structure
    chart: tuple  # the sampling chart
    box: tuple  # the sampling box, a (low, high) per chart coordinate
    guard: Callable = None  # (param lookup of default_domain) -> the domain's Guard
    generator: Callable = None  # preset text -> the matching GeneratorG
    reads_ell: bool = False  # whether the structure reads the scale ell
    limit: Callable = None  # scale s (number, or array of one per row) -> (base, lift ell)


# the from-H guard reads no parameter: it is built once
_FROM_H_GUARD = Guard(ex.parse_field("y^2-4*x*t", XYT), 0.25, "y^2-4xt > 0.25")

# a catalog case per name.  The constructors are looked up when called, so a
# wrapped one is used.  Guards keep clear of the singular sets: beta > 0
# under the logarithm, F, K and A_pp away from zero where inverted, and the
# light cone for the fundamental solution; every p box keeps p > 0 where
# dp/p appears.
CASES = {
    "heisenberg": Case(
        {}, lambda ell: heisenberg(ell), XYT, ((-1.0, 1.0),) * 3, reads_ell=True,
        limit=lambda s: (heisenberg(s), -s),
    ),
    "class_a": Case(
        {"beta": (CLASS_A_BETAS[0], ("y", "t"))}, lambda ell, beta: class_a(beta),
        PYT, ((0.5, 2.0), (2.0, 3.0), (0.2, 0.9)),
        lambda param: Guard(ex.to_field(param("beta")), 0.1, "beta > 0.1"),
        lambda beta: GeneratorG("p*ln(p)-p", ex.Neg(ex.Call("ln", _ast(beta, ["y", "t"])))),
    ),
    "class_b": Case(
        {"F": ("1", ("p",))}, lambda ell, F: class_b(F),
        PYT, ((0.5, 2.0), (-1.0, 1.0), (-1.0, 1.0)),
        lambda param: _nonzero(ex.to_field(param("F")), 1e-4, "F^2 > 1e-4"),
        lambda F: GeneratorG(_preset(_CLASS_B_AS, F, "antiderivative for F"), "0"),
        limit=lambda s: (class_b(s / 4.0), s),
    ),
    "class_c": Case(
        {"K": ("s", ("s",))}, lambda ell, K: class_c(K),
        PYT, ((0.5, 2.0), (-1.0, 1.0), (0.5, 2.0)),
        lambda param: _nonzero(_k_field(param("K")), 1e-6, "K^2 > 1e-6"),
        lambda phi: GeneratorG(_preset(CLASS_C_PHIS, phi, "generator for Phi")["A"], "-y^2/(4*t)"),
    ),
    "from_H": Case(
        {"H": ("1/sqrt(y^2-4*x*t)", XYT)}, lambda ell, H: from_H(ex.to_field(H)),
        XYT, ((-1.0, 1.0), (2.0, 3.0), (-1.0, 1.0)),
        lambda param: _FROM_H_GUARD,
    ),
    "from_G": Case(
        {"A": ("p*ln(p)-p", ("p", "t")), "B": ("0", ("y", "t"))},
        lambda ell, A, B: from_generator(GeneratorG(A, B)),
        PYT, ((0.5, 2.0), (-1.0, 1.0), (0.3, 1.5)),
        lambda param: _nonzero(ex.to_field(param("A")).d("p").d("p"), 1e-6, "G_pp^2 > 1e-6"),
    ),
}


def case_row(case):
    """The ``CASES`` row of ``case``, which may spell '_' as '-', as the CLI
    does; ConfigError naming the case as given when there is none."""
    row = CASES.get(case.replace("-", "_"))
    if row is None:
        raise ConfigError(f"unknown case {case!r}")
    return row


def build(case, params, *, ell=None, seed=SAMPLE_SEED, count=SAMPLE_POINTS):
    """(structure, sampling domain) of a catalog case.

    A parameter that ``params`` lacks or holds as None takes its default;
    each is parsed once, and a constant one that is not finite is a
    ConfigError.  The constructor and the guard, run in one evaluation
    scope, share its field (``expr.to_field``).  ``ell`` (default 1) is
    read only by a case that ``reads_ell``.
    """
    row = case_row(case)
    asts = {}
    with evaluation_scope():
        for name, (default, variables) in row.exprs.items():
            source = params.get(name)
            asts[name] = _ast(default if source is None else source, variables)
            ex.to_field(asts[name], name)
        s = row.make(1.0 if ell is None else ell, **asts)
        return s, default_domain(case, seed=seed, count=count, **asts)
