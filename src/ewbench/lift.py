"""Cosmological lifts: four-dimensional space-times fibred over a three-space.

A three-dimensional structure whose monopole function is the constant
V = -2/ell extends to a four-dimensional metric g and Maxwell potential A
on a fibre chart.  Two fibre coordinates are supported: a latitude-like
angle alpha, degenerate at the poles, and an unrestricted coordinate p
related to it by

    sin(alpha) = sech(p/ell),    cos(alpha) = tanh(p/ell).

Both charts carry the same geometry; the p chart extends smoothly through
the alpha = pi/2 slice.  ``flat_limit`` tracks the large-ell behaviour of a
lift family against its limit form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jets
from .curv import riemann
from .errors import ConfigError, GaugeViolationError, PsiResidualError
from .ew import EWStructure, WeightedForm, gt_residual, psi_residual
from .forms import (
    MetricField,
    PForm,
    coordinate_form,
    embed_form,
    embed_metric,
    ext_d,
    metric_from_coframe,
    symmetric_product,
    zero_form,
)
from .jets import ChartPoint, Field
from .report import run_check

GAUGE_TOL = 1e-9
GT_TOL = 1e-7
PSI_TOL = 1e-7
# the angle chart degenerates at the poles; keep samples away from them
ALPHA_WINDOW = (0.2, math.pi - 0.2)

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class SpacetimeData:
    """A four-dimensional metric and Maxwell potential on a named chart."""

    chart: tuple[str, ...]
    g: MetricField
    potential: PForm
    ell: float

    @property
    def fibre(self) -> str:
        return self.chart[0]


@dataclass(frozen=True)
class LiftConfig:
    """Input bundle for a lift.

    ``psi`` must carry conformal weight -1 (or be None for the zero field);
    ``c`` records the coefficient when psi comes from the c*omega preset.
    ``probes`` are base-chart points used to validate the gauge, the
    structure equations, and psi; when empty a deterministic default box is
    sampled, which suits bases defined on all of R^3.  ``validate=False``
    skips the checks, for deliberately broken inputs.
    """

    base: EWStructure
    psi: WeightedForm | None
    ell: float
    c: float = 0.0
    chart: str = "p"
    validate: bool = True
    probes: tuple[ChartPoint, ...] = ()

    def __post_init__(self):
        if self.ell == 0.0:
            raise ConfigError("ell must be nonzero")
        if self.chart not in ("alpha", "p"):
            raise ConfigError(f"unknown fibre chart {self.chart!r}")
        if self.psi is not None and self.psi.weight != -1:
            raise ConfigError(
                f"psi must have conformal weight -1, got {self.psi.weight}"
            )


def default_probes(chart, *, count=8):
    """Deterministic validation points in a fixed positive box."""
    rng = np.random.default_rng(424)
    rows = rng.uniform(0.25, 0.85, size=(count, len(chart)))
    return tuple(ChartPoint.make(chart, row) for row in rows)


def fix_ell_sign(base, ell, probe=None):
    """Return (ell', flipped) with the sign of ell chosen so V = -2/ell'.

    The magnitude is kept; only the sign is adjusted.  Raises
    GaugeViolationError when neither sign fits, e.g. when V is not the
    constant +-2/|ell| to begin with.
    """
    if probe is None:
        probe = default_probes(base.chart, count=1)[0]
    v = base.V(probe, 0).value
    for cand, flipped in ((float(ell), False), (-float(ell), True)):
        if abs(v * cand + 2.0) <= GAUGE_TOL:
            return cand, flipped
    raise GaugeViolationError(
        f"no sign of ell = {ell} gives V = -2/ell; V = {v:.6g} at the probe"
    )


def validate_config(cfg):
    """Check the gauge, the base structure equations, and psi on probes.

    Each condition is one ``run_check`` over the probes, named
    ``lift.gauge``, ``lift.gt`` and ``lift.psi``; a failing verdict raises
    GaugeViolationError (gauge, structure equations) or PsiResidualError,
    and a non-finite residual raises DomainError.
    """
    probes = cfg.probes or default_probes(cfg.base.chart)
    base = cfg.base
    r = run_check(
        "lift.gauge", lambda q: base.V(q, 0).value * cfg.ell + 2.0, probes, GAUGE_TOL
    )
    if r.verdict == "fail":
        raise GaugeViolationError(
            f"V*ell + 2 reaches {r.max:.3e}; the gauge V = -2/ell fails"
        )
    r = run_check("lift.gt", lambda q: gt_residual(base, q), probes, GT_TOL)
    if r.verdict == "fail":
        raise GaugeViolationError(
            f"base structure equations fail: residual {r.max:.3e}"
        )
    if cfg.psi is not None:
        r = run_check(
            "lift.psi", lambda q: psi_residual(cfg.psi, base, q), probes, PSI_TOL
        )
        if r.verdict == "fail":
            raise PsiResidualError(f"psi residual reaches {r.max:.3e}")
    return probes


def _embedded(cfg, chart4):
    """Base ingredients re-indexed onto the four-dimensional chart."""
    om = embed_form(cfg.base.omega, chart4)
    if cfg.psi is None:
        ps = zero_form(chart4, 1)
    else:
        ps = embed_form(cfg.psi.form, chart4)
    h4 = embed_metric(metric_from_coframe(cfg.base.frame), chart4)
    return om, ps, h4


def build_alpha(cfg):
    """Lift on the angle chart (alpha, base coordinates).

    g = (ell/sin(a) da - (ell/2)cos(a) omega + sqrt(2) sin(a) psi)^2
        + (1/sin^2 a) h,
    A = (sqrt(2)/2) sin(2a) psi - (ell/4) cos(2a) omega.
    """
    if "alpha" in cfg.base.chart:
        raise ConfigError("base chart already uses the name 'alpha'")
    if cfg.validate:
        validate_config(cfg)
    chart4 = ("alpha",) + cfg.base.chart
    ell = cfg.ell
    al = Field.coordinate("alpha")
    sa, ca = jets.sin(al), jets.cos(al)
    da = coordinate_form(chart4, "alpha")
    om, ps, h4 = _embedded(cfg, chart4)
    leg = (
        da.scale(ell / sa)
        - om.scale(ca * (ell / 2.0))
        + ps.scale(sa * _SQRT2)
    )
    g = symmetric_product(leg, leg) + h4.scale(1.0 / (sa * sa))
    pot = ps.scale(jets.sin(al * 2.0) * (_SQRT2 / 2.0)) - om.scale(
        jets.cos(al * 2.0) * (ell / 4.0)
    )
    return SpacetimeData(chart4, g, pot, ell)


def build_p(cfg):
    """Lift on the unrestricted fibre chart (p, base coordinates).

    The fibre leg is the exact pullback of the angle-chart leg under
    cos(alpha) = tanh(p/ell):

        dp + (ell/2) tanh(p/ell) omega - sqrt(2) sech(p/ell) psi,

    so the metric agrees pointwise with build_alpha at matched points.
    Squaring makes the overall sign of the leg immaterial; the relative
    signs are what that agreement pins down.  The potential is the same
    scalar combination as on the angle chart, rewritten in p.
    """
    if cfg.validate:
        validate_config(cfg)
    name = "p" if "p" not in cfg.base.chart else "q"
    chart4 = (name,) + cfg.base.chart
    ell = cfg.ell
    pc = Field.coordinate(name)
    th = jets.tanh(pc / ell)
    sech = 1.0 / jets.cosh(pc / ell)
    dp = coordinate_form(chart4, name)
    om, ps, h4 = _embedded(cfg, chart4)
    leg = dp + om.scale(th * (ell / 2.0)) - ps.scale(sech * _SQRT2)
    ch = jets.cosh(pc / ell)
    g = symmetric_product(leg, leg) + h4.scale(ch * ch)
    pot = ps.scale(sech * th * _SQRT2) - om.scale(
        (1.0 - sech * sech * 2.0) * (ell / 4.0)
    )
    return SpacetimeData(chart4, g, pot, ell)


def build(cfg):
    """Dispatch on the configured fibre chart."""
    return build_alpha(cfg) if cfg.chart == "alpha" else build_p(cfg)


# ---------------------------------------------------------------------------
# chart matching
# ---------------------------------------------------------------------------


def alpha_of_p(p, ell):
    """The angle of fibre coordinate p: a float, or the (N,) array of a
    batch's p column mapped entry by entry with ``math``, as at one point."""
    if np.ndim(p):
        return np.array([alpha_of_p(x, ell) for x in p.tolist()])
    return math.atan2(1.0 / math.cosh(p / ell), math.tanh(p / ell))


def p_of_alpha(alpha, ell):
    if not 0.0 < alpha < math.pi:
        raise ConfigError("alpha must lie in (0, pi)")
    return ell * math.atanh(math.cos(alpha))


def dalpha_dp(p, ell):
    return -1.0 / (ell * math.cosh(p / ell))


def matched_alpha_point(pt, ell):
    """Angle-chart point (or batch) matching a p-chart one (base coordinates
    kept)."""
    coords = (alpha_of_p(pt.coords[0], ell),) + tuple(pt.coords[1:])
    return pt.on_chart(("alpha",) + pt.chart[1:], coords)


# ---------------------------------------------------------------------------
# flat limit
# ---------------------------------------------------------------------------


def _limit_form(cfg, chart4):
    """Large-ell limit form: (dp + (p/2) omega - sqrt(2) psi)^2 + h.

    This replaces the fibre profiles by their leading terms,
    (ell/2)tanh(p/ell) -> p/2, sech -> 1, cosh^2 -> 1; the remainder of
    each replacement is O(ell^-2) at fixed p.
    """
    om, ps, h4 = _embedded(cfg, chart4)
    pc = Field.coordinate(chart4[0])
    dp = coordinate_form(chart4, chart4[0])
    leg = dp + om.scale(pc * 0.5) - ps.scale(_SQRT2)
    return symmetric_product(leg, leg) + h4


def flat_limit(factory, ells):
    """Track convergence of a lift family toward its limit form.

    ``factory`` maps a positive scale parameter to a LiftConfig whose base
    is built at that parameter.  For each value the p-chart lift is
    compared against the limit form at the same parameter, the field
    strength F = dA against its limit term (ell/4) d(omega) (with ell the
    sign-fixed lift parameter; cos(2 alpha) -> -1 at the equator), and the
    curvature of the limit form is recorded.  ``diverges`` is set when the
    form gap or the limit term grows along the sequence, which happens
    precisely when omega fails to scale with ell.

    Each per-ell maximum is one ``run_check`` over the points, named
    ``lift.<key>`` after its report key, so a non-finite value raises
    DomainError.
    """
    ells = [float(e) for e in ells]
    if len(ells) < 2:
        raise ConfigError("need at least two ell values")
    report = {
        "ells": ells,
        "ell_used": [],
        "form_gap": [],
        "ratios": [],
        "f_gap": [],
        "f_term": [],
        "f_norm": [],
        "riemann_limit": [],
    }
    # every ell is evaluated at the same six seeded points of [-0.8, 0.8]^4
    rows = np.random.default_rng(2026).uniform(-0.8, 0.8, size=(6, 4))
    for ell in ells:
        cfg = factory(ell)
        data = build_p(cfg)
        chart4 = data.chart
        pts = tuple(ChartPoint.make(chart4, row) for row in rows)
        g_lim = _limit_form(cfg, chart4)
        om4 = embed_form(cfg.base.omega, chart4)
        f_target = ext_d(om4).scale(data.ell / 4.0)
        f_full = ext_d(data.potential)
        keys = sorted(set(f_full.comps) | set(f_target.comps))
        residuals = {
            "form_gap": lambda q: data.g.matrix_at(q) - g_lim.matrix_at(q),
            "f_gap": lambda q: f_full.values_at(q, keys) - f_target.values_at(q, keys),
            "f_term": lambda q: f_target.values_at(q, keys),
            "f_norm": lambda q: f_full.values_at(q, keys),
            "riemann_limit": lambda q: riemann(g_lim, q),
        }
        for key, fn in residuals.items():
            report[key].append(run_check(f"lift.{key}", fn, pts, math.inf).max)
        report["ell_used"].append(data.ell)
    gaps = report["form_gap"]
    # a later gap of exactly 0 has no ratio: null in the report
    report["ratios"] = [
        gaps[i] / gaps[i + 1] if gaps[i + 1] else None
        for i in range(len(gaps) - 1)
    ]
    report["diverges"] = (
        gaps[-1] > gaps[0] or report["f_term"][-1] > report["f_term"][0]
    )
    return report
