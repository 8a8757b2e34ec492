"""Cosmological lifts: four-dimensional space-times fibred over a three-space.

A three-dimensional structure whose monopole function is the constant
V = -2/ell extends to a four-dimensional metric g and Maxwell potential A
on a fibre chart, one row of ``FIBRES``: a latitude-like angle alpha,
degenerate at the poles, or an unrestricted coordinate p related to it by

    sin(alpha) = sech(p/ell),    cos(alpha) = tanh(p/ell).

Both charts carry the same geometry; the p chart extends smoothly through
the alpha = pi/2 slice.  ``assemble`` builds a lift from its chart's row,
unvalidated; ``build`` is the one builder that validates a config.
``fibre_points`` samples a lift's chart and ``invariants_check`` compares
the two charts.  ``fix_ell_sign`` is the one choice of a number ell for a
base: -2/V when none is given, else the given magnitude with the sign that
makes V = -2/ell.  ``flat_limit`` tracks the large-ell behaviour of a lift
family against its limit form; ``limit_family`` reads a case's family,
heisenberg(ell) or class B with F = ell/4, from its ``families.CASES``
row, which states its gauge.  ``PROBES``, the number of points that
validate a lift, is stated here only: the CLI reads it.

A family's scale may be an (N,) array, one ell per row of a batch of N
points, which field algebra takes as a constant with one number per row
(see ``jets.Field``), so that ``flat_limit`` builds the family once for
every ell; no sign rule reads it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import families as fam
from . import jets
from .curv import field_strength, pack_reads, riemann, scalar_invariants
from .errors import (
    ConfigError,
    DomainError,
    EwbenchError,
    GaugeViolationError,
    PsiResidualError,
)
from .ew import EWStructure, gt_residual, psi_residual
from .forms import (
    MetricField,
    PForm,
    coordinate_form,
    embed_form,
    embed_metric,
    metric_from_coframe,
    signature,
    symmetric_product,
)
from .jets import ChartPoint, Field, PointBatch, row_numbers
from .report import run_check

GAUGE_TOL = 1e-9
GT_TOL = 1e-7
PSI_TOL = 1e-7
PROBES = 8  # points that validate a lift: the default probes, or a CLI sample's first

_SQRT2 = math.sqrt(2.0)


def _alpha_profile(al, ell):
    """g = (ell/sin(a) da - (ell/2)cos(a) omega + sqrt(2) sin(a) psi)^2
        + (1/sin^2 a) h,
    A = (sqrt(2)/2) sin(2a) psi - (ell/4) cos(2a) omega."""
    sa, ca = jets.sin(al), jets.cos(al)
    return (ell / sa, ca * (-ell / 2.0), sa * _SQRT2, 1.0 / (sa * sa),
            jets.sin(al * 2.0) * (_SQRT2 / 2.0), jets.cos(al * 2.0) * (ell / 4.0))


def _p_profile(p, ell):
    """The angle chart's leg pulled back under cos(alpha) = tanh(p/ell),

        dp + (ell/2) tanh(p/ell) omega - sqrt(2) sech(p/ell) psi,

    so the metric agrees pointwise with the angle chart's at matched
    points (squaring makes the overall sign of the leg immaterial; the
    relative signs are what that agreement pins down); the potential is
    the angle chart's scalar combination rewritten in p."""
    pc = p / ell
    th, ch = jets.tanh(pc), jets.cosh(pc)
    sech = 1.0 / ch
    return (1.0, th * (ell / 2.0), sech * -_SQRT2, ch * ch,
            sech * th * _SQRT2, (1.0 - sech * sech * 2.0) * (ell / 4.0))


class Fibre(NamedTuple):
    """A fibre chart: the window its fibre coordinate is sampled in, the
    largest |ell| it lifts at (None: no bound), and its profile
    (fibre coordinate field, ell) -> (c_d, c_omega, c_psi, c_h, a_psi,
    a_omega), the factors of leg = c_d d(fibre) + c_omega omega + c_psi psi
    in g = leg (.) leg + c_h h and A = a_psi psi - a_omega omega."""

    window: tuple
    ell_max: float | None
    profile: Callable


# each fibre chart.  The angle chart degenerates at the poles, so its
# samples keep away from them, and its metric holds (ell/sin a)^2 and
# ell^2 cos^2(a), whose determinant and curvature overflow inside its
# window past |ell| = 1e150
FIBRES = {
    "alpha": Fibre((0.2, math.pi - 0.2), 1e150, _alpha_profile),
    "p": Fibre((-1.2, 1.2), None, _p_profile),
}


@dataclass(frozen=True)
class SpacetimeData:
    """A four-dimensional metric and Maxwell potential on a named chart;
    ``kind`` is its fibre chart, a key of ``FIBRES``."""

    chart: tuple[str, ...]
    g: MetricField
    potential: PForm
    ell: float
    kind: str


@dataclass(frozen=True)
class LiftConfig:
    """Input bundle for a lift.

    ``psi`` is a 1-form on the base chart, of conformal weight -1 by
    definition; the zero psi is ``families.psi_const(base, 0)``, validated
    like any psi, which adds no psi terms to the lift.  ``probes`` are
    base-chart points (a PointBatch, or a sequence of ChartPoints) used to
    validate the gauge, the structure equations, and psi; when empty a
    deterministic default box is sampled, which suits bases defined on all
    of R^3.  ``ell`` may be an (N,) array of ells (see the module
    docstring); a zero ell, or an array with a zero row, is refused.  The
    lift of an array has jets only at batches of N points.
    """

    base: EWStructure
    psi: PForm
    ell: float | np.ndarray
    chart: str = "p"
    probes: PointBatch | tuple[ChartPoint, ...] = ()

    def __post_init__(self):
        if not np.all(self.ell):
            raise ConfigError("ell must be nonzero")
        if self.chart not in FIBRES:
            raise ConfigError(f"unknown fibre chart {self.chart!r}")
        psi = self.psi
        if not (isinstance(psi, PForm) and psi.degree == 1 and psi.chart == self.base.chart):
            raise ConfigError(
                f"psi must be a 1-form on the base chart, got {psi!r}; the base chart is {self.base.chart}"
            )


@functools.cache
def default_probes(chart):
    """``PROBES`` deterministic validation points in a fixed positive box,
    drawn once, as one PointBatch."""
    rng = np.random.default_rng(424)
    return PointBatch(chart, rng.uniform(0.25, 0.85, size=(PROBES, len(chart))))


def fix_ell_sign(base, ell, probe=None):
    """Return (ell', flipped) with the sign of ell chosen so V = -2/ell'.

    The magnitude is kept; only the sign is adjusted.  Raises
    GaugeViolationError when neither sign fits, e.g. when V is not the
    constant +-2/|ell| to begin with, and DomainError when V at the probe
    is not finite.  With ell None, ell' is -2/V at the probe, unflipped,
    however small V is; V = 0 there, or a V whose -2/V is not finite (a V
    so small that it overflows), is a ConfigError.  ``ell`` is a number:
    a limit family's row in ``families.CASES`` gives its ell with its base.
    """
    if probe is None:
        probe = default_probes(base.chart)[0]
    v = base.V(probe, 0).value
    if ell is None:
        if v == 0:
            raise ConfigError("V = 0 at the probe; supply --ell explicitly")
        if not math.isfinite(-2.0 / v):
            raise ConfigError(f"ell = -2/V is not finite: V = {v:.6g} at the probe")
        return -2.0 / v, False
    if not math.isfinite(v):
        raise DomainError(f"V is not finite at the probe: V = {v:.6g} for ell = {ell}")
    for signed in (ell, -ell):
        if abs(v * signed + 2.0) <= GAUGE_TOL:
            return float(signed), signed != ell
    raise GaugeViolationError(
        f"no sign of ell = {ell} gives V = -2/ell; V = {v:.6g} at the probe"
    )


def validate_config(cfg):
    """Check the gauge, the base structure equations, and psi on probes.

    Each condition is one ``run_check`` over the probes, named
    ``lift.gauge``, ``lift.gt`` and ``lift.psi``, all in one evaluation
    scope of their own, where they share the frame arrays of the base; a
    failing verdict raises GaugeViolationError (gauge, structure
    equations) or PsiResidualError, and a non-finite one DomainError.
    ``curv.pack_reads`` first evaluates psi through order 1, as lift.psi
    reads it, so each field (omega, for psi = c omega) is evaluated once.
    """
    probes = cfg.probes or default_probes(cfg.base.chart)
    base = cfg.base
    batch = PointBatch.of(probes)
    hypotheses = (
        ("lift.gauge", lambda q: base.V(q, 0).value * row_numbers(cfg.ell, q) + 2.0, GAUGE_TOL,
         GaugeViolationError, "V*ell + 2 reaches {:.3e}; the gauge V = -2/ell fails"),
        ("lift.gt", lambda q: gt_residual(base, q), GT_TOL,
         GaugeViolationError, "base structure equations fail: residual {:.3e}"),
        ("lift.psi", lambda q: psi_residual(cfg.psi, base, q), PSI_TOL,
         PsiResidualError, "psi residual reaches {:.3e}"),
    )
    with jets.evaluation_scope():
        pack_reads([(cfg.psi, batch, {"psi": 1})])
        for name, residual, tol, error, message in hypotheses:
            r = run_check(name, residual, batch, tol)
            if r.verdict == "fail":
                raise error(message.format(r.max))
    return probes


def fibre_chart(chart, base_chart):
    """The chart of a lift on the fibre chart ``chart`` over a base chart:
    the fibre coordinate, named after its chart, then the base coordinates.
    On a base chart that has a p, the p chart's fibre is named q; a base
    chart that has an alpha is refused."""
    if chart not in base_chart:
        return (chart,) + base_chart
    if chart == "p":
        return ("q",) + base_chart
    raise ConfigError(f"base chart already uses the name {chart!r}")


def assemble(cfg, chart):
    """The lift of ``cfg`` on the fibre chart ``chart``, from the factors
    of its ``FIBRES`` row's profile (see ``Fibre``), without validating
    ``cfg``.  The chart's refusals still apply: the name of its fibre
    (``fibre_chart``), then its ell bound, in every row of an array ell.
    Nothing is evaluated here."""
    chart4 = fibre_chart(chart, cfg.base.chart)
    row = FIBRES[chart]
    past = row.ell_max is not None and ~(np.abs(cfg.ell) <= row.ell_max)
    if jets.anywhere(past):
        raise DomainError(
            f"ell = {jets.first_where(cfg.ell, past):g} is past the bound |ell| <= "
            f"{row.ell_max:g} of the {chart} chart, whose metric terms (ell/sin alpha)^2 overflow"
        )
    fibre = chart4[0]
    c_d, c_om, c_psi, c_h, a_psi, a_om = row.profile(Field.coordinate(fibre), cfg.ell)
    om = embed_form(cfg.base.omega, chart4)
    ps = embed_form(cfg.psi, chart4)
    h4 = embed_metric(metric_from_coframe(cfg.base.frame), chart4)
    leg = coordinate_form(chart4, fibre).scale(c_d) + om.scale(c_om) + ps.scale(c_psi)
    g = symmetric_product(leg, leg) + h4.scale(c_h)
    pot = ps.scale(a_psi) - om.scale(a_om)
    return SpacetimeData(chart4, g, pot, cfg.ell, chart)


def build(cfg):
    """The lift of ``cfg`` on its fibre chart, validated: the one place a
    lift is.  ``assemble`` runs the chart's refusals first, then
    ``validate_config`` runs."""
    data = assemble(cfg, cfg.chart)
    validate_config(cfg)
    return data


def fibre_points(data, seed, base_pts):
    """The base points on the chart of the lift ``data``, each given a
    seeded fibre value inside the window of the lift's fibre chart, as one
    PointBatch."""
    lo, hi = FIBRES[data.kind].window
    base = PointBatch.of(base_pts).rows
    fibres = np.random.default_rng(seed + 101).uniform(lo, hi, size=len(base))
    return PointBatch(data.chart, np.column_stack((fibres, base)))


def invariants_check(cfg, data):
    """Chart covariance of the scalar invariants, plus signature.

    ``data`` is the lift of ``cfg`` on its configured chart; the other
    chart is assembled from the same config, which ``data`` validated (and
    refuses an ell past its bound here).  Returns the p-chart lift, whose
    points the check runs on, and the check.
    """
    other = assemble(cfg, "p" if cfg.chart == "alpha" else "alpha")
    data_p, data_a = (other, data) if cfg.chart == "alpha" else (data, other)

    def fn(q):
        qa = matched_alpha_point(q, data_p.ell)
        k_p, fsq_p, g_p = scalar_invariants(data_p.g, data_p.potential, q)
        k_a, fsq_a, _ = scalar_invariants(data_a.g, data_a.potential, qa)
        plus, minus = signature(g_p)
        return (
            k_p - k_a,
            fsq_p - fsq_a,
            np.where((plus == 3) & (minus == 1), 0.0, 1.0),
        )

    return data_p, fn


# ---------------------------------------------------------------------------
# chart matching
# ---------------------------------------------------------------------------


def alpha_of_p(p, ell):
    """The angle of fibre coordinate p: a float, or the (N,) array of a
    batch's p column, mapped in one pass row by row with ``math`` (by
    ``jets._libm``), so that each entry has the bits of its point alone."""
    return jets._libm(_alpha_at, p if np.ndim(p) else float(p), ell)


def _alpha_at(p, ell):
    return math.atan2(1.0 / math.cosh(p / ell), math.tanh(p / ell))


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
    each replacement is O(ell^-2) at fixed p.  But class B's h holds
    4F dp.dt = ell dp.dt, so (cosh^2 - 1) h, and its form gap, fall as
    O(1/ell): the observed order 1.000 of its limit.
    """
    om = embed_form(cfg.base.omega, chart4)
    ps = embed_form(cfg.psi, chart4)
    pc = Field.coordinate(chart4[0])
    dp = coordinate_form(chart4, chart4[0])
    leg = dp + om.scale(pc * 0.5) - ps.scale(_SQRT2)
    return symmetric_product(leg, leg) + embed_metric(metric_from_coframe(cfg.base.frame), chart4)


# every ell is evaluated at the same six seeded points of [-0.8, 0.8]^4
LIMIT_ROWS = jets.read_only(np.random.default_rng(2026).uniform(-0.8, 0.8, size=(6, 4)))
# flat_limit's per-ell maxima, in check order (curv.pack_reads orders evaluations)
LIMIT_KEYS = ("riemann_limit", "f_gap", "f_term", "f_norm", "form_gap")


def flat_limit(factory, ells):
    """Track convergence of a lift family toward its limit form.

    ``factory`` maps a scale parameter to a LiftConfig whose base is built
    at that parameter: a number, or an (N,) array of ells, one per row of
    the pass's batch (see the module docstring).  For each ell the p-chart
    lift is compared against the limit form at the same parameter, the
    field strength F = dA
    against its limit term (ell/4) d(omega) (with ell the lift's, of
    V = -2/ell; cos(2 alpha) -> -1 at the equator), both taken on packed
    jets by ``forms.exterior_d`` (``curv.field_strength`` of A and of the
    embedded omega), and the curvature of the limit form is recorded.
    ``diverges`` is set when the form gap or the
    limit term grows along the sequence, which happens precisely when omega
    fails to scale with ell.

    All ells are evaluated in one pass, in one evaluation scope: the six
    limit rows are tiled once per ell, ``factory`` is called once, with
    the array that repeats each ell six times, the lift is validated once
    (in a scope of its own) at the base coordinates of those rows, where
    it is evaluated, in place of the config's probes, and each residual is
    one ``run_check`` over all rows, named ``lift.<key>`` after its report
    key.  The maximum of an ell's rows is its entry in the report.  The
    limit form, its F = d omega and the lift are packed through
    ``curv.pack_reads``, so each field is evaluated once, and the report
    keeps its own key order.

    If that pass raises an EwbenchError (``run_check`` raises DomainError
    on a row that is not finite, and a constant of the array of ells
    raises it when read at a point, as ``run_check``'s point-by-point rows
    are; constants that do not fold in some row are evaluated in every
    row, and raise where a row's number raises), the same pass runs
    again for each ell alone, in order, with the factory called at its
    number, as a one-ell batch: the first ell that fails raises what it
    raises alone, its text prefixed with ``ell = <repr>: ``,
    and otherwise the report is that of the single ells.  A ratio of
    successive gaps that is not finite (a later gap of 0, or an overflow)
    is null.
    """
    ells = [float(e) for e in ells]
    if len(ells) < 2:
        raise ConfigError("need at least two ell values")
    try:
        with np.errstate(all="ignore"):
            columns = _limit_columns(factory, ells)
    except EwbenchError:
        singles = []
        for ell in ells:
            try:
                singles.append(_limit_columns(factory, [ell]))
            except EwbenchError as exc:
                exc.args = (f"ell = {ell!r}: {exc}",)  # name the failing ell
                raise
        columns = {key: [v for one in singles for v in one[key]] for key in singles[0]}
    report = {
        "ells": ells,
        "ell_used": columns["ell_used"],
        "form_gap": columns["form_gap"],
        "ratios": [],
        "f_gap": columns["f_gap"],
        "f_term": columns["f_term"],
        "f_norm": columns["f_norm"],
        "riemann_limit": columns["riemann_limit"],
    }
    gaps = report["form_gap"]
    # a later gap of exactly 0 has no ratio, and a ratio that overflows no
    # finite one: null in the report
    report["ratios"] = [
        r if math.isfinite(r) else None
        for r in (a / b if b else math.inf for a, b in zip(gaps, gaps[1:]))
    ]
    report["diverges"] = (
        gaps[-1] > gaps[0] or report["f_term"][-1] > report["f_term"][0]
    )
    return report


def _limit_columns(factory, ells):
    """{key: one value per ell} of the family over ``ells``.  The limit rows
    are tiled once per ell, and the factory gets the number of a lone ell,
    or else the array of the ell of each row.  The lift is validated at the
    base coordinates of the rows.  An ell's entry is the maximum of its
    rows.  A check that fails raises its EwbenchError."""
    with jets.evaluation_scope():
        scale = ells[0] if len(ells) == 1 else np.repeat(ells, len(LIMIT_ROWS))
        cfg = factory(scale)
        tiled = np.tile(LIMIT_ROWS, (len(ells), 1))
        data = build(replace(cfg, chart="p", probes=PointBatch(cfg.base.chart, tiled[:, 1:])))
        chart4 = data.chart
        pts = PointBatch(chart4, tiled)
        om4 = embed_form(cfg.base.omega, chart4)
        lim = SpacetimeData(chart4, _limit_form(cfg, chart4), om4, data.ell, data.kind)
        pack_reads([(lim, pts, {"g": 2, "F": 0}), (data, pts, {"g": 0, "F": 0})])
        quarter = data.ell / 4.0

        def f_term(q):
            """(ell/4) d omega: the rows of ell/4 times the packed d omega."""
            scale = row_numbers(quarter, q)
            return np.reshape(scale, np.shape(scale) + (1, 1)) * field_strength(om4, q, 0)[0]

        residuals = {
            "riemann_limit": lambda q: riemann(lim.g, q),
            "f_gap": lambda q: field_strength(data.potential, q, 0)[0] - f_term(q),
            "f_term": f_term,
            "f_norm": lambda q: field_strength(data.potential, q, 0)[0],
            "form_gap": lambda q: data.g.matrix_at(q) - lim.g.matrix_at(q),
        }
        columns = {}
        for key in LIMIT_KEYS:
            rows = run_check(f"lift.{key}", residuals[key], pts, math.inf).rows
            columns[key] = np.reshape(rows, (len(ells), -1)).max(axis=1).tolist()
        ell_used = np.broadcast_to(data.ell, pts.shape)
        columns["ell_used"] = ell_used[:: len(LIMIT_ROWS)].tolist()
    return columns


def limit_family(case, c):
    """(factory, chart) of the lift family of ``case`` that ``flat_limit``
    tracks, with psi = c omega: the base and ell of its ``families.CASES``
    row at each scale.  ``chart`` is the p chart of the family's lifts.
    ``case`` may spell '_' as '-', as the CLI does; errors name it as given."""
    row = fam.case_row(case)
    if row.limit is None:
        raise ConfigError(f"case {case!r} has no ell-parameterized lift family")

    def factory(scale):
        base, ell = row.limit(scale)
        return LiftConfig(base=base, psi=fam.psi_const(base, c), ell=ell)

    return factory, fibre_chart("p", row.chart)
