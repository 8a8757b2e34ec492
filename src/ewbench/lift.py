"""Cosmological lifts: four-dimensional space-times fibred over a three-space.

A three-dimensional structure whose monopole function is the constant
V = -2/ell extends to a four-dimensional metric g and Maxwell potential A
on a fibre chart.  Two fibre coordinates are supported: a latitude-like
angle alpha, degenerate at the poles, and an unrestricted coordinate p
related to it by

    sin(alpha) = sech(p/ell),    cos(alpha) = tanh(p/ell).

Both charts carry the same geometry; the p chart extends smoothly through
the alpha = pi/2 slice.  ``fibre_points`` samples a lift's chart and
``invariants_check`` compares the two charts.  ``fix_ell_sign`` is the one
choice of a number ell for a base: -2/V when none is given, else the given
magnitude with the sign that makes V = -2/ell.  ``flat_limit`` tracks the
large-ell behaviour of a lift family against its limit form;
``limit_family`` reads a case's family, heisenberg(ell) or class B with
F = ell/4, from its ``families.CASES`` row, which states its gauge.

A family's scale may be a ``jets.Param`` instead of a number, so that one
build of the family serves every ell, each row of a batch at its own.
``LiftConfig`` and ``build_p`` take it as they take a number.
``flat_limit`` makes the one Param of its pass: it tiles its points once
per ell and the Param's rows at each tiled batch are that batch's ells.
No sign rule reads a Param: ``validate_config``'s gauge check certifies
each row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import families as fam
from . import jets
from .curv import riemann, scalar_invariants
from .errors import (
    ConfigError,
    DomainError,
    EwbenchError,
    GaugeViolationError,
    PsiResidualError,
)
from .ew import EWStructure, WeightedForm, gt_residual, psi_residual
from .forms import (
    MetricField,
    PForm,
    coordinate_form,
    embed_form,
    embed_metric,
    ext_d,
    metric_from_coframe,
    signature,
    symmetric_product,
    zero_form,
)
from .jets import ChartPoint, Field, Param, PointBatch, row_numbers
from .report import run_check

GAUGE_TOL = 1e-9
GT_TOL = 1e-7
PSI_TOL = 1e-7
# each fibre chart and the window its fibre coordinate is sampled in; the
# angle chart degenerates at the poles, so its samples keep away from them
FIBRE_WINDOWS = {"alpha": (0.2, math.pi - 0.2), "p": (-1.2, 1.2)}
ALPHA_WINDOW = FIBRE_WINDOWS["alpha"]
# the angle-chart metric holds (ell/sin a)^2 and ell^2 cos^2(a); past this
# |ell| its determinant and curvature overflow inside ALPHA_WINDOW
ALPHA_ELL_MAX = 1e150

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class SpacetimeData:
    """A four-dimensional metric and Maxwell potential on a named chart;
    ``kind`` is its fibre chart, a key of ``FIBRE_WINDOWS``."""

    chart: tuple[str, ...]
    g: MetricField
    potential: PForm
    ell: float
    kind: str


@dataclass(frozen=True)
class LiftConfig:
    """Input bundle for a lift.

    ``psi`` must carry conformal weight -1.  None is the zero field and
    skips the psi validation; the zero 1-form (``families.psi_const`` at
    c = 0) is validated like any psi, and adds no psi terms to the lift.
    ``probes`` are base-chart points (a PointBatch, or a sequence of
    ChartPoints) used to validate the gauge, the structure equations, and
    psi; when empty a deterministic default box is sampled, which suits
    bases defined on all of R^3.  ``validate=False`` skips the checks, for
    deliberately broken inputs.  ``ell`` may be a ``jets.Param`` (see the
    module docstring), whose zero rows fail when the lift is evaluated.
    """

    base: EWStructure
    psi: WeightedForm | None
    ell: float | Param
    chart: str = "p"
    validate: bool = True
    probes: PointBatch | tuple[ChartPoint, ...] = ()

    def __post_init__(self):
        if self.ell == 0.0:
            raise ConfigError("ell must be nonzero")
        if self.chart not in FIBRE_WINDOWS:
            raise ConfigError(f"unknown fibre chart {self.chart!r}")
        if self.psi is not None and self.psi.weight != -1:
            raise ConfigError(
                f"psi must have conformal weight -1, got {self.psi.weight}"
            )


@functools.cache
def default_probes(chart, *, count=8):
    """Deterministic validation points in a fixed positive box, drawn once,
    as one PointBatch."""
    rng = np.random.default_rng(424)
    return PointBatch(chart, rng.uniform(0.25, 0.85, size=(count, len(chart))))


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
        probe = default_probes(base.chart, count=1)[0]
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
    scope of their own, where they read one frame pass of the base; a
    failing verdict raises GaugeViolationError (gauge, structure
    equations) or PsiResidualError, and a non-finite one DomainError.
    """
    probes = cfg.probes or default_probes(cfg.base.chart)
    base = cfg.base
    with jets.evaluation_scope():
        # a constant V has a value without the batch axis: it serves every row
        r = run_check(
            "lift.gauge",
            lambda q: np.broadcast_to(base.V(q, 0).value * row_numbers(cfg.ell, q) + 2.0, q.shape),
            probes,
            GAUGE_TOL,
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
    if not abs(cfg.ell) <= ALPHA_ELL_MAX:
        raise DomainError(
            f"ell = {cfg.ell:g} is past the bound |ell| <= {ALPHA_ELL_MAX:g} of the "
            "alpha chart, whose metric terms (ell/sin alpha)^2 overflow"
        )
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
    return SpacetimeData(chart4, g, pot, ell, "alpha")


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
    chart4 = p_chart(cfg.base.chart)
    name = chart4[0]
    ell = cfg.ell
    pc = Field.coordinate(name) / ell
    th = jets.tanh(pc)
    ch = jets.cosh(pc)
    sech = 1.0 / ch
    dp = coordinate_form(chart4, name)
    om, ps, h4 = _embedded(cfg, chart4)
    leg = dp + om.scale(th * (ell / 2.0)) - ps.scale(sech * _SQRT2)
    g = symmetric_product(leg, leg) + h4.scale(ch * ch)
    pot = ps.scale(sech * th * _SQRT2) - om.scale(
        (1.0 - sech * sech * 2.0) * (ell / 4.0)
    )
    return SpacetimeData(chart4, g, pot, ell, "p")


def p_chart(base_chart):
    """The chart of a p-chart lift: the fibre coordinate p, named q when
    the base chart already has a p, then the base coordinates."""
    return ("p" if "p" not in base_chart else "q",) + base_chart


def build(cfg):
    """Dispatch on the configured fibre chart."""
    return build_alpha(cfg) if cfg.chart == "alpha" else build_p(cfg)


def fibre_points(data, seed, base_pts):
    """The base points on the chart of the lift ``data``, each given a
    seeded fibre value inside the window of the lift's fibre chart, as one
    PointBatch."""
    lo, hi = FIBRE_WINDOWS[data.kind]
    base = PointBatch.of(base_pts).rows
    fibres = np.random.default_rng(seed + 101).uniform(lo, hi, size=len(base))
    return PointBatch(data.chart, np.column_stack((fibres, base)))


def invariants_check(cfg, data):
    """Chart covariance of the scalar invariants, plus signature.

    ``data`` is the lift of ``cfg`` on its configured chart; the other
    chart is built from the same config without validating it again (and
    refuses an ell past its bound here).  Returns the p-chart lift, whose
    points the check runs on, and the check.
    """
    other = replace(cfg, validate=False)
    if cfg.chart == "alpha":
        data_p, data_a = build_p(other), data
    else:
        data_p, data_a = data, build_alpha(other)

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
    each replacement is O(ell^-2) at fixed p.
    """
    om, ps, h4 = _embedded(cfg, chart4)
    pc = Field.coordinate(chart4[0])
    dp = coordinate_form(chart4, chart4[0])
    leg = dp + om.scale(pc * 0.5) - ps.scale(_SQRT2)
    return symmetric_product(leg, leg) + h4


# every ell is evaluated at the same six seeded points of [-0.8, 0.8]^4
LIMIT_ROWS = jets.read_only(np.random.default_rng(2026).uniform(-0.8, 0.8, size=(6, 4)))
# flat_limit's per-ell maxima, in the order their checks run
LIMIT_KEYS = ("riemann_limit", "f_gap", "f_term", "f_norm", "form_gap")


def flat_limit(factory, ells):
    """Track convergence of a lift family toward its limit form.

    ``factory`` maps a scale parameter to a LiftConfig whose base is built
    at that parameter: a number, or the ``jets.Param`` of the ells (see the
    module docstring).  For each ell the p-chart lift is compared against
    the limit form at the same parameter, the field strength F = dA
    against its limit term (ell/4) d(omega) (with ell the lift's, of
    V = -2/ell; cos(2 alpha) -> -1 at the equator), and the curvature of the
    limit form is recorded.  ``diverges`` is set when the form gap or the
    limit term grows along the sequence, which happens precisely when omega
    fails to scale with ell.

    ``factory`` is called once, with a Param of the ells, and all ells are
    evaluated in one pass, in one evaluation scope: the validation probes
    and the six limit rows are tiled over the ells, the Param's rows at
    each tile being its ell, the lift is validated once (in a scope of its
    own), and each residual is one ``run_check`` over all rows, named
    ``lift.<key>`` after its report key.  The maximum of an ell's rows is
    its entry in the report.  The checks run riemann_limit first, which
    packs the limit form through order 2 for form_gap, and form_gap last,
    after the F checks ask order 1 of the omega and fibre-profile fields
    that the lift metric reads, so no field is evaluated again at a higher
    order; the report keeps its own key order.

    If that pass raises an EwbenchError (a row that is not finite raises
    DomainError in ``run_check``, and so does the Param read at points the
    pass did not tile, as ``run_check``'s point-by-point rows are), the
    same pass runs again for each ell alone, in order, with the factory
    called at its number, as a one-ell batch: the first ell that fails
    raises what it raises alone, its text prefixed with ``ell = <repr>: ``,
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
    """{key: one value per ell} of the family over ``ells``.  The probes and
    the limit rows are tiled over the ells.  The factory gets the number of
    a lone ell, or else a Param whose rows at each batch this pass tiled
    are the ells of its rows; read at any other point or batch, it raises
    DomainError.  An ell's entry is the maximum of its rows.  A check that
    fails raises its EwbenchError."""
    scales = {}  # each batch tiled in this pass -> the ell of each row

    def rows(pt):
        held = scales.get(pt)
        if held is None:
            raise DomainError("the scale has rows only at the batches its pass tiles")
        return held

    with jets.evaluation_scope():
        cfg = factory(ells[0] if len(ells) == 1 else Param(rows))
        probes = cfg.probes or default_probes(cfg.base.chart)
        data = build_p(replace(cfg, probes=_tiled(probes, ells, scales)))
        chart4 = data.chart
        pts = _tiled(PointBatch(chart4, LIMIT_ROWS), ells, scales)
        g_lim = _limit_form(cfg, chart4)
        om4 = embed_form(cfg.base.omega, chart4)
        f_target = ext_d(om4).scale(data.ell / 4.0)
        f_full = ext_d(data.potential)
        keys = sorted(set(f_full.comps) | set(f_target.comps))
        residuals = {
            "riemann_limit": lambda q: riemann(g_lim, q),
            "f_gap": lambda q: f_full.values_at(q, keys) - f_target.values_at(q, keys),
            "f_term": lambda q: f_target.values_at(q, keys),
            "f_norm": lambda q: f_full.values_at(q, keys),
            "form_gap": lambda q: data.g.matrix_at(q) - g_lim.matrix_at(q),
        }
        columns = {}
        for key in LIMIT_KEYS:
            rows = run_check(f"lift.{key}", residuals[key], pts, math.inf).rows
            columns[key] = np.reshape(rows, (len(ells), -1)).max(axis=1).tolist()
        ell_used = np.broadcast_to(row_numbers(data.ell, pts), pts.shape)
        columns["ell_used"] = ell_used[:: len(LIMIT_ROWS)].tolist()
    return columns


def _tiled(points, ells, scales):
    """The batch of the points once per ell, in order; ``scales`` records
    the ell of each of its rows."""
    batch = PointBatch.of(points)
    tiled = PointBatch(batch.chart, np.tile(batch.rows, (len(ells), 1)))
    scales[tiled] = jets.read_only(np.repeat(ells, len(batch)))
    return tiled


def limit_family(case, c):
    """(factory, chart) of the lift family of ``case`` that ``flat_limit``
    tracks, with psi = c omega: the base and ell of its ``families.CASES``
    row at each scale.  ``chart`` is the p chart of the family's lifts.
    ``case`` may spell '_' as '-', as the CLI does; errors name it as given."""
    row = fam.CASES.get(case.replace("-", "_"))
    if row is None:
        raise ConfigError(f"unknown case {case!r}")
    if row.limit is None:
        raise ConfigError(f"case {case!r} has no ell-parameterized lift family")

    def factory(scale):
        base, ell = row.limit(scale)
        return LiftConfig(base=base, psi=fam.psi_const(base, c), ell=ell)

    return factory, p_chart(row.chart)
