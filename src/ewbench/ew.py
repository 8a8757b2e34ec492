"""Einstein-Weyl structures in the hyper-CR normal form and their residuals.

An :class:`EWStructure` packages a coframe (e1, e2, e3), a connection 1-form
omega and a monopole function V on a 3D chart.  The residual operators below
measure how far the data is from satisfying the defining exterior system

    d e^i = (1/2) omega ^ e^i - V * e^i,        (frame system)
    * (dV + (1/2) V omega) = (1/2) d omega,     (monopole equation)
    D psi = V * psi,  D = d - (m/2) omega ^ .   (weighted 1-form equation)

together with the scalar second-order equation

    H_xt - H_yy + H_y H_xx - H_x H_xy = 0

whose solutions generate such structures through u = H_x, w = -H_y.  All
residuals are returned as coordinate components so tolerances mean the same
thing across families and charts.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import ConfigError
from .forms import (
    Coframe3,
    PForm,
    coordinate_form,
    ext_d,
    hodge3,
    scalar_form,
    star_frame,
    wedge,
)
from .jets import Field

__all__ = [
    "EWStructure",
    "WeightedForm",
    "PAIRS",
    "hypercr_residual",
    "gt_residual",
    "gt_residual_forms",
    "monopole_residual",
    "monopole_residual_form",
    "gauge_transform",
    "weighted_d",
    "psi_residual",
    "psi_residual_form",
    "hcr_residual",
    "constraints_residual",
    "from_H",
    "from_uw",
]

# fixed component order for degree-2 residuals on a 3D chart
PAIRS = ((0, 1), (0, 2), (1, 2))


@dataclass(frozen=True)
class EWStructure:
    """Coframe, connection form and monopole function on a 3D chart.

    ``u`` and ``w`` are optional scalar potentials recorded when the
    structure came from a solution pair of the hydrodynamic system; they
    enable the first-order cross-checks but are not needed by the exterior
    residuals.
    """

    frame: Coframe3
    omega: PForm
    V: Field
    family: str = ""
    u: Field | None = None
    w: Field | None = None

    @property
    def chart(self):
        return self.frame.chart


@dataclass(frozen=True)
class WeightedForm:
    """A 1-form carrying a conformal weight m."""

    form: PForm
    weight: float


# ---------------------------------------------------------------------------
# first-order system in (u, w)
# ---------------------------------------------------------------------------


def hypercr_residual(u, w, pt):
    """Residual pair of the hydrodynamic system u_t = ..., u_y = -w_x.

    r1 = u_t + w_y + u w_x - w u_x,  r2 = u_y + w_x.
    """
    chart = pt.chart
    if "x" not in chart:
        raise ConfigError(
            "hydrodynamic residual needs an x coordinate; "
            f"chart {chart} has none"
        )
    ix = chart.index("x")
    iy = chart.index("y")
    it = chart.index("t")
    ju = u(pt, 1)
    jw = w(pt, 1)
    du, dw = ju.grad, jw.grad
    r1 = du[..., it] + dw[..., iy] + ju.value * dw[..., ix] - jw.value * du[..., ix]
    r2 = du[..., iy] + dw[..., ix]
    return (r1, r2)


# ---------------------------------------------------------------------------
# exterior residual systems
# ---------------------------------------------------------------------------


def gt_residual_forms(s):
    """The three frame-system residual 2-forms d e^i - 1/2 omega^e^i + V *e^i."""
    half_omega = s.omega.scale(0.5)
    out = []
    for i, leg in enumerate(s.frame.legs, start=1):
        r = ext_d(leg) - wedge(half_omega, leg) + star_frame(s.frame, i).scale(s.V)
        out.append(r)
    return tuple(out)


def gt_residual(s, pt):
    """Frame-system residual components at a point, shape (3, 3).

    Row i holds the (dx^0^dx^1, dx^0^dx^2, dx^1^dx^2) components of the
    residual of the i-th frame equation; over a batch the shape is (N, 3, 3).
    """
    return np.stack([r.values_at(pt, PAIRS) for r in gt_residual_forms(s)], axis=-2)


def monopole_residual_form(s):
    """*(dV + 1/2 V omega) - 1/2 d omega as a 2-form."""
    dV = ext_d(scalar_form(s.chart, s.V))
    arg = dV + s.omega.scale(s.V * 0.5)
    return hodge3(arg, s.frame) - ext_d(s.omega).scale(0.5)


def monopole_residual(s, pt):
    return monopole_residual_form(s).values_at(pt, PAIRS)


def weighted_d(psi, omega):
    """Weighted exterior derivative D psi = d psi - (m/2) omega ^ psi."""
    return ext_d(psi.form) - wedge(omega.scale(0.5 * psi.weight), psi.form)


def psi_residual_form(psi, s):
    """D psi - V * psi, using the structure's own V."""
    return weighted_d(psi, s.omega) - hodge3(psi.form, s.frame).scale(s.V)


def psi_residual(psi, s, pt):
    return psi_residual_form(psi, s).values_at(pt, PAIRS)


# ---------------------------------------------------------------------------
# conformal rescaling
# ---------------------------------------------------------------------------


def gauge_transform(s, f):
    """Conformal change e^i -> e^f e^i, omega -> omega + 2 df, V -> e^{-f} V.

    The frame residual of the output is e^f times the input's, so zero sets
    are preserved.  The u, w description does not survive the rescaling, so
    those fields are dropped from the result.
    """
    ef = jets.exp(f)
    scaled = [leg.scale(ef) for leg in s.frame.legs]
    df = ext_d(scalar_form(s.chart, f))
    return EWStructure(
        frame=Coframe3(*scaled),
        omega=s.omega + df.scale(2.0),
        V=jets.exp(-f) * s.V,
        family=s.family,
    )


# ---------------------------------------------------------------------------
# the scalar equation and its structure
# ---------------------------------------------------------------------------


def _hxyt(H, pt, order=2):
    chart = pt.chart
    j = H(pt, order)
    return j, chart.index("x"), chart.index("y"), chart.index("t")


def hcr_residual(H, pt):
    """H_xt - H_yy + H_y H_xx - H_x H_xy at a point."""
    j, ix, iy, it = _hxyt(H, pt)
    g, h = j.grad, j.hess
    return (
        h[..., ix, it]
        - h[..., iy, iy]
        + g[..., iy] * h[..., ix, ix]
        - g[..., ix] * h[..., ix, iy]
    )


def constraints_residual(H, pt):
    """(nonlinear, linear) parts: (H_xx H_y - H_xy H_x, H_xt - H_yy).

    Their sum is hcr_residual; vanishing of both is the stronger condition
    the fundamental solution satisfies.
    """
    j, ix, iy, it = _hxyt(H, pt)
    g, h = j.grad, j.hess
    nonlinear = h[..., ix, ix] * g[..., iy] - h[..., ix, iy] * g[..., ix]
    linear = h[..., ix, it] - h[..., iy, iy]
    return (nonlinear, linear)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

XYT = ("x", "y", "t")


def from_uw(u, w, family="", chart=XYT):
    """Structure with e1 = dx - u dy + w dt, e2 = dy - u dt, e3 = dt.

    omega = u_x dy + (u u_x + 2 u_y) dt and V = u_x / 2; the first chart
    coordinate plays the role of x.
    """
    chart = tuple(chart)
    xname, yname, tname = chart
    dx = coordinate_form(chart, xname)
    dy = coordinate_form(chart, yname)
    dt = coordinate_form(chart, tname)
    e1 = dx - dy.scale(u) + dt.scale(w)
    e2 = dy - dt.scale(u)
    e3 = dt
    ux = u.d(xname)
    uy = u.d(yname)
    omega = dy.scale(ux) + dt.scale(u * ux + 2.0 * uy)
    return EWStructure(
        frame=Coframe3(e1, e2, e3),
        omega=omega,
        V=ux * 0.5,
        family=family,
        u=u,
        w=w,
    )


def from_H(H, family="from_H"):
    """Structure generated by a scalar solution via u = H_x, w = -H_y."""
    return from_uw(H.d("x"), -H.d("y"), family=family)
