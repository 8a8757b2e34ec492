"""Einstein-Weyl structures in the hyper-CR normal form and their residuals.

An :class:`EWStructure` packages a coframe (e1, e2, e3), a connection 1-form
omega and a monopole function V on a 3D chart.  The residual operators below
measure how far the data is from satisfying the defining exterior system

    d e^i = (1/2) omega ^ e^i - V * e^i,        (frame system)
    * (dV + (1/2) V omega) = (1/2) d omega,     (monopole equation)
    D psi = V * psi,  D = d + (1/2) omega ^ .   (psi equation)

together with the scalar second-order equation

    H_xt - H_yy + H_y H_xx - H_x H_xy = 0

whose solutions generate such structures through u = H_x, w = -H_y.  All
residuals are returned as coordinate components so tolerances mean the same
thing across families and charts.  The exterior residuals combine the
arrays of :func:`frame_arrays` and :func:`stars` elementwise, as the values
of the same expressions in form algebra; psi is a plain 1-form of weight -1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import ConfigError
from .forms import Coframe3, PForm, coordinate_form, frame_solve
from .jets import Field, pack_jets, read_only, scoped, scoped_arrays

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
    u: Field | None = None
    w: Field | None = None

    @property
    def chart(self):
        return self.frame.chart


# ---------------------------------------------------------------------------
# first-order system in (u, w)
# ---------------------------------------------------------------------------


def require_x(chart):
    """Refuse a chart without the x coordinate that the hydrodynamic
    residual reads."""
    if "x" not in chart:
        raise ConfigError(
            "hydrodynamic residual needs an x coordinate; "
            f"chart {chart} has none"
        )


def hypercr_residual(u, w, pt):
    """Residual pair of the hydrodynamic system u_t = ..., u_y = -w_x.

    r1 = u_t + w_y + u w_x - w u_x,  r2 = u_y + w_x.
    """
    chart = pt.chart
    require_x(chart)
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
# exterior residual systems, on the packed arrays of a structure
# ---------------------------------------------------------------------------

_I, _J = np.array(PAIRS).T  # pair k is (_I[k], _J[k])
# *e1 = e1^e2, *e2 = 2 e1^e3, *e3 = e2^e3: star k is the wedge of pair k, scaled
_STAR_SCALE = np.array([[1.0], [2.0], [1.0]])


def _w(a, b):
    """a ^ b in PAIRS order from the component arrays (last axis) of two
    1-forms: a_i b_j - a_j b_i."""
    return a[..., _I] * b[..., _J] - a[..., _J] * b[..., _I]


def _d(da):
    """dA in PAIRS order from da[..., b, a] = d_b A_a: d_i A_j - d_j A_i."""
    return da[..., _I, _J] - da[..., _J, _I]


def _comps(forms, idxs):
    return [form.comps.get(idx) for form in forms for idx in idxs]


_LEGS = ((0,), (1,), (2,))
# the fields and array shape packed under each name of ``frame_arrays``
_FRAME_FIELDS = {
    "frame": (lambda s: _comps(s.frame.legs, _LEGS), (3, 3)),
    "omega": (lambda s: _comps([s.omega], _LEGS), (3,)),
    "V": (lambda s: [s.V], ()),
}


def frame_arrays(s, pt, name, order):
    """The packed jets through ``order`` of ``s`` at ``pt`` that gt,
    monopole, psi and weyl share: of ``"frame"``, E[..., i, a] (leg i,
    component a) and dE[..., b, i, a] = d_b E_ia; of ``"omega"``, w[..., a]
    and dw[..., b, a]; or of ``"V"``, V and dV[..., b].  ``jets.scoped_arrays``
    keeps them under (name, s, pt), packed again only for a higher order."""
    fields, shape = _FRAME_FIELDS[name]
    return scoped_arrays((name, s, pt), order, lambda k: pack_jets(pt, fields(s), k, shape))


def stars(s, pt):
    """The values S[..., k, pair] of *e1, *e2, *e3 at ``pt``, kept in the
    scope under ("stars", s, pt).  The 3D Hodge star is defined by its
    action on the coframe, *e1 = e1^e2, *e2 = 2 e1^e3, *e3 = e2^e3 (the
    coframe is not orthonormal for h = e2 (x) e2 - 4 e1 (.) e3, hence the
    2): the wedges of the coframe values E over PAIRS, times 1, 2 and 1."""

    def make():
        e = frame_arrays(s, pt, "frame", 0)[0]
        return read_only(_w(e[..., _I, :], e[..., _J, :]) * _STAR_SCALE)

    return scoped(("stars", s, pt), make)


def _hodge(s, pt, values):
    """sum_k c_k *e_k for a = sum_k c_k e_k, c by ``forms.frame_solve``:
    ``values()`` gives the components of a, and None is the zero form."""
    c = frame_solve(np.swapaxes(frame_arrays(s, pt, "frame", 0)[0], -1, -2), values)
    st = stars(s, pt)
    return c[..., :1] * st[..., 0, :] + c[..., 1:2] * st[..., 1, :] + c[..., 2:] * st[..., 2, :]


def gt_residual(s, pt):
    """The components of d e^i - 1/2 omega^e^i + V *e^i, shape (3, 3) (or
    (N, 3, 3) over a batch): row i is leg i, in PAIRS order."""
    e, de = frame_arrays(s, pt, "frame", 1)
    wedged = _w((0.5 * frame_arrays(s, pt, "omega", 0)[0])[..., None, :], e)
    v = frame_arrays(s, pt, "V", 0)[0][..., None, None]
    return _d(np.swapaxes(de, -3, -2)) - wedged + v * stars(s, pt)


def monopole_residual(s, pt):
    """*(dV + 1/2 V omega) - 1/2 d omega in PAIRS order."""

    def arg():
        v, dv = frame_arrays(s, pt, "V", 1)
        return dv + (0.5 * v)[..., None] * frame_arrays(s, pt, "omega", 1)[0]

    return _hodge(s, pt, arg) - 0.5 * _d(frame_arrays(s, pt, "omega", 1)[1])


def psi_residual(psi, s, pt):
    """D psi - V * psi in PAIRS order, with the structure's own V.  A psi
    without components (``families.psi_const`` at c = 0) has no D psi
    terms, reads no omega, and is not solved: its star is 0, or NaN where
    the coframe is not finite."""
    if not psi.comps:
        return -(frame_arrays(s, pt, "V", 0)[0][..., None] * _hodge(s, pt, None))
    ps, dps = pack_jets(pt, _comps([psi], _LEGS), 1, (3,))
    dpsi = _d(dps) - _w(-0.5 * frame_arrays(s, pt, "omega", 0)[0], ps)
    return dpsi - frame_arrays(s, pt, "V", 0)[0][..., None] * _hodge(s, pt, lambda: ps)


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
    df = PForm(s.chart, 1, {(k,): f.d(c) for k, c in enumerate(s.chart)})
    return EWStructure(
        frame=Coframe3(*scaled),
        omega=s.omega + df.scale(2.0),
        V=jets.exp(-f) * s.V,
    )


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

XYT = ("x", "y", "t")


def from_uw(u, w, chart=XYT):
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
        u=u,
        w=w,
    )


def from_H(H):
    """Structure generated by a scalar solution via u = H_x, w = -H_y."""
    return from_uw(H.d("x"), -H.d("y"))
