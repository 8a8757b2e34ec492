"""Metric curvature, the metric Hodge star in 4D, and field-equation residuals.

Everything here is a pointwise computation from packed derivative arrays of
the metric components.  The curvature convention is pinned by an oracle, not
by choice: with

    R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb
              + Gamma^a_ce Gamma^e_db - Gamma^a_de Gamma^e_cb,
    R_bd = R^a_bad,

the anti-de Sitter Poincare patch (l^2/z^2) eta comes out with
R_ab = -3 l^-2 g_ab, which is the sign the cosmological field equation

    R_ab + 3 l^-2 g_ab + 2 F_ac F_b^c - (1/2) |F|^2 g_ab = 0

needs to cancel at F = 0.  |F|^2 means F_ab F^ab with no extra factor; the
halved alternative is exposed through ``fsq_scale`` purely so the tests can
demonstrate it fails.  The 4D star uses the chart's coordinate order for the
orientation; the Maxwell residual d(star dA) is insensitive to that global
sign.

Derivatives of the metric come from jets by default; ``method="fd"``
switches every partial to the finite-difference oracle for an independent
cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import SingularMetricError
from .forms import (
    METRIC_DET_TOL,
    PForm,
    ext_d,
    jet_det,
    jet_inv,
    metric_from_coframe,
)
from .jets import Field, anywhere, fd_oracle, first_where, sqrt as jet_sqrt

__all__ = [
    "christoffel",
    "riemann",
    "ricci",
    "kretschmann",
    "CurvatureReport",
    "curvature_report",
    "hodge4",
    "f_squared",
    "maxwell_residual",
    "em_residual",
    "weyl_ricci_residual",
    "weyl_ricci_residual_metric",
]

# ---------------------------------------------------------------------------
# packed metric derivatives
# ---------------------------------------------------------------------------


def _metric_arrays(g, pt, method="jet"):
    """(g0, dg, ddg, ginv) with dg[c,a,b] = d_c g_ab, ddg[c,d,a,b]; over a
    batch each array has the batch axis first, and every contraction below
    runs on the trailing axes."""
    if method == "jet":
        g0, dg, ddg = g.jets_at(pt, 2)
    elif method == "fd":
        n = g.dim
        g0 = g.matrix_at(pt)
        dg = np.zeros(pt.shape + (n, n, n))
        ddg = np.zeros(pt.shape + (n, n, n, n))
        for (a, b), f in g.comps.items():
            for c in range(n):
                v = fd_oracle(f, pt, (c,))
                dg[..., c, a, b] = dg[..., c, b, a] = v
                for d in range(c, n):
                    vv = fd_oracle(f, pt, (c, d))
                    for cc, dd in ((c, d), (d, c)):
                        ddg[..., cc, dd, a, b] = ddg[..., cc, dd, b, a] = vv
    else:
        raise ValueError(f"unknown derivative method {method!r}")
    det = np.linalg.det(g0)
    small = np.abs(det) < METRIC_DET_TOL
    if anywhere(small):
        raise SingularMetricError(
            f"|det g| = {abs(first_where(det, small)):.3e} at {pt.coords}"
        )
    return g0, dg, ddg, np.linalg.inv(g0)


def _gamma_and_partial(g0, dg, ddg, ginv):
    """Christoffel symbols Gamma[a,b,c], dGamma[e,a,b,c] = d_e Gamma, and
    dginv[e,a,b] = d_e g^ab."""
    t = np.einsum("...bdc->...dbc", dg) + np.einsum("...cdb->...dbc", dg) - dg
    gamma = 0.5 * np.einsum("...ad,...dbc->...abc", ginv, t)
    dginv = -np.einsum("...af,...efh,...hb->...eab", ginv, dg, ginv)
    dt = (
        np.einsum("...ebdc->...edbc", ddg)
        + np.einsum("...ecdb->...edbc", ddg)
        - np.einsum("...edbc->...edbc", ddg)
    )
    dgamma = 0.5 * (
        np.einsum("...ead,...dbc->...eabc", dginv, t)
        + np.einsum("...ad,...edbc->...eabc", ginv, dt)
    )
    return gamma, dgamma, dginv


def _riemann_from_gamma(gamma, dgamma):
    return (
        np.einsum("...cadb->...abcd", dgamma)
        - np.einsum("...dacb->...abcd", dgamma)
        + np.einsum("...ace,...edb->...abcd", gamma, gamma)
        - np.einsum("...ade,...ecb->...abcd", gamma, gamma)
    )


def _curvature(g, pt, method, scalar=False):
    """(Gamma, R^a_bcd, R_bd, Kretschmann, g, g^-1) from one pass over the
    metric arrays; the costly Kretschmann contraction runs only if ``scalar``."""
    g0, dg, ddg, ginv = _metric_arrays(g, pt, method)
    gamma, dgamma, _ = _gamma_and_partial(g0, dg, ddg, ginv)
    r_up = _riemann_from_gamma(gamma, dgamma)
    k = None
    if scalar:
        r_low = np.einsum("...ae,...ebcd->...abcd", g0, r_up)
        k = np.einsum(
            "...abcd,...ae,...bf,...cg,...dh,...efgh->...",
            r_low, ginv, ginv, ginv, ginv, r_low,
        )
    return gamma, r_up, np.einsum("...abad->...bd", r_up), k, g0, ginv


def christoffel(g, pt, method="jet"):
    return _curvature(g, pt, method)[0]


def riemann(g, pt, method="jet"):
    """R^a_bcd from the metric at a point."""
    return _curvature(g, pt, method)[1]


def ricci(g, pt, method="jet"):
    return _curvature(g, pt, method)[2]


def kretschmann(g, pt, method="jet"):
    return _curvature(g, pt, method, scalar=True)[3]


@dataclass(frozen=True)
class CurvatureReport:
    christoffel: np.ndarray
    ricci: np.ndarray
    kretschmann: float


def curvature_report(g, pt, method="jet"):
    gamma, _, ric, k, _, _ = _curvature(g, pt, method, scalar=True)
    return CurvatureReport(gamma, ric, k)


# ---------------------------------------------------------------------------
# 4D Hodge star and Maxwell operators
# ---------------------------------------------------------------------------


def _perm_sign(p):
    sign = 1
    p = list(p)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


_EPS4 = np.zeros((4, 4, 4, 4))
for _p in permutations(range(4)):
    _EPS4[_p] = _perm_sign(_p)

_PAIRS4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _volume_jet(det):
    """sqrt(|det|) as a jet, sign-aware for Lorentzian metrics."""
    return jet_sqrt(abs(det))


def hodge4(F, g):
    """(star F)_ab = (1/2) sqrt|det g| eps_abcd F^cd with field components.

    eps has eps_0123 = +1 in the chart's coordinate order.
    """
    if F.degree != 2 or len(F.chart) != 4:
        raise ValueError("hodge4 expects a 2-form on a 4D chart")
    if F.chart != g.chart:
        raise ValueError("chart mismatch in hodge4")

    # one evaluation per scope serves all six components
    @Field
    def block(pt, order=0):
        rows = g.jet_matrix_at(pt, order)
        det = jet_det(rows)
        small = np.abs(det.value) < METRIC_DET_TOL
        if anywhere(small):
            raise SingularMetricError(f"|det g| = {abs(first_where(det.value, small)):.3e}")
        inv = jet_inv(rows, det)
        vol = _volume_jet(det)
        f_low = {pair: F.comp(pair)(pt, order) for pair in _PAIRS4}
        out = {}
        for a, b in _PAIRS4:
            c, d = (i for i in range(4) if i not in (a, b))
            sign = _EPS4[a, b, c, d]
            # F^cd = sum_{e<f} (g^ce g^df - g^cf g^de) F_ef
            total = None
            for (e, f), jet in f_low.items():
                coeff = inv[c][e] * inv[d][f] - inv[c][f] * inv[d][e]
                term = coeff * jet
                total = term if total is None else total + term
            star = vol * total
            out[(a, b)] = star if sign > 0 else -star
        return out

    def comp_field(idx):
        return Field(lambda pt, order=0: block(pt, order)[idx])

    return PForm(F.chart, 2, {idx: comp_field(idx) for idx in _PAIRS4})


def _f_matrix(F, pt):
    n = len(F.chart)
    m = np.zeros(pt.shape + (n, n))
    for (a, b), f in F.comps.items():
        v = f(pt, 0).value
        m[..., a, b] = v
        m[..., b, a] = -v
    return m


def _f_contract(fm, ginv):
    return np.einsum("...ab,...ac,...bd,...cd->...", fm, ginv, ginv, fm)


def f_squared(A, g, pt):
    """|F|^2 = F_ab F^ab for F = dA."""
    return _f_contract(_f_matrix(ext_d(A), pt), g.inverse_at(pt))


def maxwell_residual(A, g, pt):
    """Components of d(star dA), ordered by sorted 3-index tuples."""
    r = ext_d(hodge4(ext_d(A), g))
    return r.values_at(pt, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))


def em_residual(g, A, ell, pt, fsq_scale=1.0):
    """R_ab + 3 l^-2 g_ab + 2 F_ac F_b^c - (1/2) fsq_scale |F|^2 g_ab.

    ``fsq_scale`` rescales |F|^2 so the rejected normalization can be
    exercised; 1.0 is the pinned convention.
    """
    _, _, ric, _, g0, ginv = _curvature(g, pt, "jet")
    fm = _f_matrix(ext_d(A), pt)
    stress = np.einsum("...ac,...bd,...dc->...ab", fm, fm, ginv)
    fsq = _f_contract(fm, ginv)
    return (
        ric
        + (3.0 / ell**2) * g0
        + 2.0 * stress
        - 0.5 * fsq_scale * fsq[..., None, None] * g0
    )


# ---------------------------------------------------------------------------
# direct Einstein-Weyl check via the compatible torsion-free connection
# ---------------------------------------------------------------------------


def weyl_ricci_residual_metric(h, omega, pt, method="jet"):
    """(compat, ew) for raw (h, omega) data on a 3D chart.

    The connection is Levi-Civita(h) minus the standard correction
    C^a_bc = (1/2)(delta^a_b w_c + delta^a_c w_b - h_bc w^a), which makes
    D h = omega (x) h an identity; ``compat`` measures that identity (an
    implementation self-test), ``ew`` the trace-free symmetrized Ricci of D.
    """
    n = h.dim
    g0, dg, ddg, ginv = _metric_arrays(h, pt, method)
    gamma, dgamma, dginv = _gamma_and_partial(g0, dg, ddg, ginv)

    w = np.zeros(pt.shape + (n,))
    dw = np.zeros(pt.shape + (n, n))
    for a in range(n):
        j = omega.comp((a,))(pt, 1)
        w[..., a] = j.value
        dw[..., :, a] = j.grad
    w_up = (ginv @ w[..., None])[..., 0]
    dw_up = np.einsum("...eab,...b->...ea", dginv, w) + np.einsum(
        "...ab,...eb->...ea", ginv, dw
    )

    eye = np.eye(n)
    corr = 0.5 * (
        np.einsum("ab,...c->...abc", eye, w)
        + np.einsum("ac,...b->...abc", eye, w)
        - np.einsum("...bc,...a->...abc", g0, w_up)
    )
    dcorr = 0.5 * (
        np.einsum("ab,...ec->...eabc", eye, dw)
        + np.einsum("ac,...eb->...eabc", eye, dw)
        - np.einsum("...ebc,...a->...eabc", dg, w_up)
        - np.einsum("...bc,...ea->...eabc", g0, dw_up)
    )
    gamma_w = gamma - corr
    dgamma_w = dgamma - dcorr

    cov_h = (
        dg
        - np.einsum("...eca,...eb->...cab", gamma_w, g0)
        - np.einsum("...ecb,...ae->...cab", gamma_w, g0)
    )
    compat = np.abs(cov_h - np.einsum("...c,...ab->...cab", w, g0)).max(axis=(-3, -2, -1))

    ric_w = np.einsum("...abad->...bd", _riemann_from_gamma(gamma_w, dgamma_w))
    sym = 0.5 * (ric_w + np.swapaxes(ric_w, -1, -2))
    trace = np.einsum("...ab,...ab->...", ginv, sym)
    ew = np.abs(sym - (trace / n)[..., None, None] * g0).max(axis=(-2, -1))
    return (compat, ew)


def weyl_ricci_residual(s, pt, method="jet"):
    """(compat, ew) for an EW structure, metric taken from its coframe."""
    return weyl_ricci_residual_metric(
        metric_from_coframe(s.frame), s.omega, pt, method
    )
