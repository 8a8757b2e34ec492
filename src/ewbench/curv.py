"""Metric curvature and field-equation residuals.

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
demonstrate it fails.

Maxwell's equation d star F = 0 is evaluated in divergence form.  With
(star F)_ab = (1/2) sqrt|g| eps_abcd F^cd and eps_0123 = +1 in the chart's
coordinate order, the coordinate identity

    (d star F)_abc = eps_abcd J^d,    J^d = d_e (sqrt|g| F^ed),

holds, so the residual needs g and F = dA through order 1 only: the
derivatives d_e g^ab = -g^ac (d_e g_cd) g^db and
d_e sqrt|g| = (1/2) sqrt|g| g^ab d_e g_ab come from the same packed metric
arrays as the curvature.  The orientation flips every component at once,
so a zero residual does not depend on it.

Derivatives of the metric come from jets by default; ``method="fd"``
switches every partial to the finite-difference oracle for an independent
cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import ext_d, metric_det, metric_from_coframe
from .jets import fd_oracle

__all__ = [
    "christoffel",
    "riemann",
    "ricci",
    "kretschmann",
    "CurvatureReport",
    "curvature_report",
    "f_squared",
    "scalar_invariants",
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
    metric_det(g0, pt)
    return g0, dg, ddg, np.linalg.inv(g0)


def _inverse_partial(ginv, dg):
    """dginv[e,a,b] = d_e g^ab = -g^af (d_e g_fh) g^hb."""
    return -np.einsum("...af,...efh,...hb->...eab", ginv, dg, ginv)


def _gamma_and_partial(g0, dg, ddg, ginv):
    """Christoffel symbols Gamma[a,b,c], dGamma[e,a,b,c] = d_e Gamma, and
    dginv[e,a,b] = d_e g^ab."""
    t = np.einsum("...bdc->...dbc", dg) + np.einsum("...cdb->...dbc", dg) - dg
    gamma = 0.5 * np.einsum("...ad,...dbc->...abc", ginv, t)
    dginv = _inverse_partial(ginv, dg)
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


def _kretschmann(r_up, g0, ginv):
    """R_abcd R^abcd from R^a_bcd: lower the first index, raise the last
    three one at a time, then one elementwise product and sum.  Each index
    moves in a two-operand einsum, n^5 products a point instead of the n^8
    of a single contraction.  The order is fixed here, not left to einsum's
    contraction planner, which may hand a step to BLAS, whose kernels
    depend on the CPU.  The sum runs over the flattened last axis, so a
    batch row adds its terms in the order its point alone does (an einsum
    over all four axes does not)."""
    r_low = np.einsum("...ae,...ebcd->...abcd", g0, r_up)
    r_all = np.einsum("...bf,...afcd->...abcd", ginv, r_up)
    r_all = np.einsum("...cg,...abgd->...abcd", ginv, r_all)
    r_all = np.einsum("...dh,...abch->...abcd", ginv, r_all)
    terms = r_low * r_all
    return np.sum(terms.reshape(terms.shape[:-4] + (-1,)), axis=-1)


def _curvature(g, pt, method, scalar=False):
    """(Gamma, R^a_bcd, R_bd, Kretschmann, g, g^-1) from one pass over the
    metric arrays; the Kretschmann contraction runs only if ``scalar``."""
    g0, dg, ddg, ginv = _metric_arrays(g, pt, method)
    gamma, dgamma, _ = _gamma_and_partial(g0, dg, ddg, ginv)
    r_up = _riemann_from_gamma(gamma, dgamma)
    k = _kretschmann(r_up, g0, ginv) if scalar else None
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
# Maxwell and Einstein-Maxwell residuals
# ---------------------------------------------------------------------------


def _field_strength(A, pt, order):
    """Packed arrays of F = dA through ``order``, like ``MetricField.jets_at``:
    F[a,b], dF[c,a,b] = d_c F_ab, each antisymmetric in a, b."""
    F = ext_d(A)
    n = len(F.chart)
    packed = tuple(np.zeros(pt.shape + (n,) * (k + 2)) for k in range(order + 1))
    for (a, b), f in F.comps.items():
        for arr, part in zip(packed, f(pt, order).parts):
            arr[..., a, b], arr[..., b, a] = part, -part
    return packed


def _f_contract(fm, ginv):
    return np.einsum("...ab,...ac,...bd,...cd->...", fm, ginv, ginv, fm)


def f_squared(A, g, pt):
    """|F|^2 = F_ab F^ab for F = dA."""
    return _f_contract(_field_strength(A, pt, 0)[0], g.inverse_at(pt))


def scalar_invariants(g, A, pt):
    """(Kretschmann, |F|^2 for F = dA, g) from one curvature pass: |F|^2
    contracts with that pass's g^-1, so the metric is evaluated and
    inverted once.  The last two equal ``f_squared`` and ``g.matrix_at``
    bit for bit, since a jet's value is the order-0 jet."""
    _, _, _, k, g0, ginv = _curvature(g, pt, "jet", scalar=True)
    return k, _f_contract(_field_strength(A, pt, 0)[0], ginv), g0


def maxwell_residual(A, g, pt):
    """Components of d(star dA) at the sorted 3-index tuples 012, 013, 023,
    123: eps_abcd J^d with J^d = d_e(sqrt|g| F^ed), that is J^3, -J^2,
    J^1, -J^0."""
    g0, dg = g.jets_at(pt, 1)
    vol = np.sqrt(np.abs(metric_det(g0, pt)))
    ginv = np.linalg.inv(g0)
    dginv = _inverse_partial(ginv, dg)
    fm, dfm = _field_strength(A, pt, 1)
    # F^ed and its partials d_c F^ed
    f_up = np.einsum("...ea,...ab,...db->...ed", ginv, fm, ginv)
    df_up = (
        np.einsum("...cea,...ab,...db->...ced", dginv, fm, ginv)
        + np.einsum("...ea,...cab,...db->...ced", ginv, dfm, ginv)
        + np.einsum("...ea,...ab,...cdb->...ced", ginv, fm, dginv)
    )
    # d_e sqrt|g| / sqrt|g| = (1/2) g^ab d_e g_ab
    dlog_vol = 0.5 * np.einsum("...ab,...eab->...e", ginv, dg)
    div = np.einsum("...e,...ed->...d", dlog_vol, f_up) + np.einsum("...eed->...d", df_up)
    j_up = vol[..., None] * div
    return np.stack(
        (j_up[..., 3], -j_up[..., 2], j_up[..., 1], -j_up[..., 0]), axis=-1
    )


def em_residual(g, A, ell, pt, fsq_scale=1.0):
    """R_ab + 3 l^-2 g_ab + 2 F_ac F_b^c - (1/2) fsq_scale |F|^2 g_ab.

    ``fsq_scale`` rescales |F|^2 so the rejected normalization can be
    exercised; 1.0 is the pinned convention.
    """
    _, _, ric, _, g0, ginv = _curvature(g, pt, "jet")
    fm = _field_strength(A, pt, 0)[0]
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
