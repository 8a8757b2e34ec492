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

The metric work is done once per metric and point (or batch) in the open
evaluation scope: ``MetricField.pass_at`` holds a
:class:`~ewbench.forms.MetricPass`, and every function here reads det g,
g^-1, d g^-1, the Christoffel symbols, R^a_bcd and R_bd from it, filling
each slot the first time one is needed.  So em, maxwell and the invariants
of one chart, and ``riemann``, ``ricci``, ``christoffel``, ``kretschmann``,
``f_squared`` and ``MetricField.inverse_at``, invert g and build its
curvature once between them.  F = dA is packed once per potential and
point in the same way, by :func:`field_strength`.  A packing is kept at
the highest order asked, and a later call that asks a higher one packs
again, evaluating the component fields again at that order; so the CLI
packs g, F and the coframe metric of its checks up front, each at the
highest order any of them reads (``cli.PACKERS``), and the checks only
slice.  ``method="fd"`` builds a pass of its own that no other call reads
or fills, so the oracle never sees a jet derivative.

Every contraction takes two operands in a fixed order, with ``np.einsum``
and no contraction planner: the planner may hand a step to BLAS, whose
kernels depend on the CPU, and a contraction of three or more operands in
one einsum loops over all their indices at once (n^6 products a point for
d g^-1 instead of 2 n^4).  Full sums run over a flattened last axis, so a
batch row adds its terms in the order its point alone does.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import MetricPass, ext_d, metric_from_coframe, read_only
from .jets import _over_power, fd_oracle, scoped_arrays

__all__ = [
    "christoffel",
    "riemann",
    "ricci",
    "kretschmann",
    "CurvatureReport",
    "curvature_report",
    "f_squared",
    "field_strength",
    "scalar_invariants",
    "maxwell_residual",
    "em_residual",
    "weyl_ricci_residual",
    "weyl_ricci_residual_metric",
]

# ---------------------------------------------------------------------------
# the metric pass
# ---------------------------------------------------------------------------


def _fd_arrays(g, pt):
    """(g0, dg, ddg) with dg[c,a,b] = d_c g_ab and ddg[c,d,a,b] from the
    finite-difference oracle, the batch axis first over a batch."""
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
    return g0, dg, ddg


def _metric_pass(g, pt, method):
    """The scope's pass of g at pt for jets; for ``method="fd"`` a new pass
    packed by the oracle, which no other call reads."""
    if method == "jet":
        return g.pass_at(pt)
    if method == "fd":
        return MetricPass(pt, lambda order: _fd_arrays(g, pt))
    raise ValueError(f"unknown derivative method {method!r}")


def _inverse_partial(ginv, dg):
    """dginv[e,a,b] = d_e g^ab = -g^af (d_e g_fh) g^hb, one index at a time."""
    half = np.einsum("...af,...efh->...eah", ginv, dg)
    return -np.einsum("...eah,...hb->...eab", half, ginv)


def _dginv(p):
    """d g^-1 of the pass p."""
    if p.dginv is None:
        dg = p.arrays(1)[1]
        p.dginv = read_only(_inverse_partial(p.inverse(), dg))
    return p.dginv


def _gamma_and_partial(dg, ddg, ginv, dginv):
    """Christoffel symbols Gamma[a,b,c] and dGamma[e,a,b,c] = d_e Gamma."""
    t = np.einsum("...bdc->...dbc", dg) + np.einsum("...cdb->...dbc", dg) - dg
    gamma = 0.5 * np.einsum("...ad,...dbc->...abc", ginv, t)
    dt = (
        np.einsum("...ebdc->...edbc", ddg)
        + np.einsum("...ecdb->...edbc", ddg)
        - np.einsum("...edbc->...edbc", ddg)
    )
    dgamma = 0.5 * (
        np.einsum("...ead,...dbc->...eabc", dginv, t)
        + np.einsum("...ad,...edbc->...eabc", ginv, dt)
    )
    return gamma, dgamma


def _riemann_from_gamma(gamma, dgamma):
    return (
        np.einsum("...cadb->...abcd", dgamma)
        - np.einsum("...dacb->...abcd", dgamma)
        + np.einsum("...ace,...edb->...abcd", gamma, gamma)
        - np.einsum("...ade,...ecb->...abcd", gamma, gamma)
    )


def _curvature(g, pt, method="jet"):
    """The pass of g at pt with Gamma, R^a_bcd and R_bd filled; d Gamma is
    not kept, as only R^a_bcd reads it."""
    p = _metric_pass(g, pt, method)
    if p.r_up is None:
        _, dg, ddg = p.arrays(2)
        gamma, dgamma = _gamma_and_partial(dg, ddg, p.inverse(), _dginv(p))
        r_up = _riemann_from_gamma(gamma, dgamma)
        p.gamma = read_only(gamma)
        p.ric = read_only(np.einsum("...abad->...bd", r_up))
        p.r_up = read_only(r_up)
    return p


def _kretschmann(p):
    """R_abcd R^abcd from the pass p: lower the first index of R^a_bcd,
    raise the last three one at a time, then one elementwise product and
    sum.  Each index moves in a two-operand einsum, n^5 products a point
    instead of the n^8 of a single contraction."""
    r_up, ginv = p.r_up, p.inverse()
    r_low = np.einsum("...ae,...ebcd->...abcd", p.arrays(0)[0], r_up)
    r_all = np.einsum("...bf,...afcd->...abcd", ginv, r_up)
    r_all = np.einsum("...cg,...abgd->...abcd", ginv, r_all)
    r_all = np.einsum("...dh,...abch->...abcd", ginv, r_all)
    return _full_sum(r_low * r_all, 4)


def _full_sum(terms, axes):
    """The sum over the last ``axes`` axes of ``terms``, flattened into one,
    so a batch row adds its terms in the order its point alone does (an
    einsum or a sum over several axes does not)."""
    return np.sum(terms.reshape(terms.shape[: terms.ndim - axes] + (-1,)), axis=-1)


def christoffel(g, pt, method="jet"):
    return _curvature(g, pt, method).gamma


def riemann(g, pt, method="jet"):
    """R^a_bcd from the metric at a point."""
    return _curvature(g, pt, method).r_up


def ricci(g, pt, method="jet"):
    return _curvature(g, pt, method).ric


def kretschmann(g, pt, method="jet"):
    return _kretschmann(_curvature(g, pt, method))


@dataclass(frozen=True)
class CurvatureReport:
    christoffel: np.ndarray
    ricci: np.ndarray
    kretschmann: float


def curvature_report(g, pt, method="jet"):
    p = _curvature(g, pt, method)
    return CurvatureReport(p.gamma, p.ric, _kretschmann(p))


# ---------------------------------------------------------------------------
# Maxwell and Einstein-Maxwell residuals
# ---------------------------------------------------------------------------


def field_strength(A, pt, order):
    """Packed arrays of F = dA through ``order``, like ``MetricField.jets_at``:
    F[a,b], dF[c,a,b] = d_c F_ab, each antisymmetric in a, b, kept in the
    evaluation scope under (A, pt) at the highest order asked."""
    return scoped_arrays((field_strength, A, pt), order, lambda k: _pack_f(A, pt, k))


def _pack_f(A, pt, order):
    F = ext_d(A)
    n = len(F.chart)
    packed = tuple(np.zeros(pt.shape + (n,) * (k + 2)) for k in range(order + 1))
    for (a, b), f in F.comps.items():
        for arr, part in zip(packed, f(pt, order).parts):
            arr[..., a, b], arr[..., b, a] = part, -part
    return tuple(map(read_only, packed))


def _f_contract(fm, ginv):
    """|F|^2 = F_cd F^cd, raising F^cd = g^ac (F_ab g^bd) one index at a time."""
    f_up = np.einsum("...ac,...ad->...cd", ginv, np.einsum("...ab,...bd->...ad", fm, ginv))
    return _full_sum(fm * f_up, 2)


def f_squared(A, g, pt):
    """|F|^2 = F_ab F^ab for F = dA."""
    return _f_contract(field_strength(A, pt, 0)[0], g.inverse_at(pt))


def scalar_invariants(g, A, pt):
    """(Kretschmann, |F|^2 for F = dA, g) from the pass of g at pt: the
    last two equal ``f_squared`` and ``g.matrix_at`` bit for bit, since a
    jet's value is the order-0 jet."""
    p = _curvature(g, pt)
    fsq = _f_contract(field_strength(A, pt, 0)[0], p.inverse())
    return _kretschmann(p), fsq, p.arrays(0)[0]


def maxwell_residual(A, g, pt):
    """Components of d(star dA) at the sorted 3-index tuples 012, 013, 023,
    123: eps_abcd J^d with J^d = d_e(sqrt|g| F^ed), that is J^3, -J^2,
    J^1, -J^0."""
    p = g.pass_at(pt)
    _, dg = p.arrays(1)
    ginv = p.inverse()
    dginv = _dginv(p)
    vol = np.sqrt(np.abs(p.det))
    fm, dfm = field_strength(A, pt, 1)
    # F^ed = u_eb g^db with u_eb = g^ea F_ab, and its partials
    # d_c F^ed = (d_c g^ea F_ab + g^ea d_c F_ab) g^db + u_eb d_c g^db
    u = np.einsum("...ea,...ab->...eb", ginv, fm)
    f_up = np.einsum("...eb,...db->...ed", u, ginv)
    v = np.einsum("...cea,...ab->...ceb", dginv, fm) + np.einsum(
        "...ea,...cab->...ceb", ginv, dfm
    )
    df_up = np.einsum("...ceb,...db->...ced", v, ginv) + np.einsum(
        "...eb,...cdb->...ced", u, dginv
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
    p = _curvature(g, pt)
    g0, ginv = p.arrays(0)[0], p.inverse()
    fm = field_strength(A, pt, 0)[0]
    # F_ac F_b^c = F_ac (F_bd g^dc)
    stress = np.einsum("...ac,...bc->...ab", fm, np.einsum("...bd,...dc->...bc", fm, ginv))
    fsq = _f_contract(fm, ginv)
    return (
        p.ric
        + _over_power(3.0, float(ell), 2) * g0
        + 2.0 * stress
        - 0.5 * fsq_scale * fsq[..., None, None] * g0
    )


# ---------------------------------------------------------------------------
# direct Einstein-Weyl check via the compatible torsion-free connection
# ---------------------------------------------------------------------------


def weyl_ricci_residual_metric(h, omega, pt, method="jet"):
    """(compat, ew) for a metric h and the packed arrays ``omega`` = (w,
    dw) of a 1-form at ``pt``, w[..., a] and dw[..., e, a] = d_e w_a (as
    ``EWStructure.pass_at(pt).arrays("omega", 1)`` gives them).

    The connection is Levi-Civita(h) minus the standard correction
    C^a_bc = (1/2)(delta^a_b w_c + delta^a_c w_b - h_bc w^a), which makes
    D h = omega (x) h an identity; ``compat`` measures that identity (an
    implementation self-test), ``ew`` the trace-free symmetrized Ricci of D.
    """
    n = h.dim
    p = _metric_pass(h, pt, method)
    g0, dg, ddg = p.arrays(2)
    ginv, dginv = p.inverse(), _dginv(p)
    gamma, dgamma = _gamma_and_partial(dg, ddg, ginv, dginv)

    w, dw = omega
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
    """(compat, ew) for an EW structure, metric taken from its coframe and
    omega from its frame pass."""
    return weyl_ricci_residual_metric(
        metric_from_coframe(s.frame), s.pass_at(pt).arrays("omega", 1), pt, method
    )
