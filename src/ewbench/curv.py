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

needs to cancel at F = 0.  |F|^2 means F_ab F^ab with no extra factor.

Maxwell's equation d star F = 0 is evaluated in divergence form.  With
(star F)_ab = (1/2) sqrt|g| eps_abcd F^cd and eps_0123 = +1 in the chart's
coordinate order, the coordinate identity

    (d star F)_abc = eps_abcd J^d,    J^d = d_e (sqrt|g| F^ed),

holds, so the residual needs g and F = dA through order 1 only: the
derivatives d_e g^ab = -g^ac (d_e g_cd) g^db and
d_e sqrt|g| = (1/2) sqrt|g| g^ab d_e g_ab come from the same packed metric
arrays as the curvature.  The orientation flips every component at once,
so a zero residual does not depend on it.

The metric work is done once per metric and point (or batch) in the open
evaluation scope: det g, g^-1 (:func:`inverse`), d g^-1 and the curvature
(Gamma, R^a_bcd, R_bd) are each one scoped value, keyed by the function, the
metric and the point, and computed from the packed arrays of ``g.jets_at``;
a function that reads several opens a scope when none is open.  So em,
maxwell and the invariants of one chart, ``riemann``, ``ricci``,
``christoffel``, ``kretschmann``, ``f_squared`` and ``inverse`` invert g
and build its curvature once between them.  F = dA is packed once per
potential and point in the same way, by :func:`field_strength`.  A packing
is kept at the highest order asked, and one of a higher order evaluates the
component fields again; so each function here asks for its highest order
first, and a job packs g, F and the coframe metric of its checks up
front, each at the highest order any of them reads (:func:`pack_reads`).  Any
object with ``dim`` and ``jets_at`` serves as the metric: the tests'
finite-difference oracle is one, and as the scope keys on the metric
object, it never reads or fills the jet metric's values.

Every contraction takes two operands in a fixed order, with ``np.einsum``
and no contraction planner: the planner may hand a step to BLAS, whose
kernels depend on the CPU, and a contraction of three or more operands in
one einsum loops over all their indices at once (n^6 products a point for
d g^-1 instead of 2 n^4).  Full sums run over a flattened last axis, so a
batch row adds its terms in the order its point alone does.
"""
from __future__ import annotations

import contextlib

import numpy as np

from .errors import EwbenchError, SingularMetricError
from .ew import frame_arrays
from .forms import exterior_d, metric_from_coframe
from .jets import (
    _over_power,
    anywhere,
    first_where,
    pack_jets,
    read_only,
    scoped,
    scoped_arrays,
    shared_scope,
)

# |det g| below this is singular for every metric inversion
METRIC_DET_TOL = 1e-12

# ---------------------------------------------------------------------------
# the metric work, once per metric and point in the evaluation scope
# ---------------------------------------------------------------------------


def metric_det(g0, pt):
    """det g of the metric matrix ``g0`` at ``pt`` (per row of a batch),
    the one singular-metric test before a metric is inverted: where |det g|
    is below METRIC_DET_TOL it raises SingularMetricError naming the point."""
    det = np.linalg.det(g0)
    small = np.abs(det) < METRIC_DET_TOL
    if anywhere(small):
        raise SingularMetricError(
            f"|det g| = {abs(first_where(det, small)):.3e} at {pt.coords}"
        )
    return det


def _det(g, pt):
    """det g at pt, tested by :func:`metric_det`."""
    return scoped((_det, g, pt), lambda: metric_det(g.jets_at(pt, 0)[0], pt))


def inverse(g, pt):
    """g^-1 at pt, after det g has passed :func:`metric_det`'s test."""

    def make():
        _det(g, pt)
        return read_only(np.linalg.inv(g.jets_at(pt, 0)[0]))

    return scoped((inverse, g, pt), make)


def _inverse_partial(ginv, dg):
    """dginv[e,a,b] = d_e g^ab = -g^af (d_e g_fh) g^hb, one index at a time."""
    half = np.einsum("...af,...efh->...eah", ginv, dg)
    return -np.einsum("...eah,...hb->...eab", half, ginv)


def _dginv(g, pt):
    """d g^-1 at pt."""

    def make():
        dg = g.jets_at(pt, 1)[1]
        return read_only(_inverse_partial(inverse(g, pt), dg))

    return scoped((_dginv, g, pt), make)


def _gamma_and_partial(dg, ddg, ginv, dginv):
    """Christoffel symbols Gamma[a,b,c] and dGamma[e,a,b,c] = d_e Gamma."""
    t = _permuted("bdc->dbc", dg) + _permuted("cdb->dbc", dg) - dg
    gamma = 0.5 * np.einsum("...ad,...dbc->...abc", ginv, t)
    dt = _permuted("ebdc->edbc", ddg) + _permuted("ecdb->edbc", ddg) - ddg
    dgamma = 0.5 * (
        np.einsum("...ead,...dbc->...eabc", dginv, t)
        + np.einsum("...ad,...edbc->...eabc", ginv, dt)
    )
    return gamma, dgamma


def _permuted(spec, a):
    """The view of ``a`` whose last axes are permuted as ``spec`` says, in
    einsum's notation for them ("bdc->dbc": out[..., d, b, c] = a[..., b, d, c])."""
    src, dst = spec.split("->")
    lead = a.ndim - len(src)
    return a.transpose(*range(lead), *(lead + src.index(ch) for ch in dst))


def _riemann_from_gamma(gamma, dgamma):
    # Gamma^a_de Gamma^e_cb is Gamma^a_ce Gamma^e_db with c and d swapped
    gg = np.einsum("...ace,...edb->...abcd", gamma, gamma)
    ddg = _permuted("cadb->abcd", dgamma) - _permuted("dacb->abcd", dgamma)
    return ddg + gg - np.swapaxes(gg, -1, -2)


def _curvature(g, pt):
    """(Gamma, R^a_bcd, R_bd) at pt; d Gamma is not kept, as only R^a_bcd
    reads it."""

    def make():
        _, dg, ddg = g.jets_at(pt, 2)
        gamma, dgamma = _gamma_and_partial(dg, ddg, inverse(g, pt), _dginv(g, pt))
        r_up = _riemann_from_gamma(gamma, dgamma)
        ric = np.einsum("...abad->...bd", r_up)
        return read_only(gamma), read_only(r_up), read_only(ric)

    return scoped((_curvature, g, pt), make)


def _full_sum(terms, axes):
    """The sum over the last ``axes`` axes of ``terms``, flattened into one,
    so a batch row adds its terms in the order its point alone does (an
    einsum or a sum over several axes does not)."""
    return np.sum(terms.reshape(terms.shape[: terms.ndim - axes] + (-1,)), axis=-1)


def christoffel(g, pt):
    return _curvature(g, pt)[0]


def riemann(g, pt):
    """R^a_bcd from the metric at a point."""
    return _curvature(g, pt)[1]


def ricci(g, pt):
    return _curvature(g, pt)[2]


def kretschmann(g, pt):
    """R_abcd R^abcd: lower the first index of R^a_bcd, raise the last
    three one at a time, then one elementwise product and sum.  Each index
    moves in a two-operand einsum, n^5 products a point instead of the n^8
    of a single contraction."""
    with shared_scope():
        r_up, ginv, g0 = _curvature(g, pt)[1], inverse(g, pt), g.jets_at(pt, 0)[0]
    r_low = np.einsum("...ae,...ebcd->...abcd", g0, r_up)
    r_all = np.einsum("...bf,...afcd->...abcd", ginv, r_up)
    r_all = np.einsum("...cg,...abgd->...abcd", ginv, r_all)
    r_all = np.einsum("...dh,...abch->...abcd", ginv, r_all)
    return _full_sum(r_low * r_all, 4)


# ---------------------------------------------------------------------------
# Maxwell and Einstein-Maxwell residuals
# ---------------------------------------------------------------------------


def field_strength(A, pt, order):
    """Packed arrays of F = dA through ``order``, like ``MetricField.jets_at``:
    F[a,b], dF[c,a,b] = d_c F_ab, each antisymmetric in a, b, kept in the
    evaluation scope under (A, pt) at the highest order asked.  They come
    from the jets of A one order up, by ``forms.exterior_d``."""
    return scoped_arrays((field_strength, A, pt), order, lambda k: _pack_f(A, pt, k))


def _pack_f(A, pt, order):
    """F = dA by ``forms.exterior_d`` from the jets of A packed through
    ``order + 1``."""
    n = len(A.chart)
    return exterior_d(pack_jets(pt, [A.comps.get((a,)) for a in range(n)], order + 1, (n,)))


def _f_contract(fm, ginv):
    """|F|^2 = F_cd F^cd, raising F^cd = g^ac (F_ab g^bd) one index at a time."""
    f_up = np.einsum("...ac,...ad->...cd", ginv, np.einsum("...ab,...bd->...ad", fm, ginv))
    return _full_sum(fm * f_up, 2)


def f_squared(A, g, pt):
    """|F|^2 = F_ab F^ab for F = dA."""
    return _f_contract(field_strength(A, pt, 0)[0], inverse(g, pt))


def scalar_invariants(g, A, pt):
    """(Kretschmann, |F|^2 for F = dA, g) at pt: the last two equal
    ``f_squared`` and ``g.matrix_at`` bit for bit, since a jet's value is
    the order-0 jet.  The curvature is asked first, so g is packed once,
    at order 2."""
    with shared_scope():
        return kretschmann(g, pt), f_squared(A, g, pt), g.jets_at(pt, 0)[0]


def maxwell_residual(A, g, pt):
    """Components of d(star dA) at the sorted 3-index tuples 012, 013, 023,
    123: eps_abcd J^d with J^d = d_e(sqrt|g| F^ed), that is J^3, -J^2,
    J^1, -J^0."""
    with shared_scope():
        dg = g.jets_at(pt, 1)[1]
        ginv, dginv, det = inverse(g, pt), _dginv(g, pt), _det(g, pt)
        fm, dfm = field_strength(A, pt, 1)
    vol = np.sqrt(np.abs(det))
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


def em_residual(g, A, ell, pt):
    """R_ab + 3 l^-2 g_ab + 2 F_ac F_b^c - (1/2) |F|^2 g_ab."""
    with shared_scope():
        ric = _curvature(g, pt)[2]
        g0, ginv = g.jets_at(pt, 0)[0], inverse(g, pt)
        fm = field_strength(A, pt, 0)[0]
    # F_ac F_b^c = F_ac (F_bd g^dc)
    stress = np.einsum("...ac,...bc->...ab", fm, np.einsum("...bd,...dc->...bc", fm, ginv))
    fsq = _f_contract(fm, ginv)
    return (
        ric
        + _over_power(3.0, float(ell), 2) * g0
        + 2.0 * stress
        - 0.5 * fsq[..., None, None] * g0
    )


# ---------------------------------------------------------------------------
# direct Einstein-Weyl check via the compatible torsion-free connection
# ---------------------------------------------------------------------------


def weyl_ricci_residual_metric(h, omega, pt):
    """(compat, ew) for a metric h and the packed arrays ``omega`` = (w,
    dw) of a 1-form at ``pt``, w[..., a] and dw[..., e, a] = d_e w_a (as
    ``ew.frame_arrays(s, pt, "omega", 1)`` gives them).

    The connection is Levi-Civita(h) minus the standard correction
    C^a_bc = (1/2)(delta^a_b w_c + delta^a_c w_b - h_bc w^a), which makes
    D h = omega (x) h an identity; ``compat`` measures that identity (an
    implementation self-test), ``ew`` the trace-free symmetrized Ricci of D.
    """
    n = h.dim
    with shared_scope():
        g0, dg, ddg = h.jets_at(pt, 2)
        ginv, dginv = inverse(h, pt), _dginv(h, pt)
    gamma, dgamma = _gamma_and_partial(dg, ddg, ginv, dginv)

    w, dw = omega
    w_up = (ginv @ w[..., None])[..., 0]
    dw_up = np.einsum("...eab,...b->...ea", dginv, w) + np.einsum(
        "...ab,...eb->...ea", ginv, dw
    )

    # outer products, which sum nothing, broadcast: delta^a_b w_c is
    # eye[a, b, None] * w[..., None, None, c], and so on
    eye = np.eye(n)
    corr = 0.5 * (
        eye[:, :, None] * w[..., None, None, :]
        + eye[:, None, :] * w[..., None, :, None]
        - g0[..., None, :, :] * w_up[..., :, None, None]
    )
    dcorr = 0.5 * (
        eye[:, :, None] * dw[..., :, None, None, :]
        + eye[:, None, :] * dw[..., :, None, :, None]
        - dg[..., :, None, :, :] * w_up[..., None, :, None, None]
        - g0[..., None, None, :, :] * dw_up[..., :, :, None, None]
    )
    gamma_w = gamma - corr
    dgamma_w = dgamma - dcorr

    cov_h = (
        dg
        - np.einsum("...eca,...eb->...cab", gamma_w, g0)
        - np.einsum("...ecb,...ae->...cab", gamma_w, g0)
    )
    compat = np.abs(cov_h - w[..., :, None, None] * g0[..., None, :, :]).max(axis=(-3, -2, -1))

    ric_w = np.einsum("...abad->...bd", _riemann_from_gamma(gamma_w, dgamma_w))
    sym = 0.5 * (ric_w + np.swapaxes(ric_w, -1, -2))
    trace = np.einsum("...ab,...ab->...", ginv, sym)
    ew = np.abs(sym - (trace / n)[..., None, None] * g0).max(axis=(-2, -1))
    return (compat, ew)


def weyl_ricci_residual(s, pt):
    """(compat, ew) for an EW structure, metric taken from its coframe and
    omega from its frame arrays."""
    return weyl_ricci_residual_metric(
        metric_from_coframe(s.frame), frame_arrays(s, pt, "omega", 1), pt
    )


# ---------------------------------------------------------------------------
# the arrays a job packs before its checks run
# ---------------------------------------------------------------------------

# the arrays a check may read, packed through a jet order, of the structure or
# lift whose points it runs on and of a 1-form psi: psi (which may read omega),
# omega and V (which differentiate coframe fields) before the coframe
PACKERS = {
    "h": lambda s, q, order: metric_from_coframe(s.frame).jets_at(q, order),
    "psi": lambda psi, q, order: [f(q, order) for f in psi.comps.values()],
    "omega": lambda s, q, order: frame_arrays(s, q, "omega", order),
    "V": lambda s, q, order: frame_arrays(s, q, "V", order),
    "frame": lambda s, q, order: frame_arrays(s, q, "frame", order),
    "g": lambda data, q, order: data.g.jets_at(q, order),
    "F": lambda data, q, order: field_strength(data.potential, q, order),
}


def pack_reads(reads):
    """Pack in the open evaluation scope the arrays of ``reads``, one
    ``(on, points, {PACKERS name: jet order})`` per check, each once at the
    highest order read, so that a later read slices what is held (em's F
    serves maxwell).  Higher orders go first, then ``PACKERS`` order, so a
    field that two arrays read is evaluated once (weyl's h serves the frame
    arrays).  A packing runs with numpy warnings off, as a check does; one
    that raises is dropped, and the check that reads the array raises the
    same error in its turn, so a job still stops at its first failing check.
    """
    plan = {}
    for on, pts, arrays in reads:
        for array, order in arrays.items():
            held = plan.setdefault((array, id(on), id(pts)), [array, on, pts, order])
            held[3] = max(held[3], order)
    rank = list(PACKERS).index
    for array, on, pts, order in sorted(plan.values(), key=lambda p: (-p[3], rank(p[0]))):
        with contextlib.suppress(EwbenchError), np.errstate(all="ignore"):
            PACKERS[array](on, pts, order)
