"""Test-local oracles: the form-algebra definitions that no command reaches,
kept so that tests can pin the packed-array code against them.

``ext_d`` and ``wedge`` are the exterior derivative and wedge product on
field components (``Field.d`` and field products), the references for
``forms.exterior_d`` and the arrays of ``ew``, whose derivatives of forms
are taken on packed jets; ``scalar_form`` is the 0-form of a field, and
``values_at`` packs the values of a form's components at a point.
``star_frame`` is the star of a coframe leg as a form, by the rules that
``ew.stars`` computes on values; ``hodge3`` is the 3D Hodge star as a
form, with ``frame_expand`` giving its coefficients; ``weighted_d`` is
D psi = d psi - (m/2) omega ^ psi for a ``Weighted`` pair of a 1-form and
its weight m;
``flat_limit_per_ell`` is ``lift.flat_limit`` one ell at a time;
``leibniz_parts`` is the product of two jets by the Leibniz rule on full
derivative tensors, and ``sum_table_by_labellings`` the tables of
``jets._sum_table`` from every labelling of the blocks;
``fd_oracle`` is the finite-difference oracle, which samples values only,
and ``FDMetric`` a metric whose derivatives come from it; ``class_a_closed``, ``class_b_closed`` and ``class_c_closed`` are
the closed-form (h, omega) pairs of the p-chart classes, and
``g_equation_residual`` and ``branch_residual`` the Legendre generator's
equation and its y-derivative.  ``build_p`` and ``build_alpha`` build a
lift on each fibre chart by that chart's own formulas, unvalidated: the
reference that ``lift.assemble`` is pinned to bit for bit.  ``hcr_residual`` and
``constraints_residual`` are the scalar hyper-CR equation of a generating
H and its two parts, ``fundamental_H`` that equation's fundamental
solution, ``heisenberg_psi`` a y-independent family of psi 1-forms on
the Heisenberg structure, ``CLASS_B_FS`` the class B presets and
``k_from_phi`` the class C K of a preset Phi.  The rest are small readers
of a point (``coord``, ``with_coord``), a form (``comp``), a metric, the
alpha fibre chart and a sampling domain.
"""
import itertools
import math
import weakref
from collections import Counter
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from ewbench import expr as ex
from ewbench import jets
from ewbench.curv import riemann
from ewbench.errors import ConfigError, DomainError, JetOrderError
from ewbench.families import CLASS_C_PHIS, PYT, _ast, _k_field
from ewbench.forms import (
    MetricField,
    PForm,
    coordinate_form,
    embed_form,
    embed_metric,
    frame_solve,
    metric_from_coframe,
    signature,
    symmetric_product,
)
from ewbench.jets import (
    MAX_ORDER,
    Field,
    Jet,
    PointBatch,
    evaluation_scope,
    pack_jets,
    scoped,
)
from ewbench.lift import LIMIT_ROWS, SpacetimeData, _limit_form, build
from ewbench.report import run_check


def coord(q, name):
    """The coordinate ``name`` of a point, or its (N,) array over a batch."""
    return q.coords[q.chart.index(name)]


def with_coord(q, index, value):
    """The point or batch ``q`` with coordinate ``index`` set to ``value``."""
    coords = list(q.coords)
    coords[index] = value
    return q.on_chart(q.chart, coords)


def comp(form, idx):
    """The component of ``form`` at ``idx``, the constant 0 where absent."""
    return form.comps.get(tuple(idx), Field.const(0.0))


def values_at(form, pt, idxs):
    """The values of the components ``idxs`` of ``form`` at ``pt``, in that
    order, with the batch axis first over a batch."""
    return pack_jets(pt, [form.comps.get(tuple(idx)) for idx in idxs], 0, (len(idxs),))[0]


def max_abs_at(form, pt):
    """Largest absolute component value of ``form`` at ``pt`` (per row of a
    batch); NaN if any is NaN."""
    return np.max(np.abs(values_at(form, pt, form.comps)), axis=-1, initial=0.0)


def scalar_form(chart, f):
    """The 0-form of a field or number."""
    return PForm(chart, 0, {(): f if isinstance(f, Field) else Field.const(float(f))})


def _merge_sign(left, right):
    """Sorted union of disjoint index tuples with the permutation sign."""
    if set(left) & set(right):
        return None, 0
    merged = left + right
    inversions = 0
    for a in range(len(merged)):
        for b in range(a + 1, len(merged)):
            if merged[a] > merged[b]:
                inversions += 1
    return tuple(sorted(merged)), -1 if inversions % 2 else 1


def wedge(a, b):
    """a ^ b on field components."""
    if a.chart != b.chart:
        raise ValueError("chart mismatch in wedge")
    degree = a.degree + b.degree
    comps = {}
    for ia, fa in a.comps.items():
        for ib, fb in b.comps.items():
            idx, sign = _merge_sign(ia, ib)
            if idx is None:
                continue
            term = fa * fb if sign > 0 else -(fa * fb)
            comps[idx] = comps[idx] + term if idx in comps else term
    return PForm._built(a.chart, degree, comps)


def ext_d(a):
    """Exterior derivative on field components, which differentiate on
    demand (``Field.d``)."""
    dim = len(a.chart)
    comps = {}
    for idx, f in a.comps.items():
        for k in range(dim):
            if k in idx:
                continue
            position = sum(1 for i in idx if i < k)
            df = f.d(a.chart[k])
            term = df if position % 2 == 0 else -df
            new_idx = tuple(sorted(idx + (k,)))
            comps[new_idx] = comps[new_idx] + term if new_idx in comps else term
    return PForm._built(a.chart, a.degree + 1, comps)


def from_value_matrix(chart, matrix):
    """The constant metric of a symmetric value matrix on ``chart``."""
    matrix = np.asarray(matrix, dtype=float)
    n = len(chart)
    if matrix.shape != (n, n):
        raise ValueError("matrix shape does not match chart")
    if not np.allclose(matrix, matrix.T, rtol=0.0, atol=1e-12):
        raise ValueError("metric matrix must be symmetric")
    matrix = 0.5 * (matrix + matrix.T)
    comps = {
        (a, b): Field.const(matrix[a, b])
        for a in range(n)
        for b in range(a, n)
        if matrix[a, b] != 0.0
    }
    return MetricField(chart, comps)


FD_STEP_SCALE = 1e-4


def _fd_step(x):
    return FD_STEP_SCALE * np.maximum(1.0, np.abs(x))


def leibniz_parts(a, b):
    """The parts of the product of two jets given by their parts (the value,
    then the full arrays of k-th partials, each after an optional batch
    axis), by the Leibniz rule on the full tensors: entry (i_1..i_k) of part
    k adds, for every subset S of the k index positions, the entry of a at
    the indices in S times the entry of b at the others."""
    out = []
    for k in range(min(len(a), len(b))):
        terms = []
        for r in range(k + 1):
            for s in itertools.combinations(range(k), r):
                rest = [j for j in range(k) if j not in s]
                # a's axes at the positions in s, b's at the rest
                at_s = np.expand_dims(a[r], tuple(j - k for j in rest))
                at_rest = np.expand_dims(b[k - r], tuple(j - k for j in s))
                terms.append(at_s * at_rest)
        out.append(sum(terms[1:], terms[0]))
    return out


def sum_table_by_labellings(pos, gammas, k, ordered):
    """``jets._sum_table`` by enumerating all k^m labellings of the m indices
    of each multi-index and keeping the surjective ones: an unordered table
    meets each partition once per labelling of its k blocks, so its weights
    are divided by k!."""
    rows = []
    for g in gammas:
        rows.append(row := Counter())
        for labels in itertools.product(range(k), repeat=len(g)):
            if len(set(labels)) == k:
                blocks = [pos[tuple(i for i, b in zip(g, labels) if b == j)] for j in range(k)]
                row[tuple(blocks if ordered else sorted(blocks))] += 1
    weights = np.array([w for row in rows for w in row.values()], dtype=float)
    if not ordered:
        weights /= math.factorial(k)
    starts = np.cumsum([0] + [len(row) for row in rows[:-1]])
    return (
        tuple(map(np.array, zip(*(f for row in rows for f in row)))),
        None if (weights == 1.0).all() else weights,
        None if len(weights) == len(rows) else starts,
    )

def fd_oracle(field, pt, axes):
    """Mixed partial of ``field`` at ``pt`` by nested central differences.

    ``axes`` is a tuple of coordinate indices or names, at most three long.
    First and second derivatives use 4th-order stencils, third derivatives
    2nd-order ones.  Entirely independent of the jet machinery: only values
    are sampled.  The caller is responsible for keeping the stencil inside
    the field's domain.
    """
    axes = tuple(
        pt.chart.index(a) if isinstance(a, str) else int(a) for a in axes
    )
    if len(axes) > MAX_ORDER:
        raise JetOrderError("finite differences support order <= 3")
    fourth_order = len(axes) <= 2

    def value_at(q):
        return field(q, 0).value

    def deriv(q, remaining):
        if not remaining:
            return value_at(q)
        axis, rest = remaining[0], remaining[1:]
        x = q.coords[axis]
        h = _fd_step(x)
        if fourth_order:
            fp1 = deriv(with_coord(q, axis, x + h), rest)
            fp2 = deriv(with_coord(q, axis, x + 2 * h), rest)
            fm1 = deriv(with_coord(q, axis, x - h), rest)
            fm2 = deriv(with_coord(q, axis, x - 2 * h), rest)
            return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)
        fp = deriv(with_coord(q, axis, x + h), rest)
        fm = deriv(with_coord(q, axis, x - h), rest)
        return (fp - fm) / (2.0 * h)

    return deriv(pt, axes)


class FDMetric:
    """The metric ``g`` with its derivatives from the finite-difference
    oracle: passed to the functions of ``ewbench.curv`` in place of g, it
    gives the curvature of nested central differences of g's values, and
    as the evaluation scope keys on the metric object, it never reads or
    fills the entries of g."""

    def __init__(self, g):
        self.g = g

    @property
    def dim(self):
        return self.g.dim

    @property
    def chart(self):
        return self.g.chart

    def matrix_at(self, pt):
        return self.g.matrix_at(pt)

    def jets_at(self, pt, order):
        """(g0, dg, ddg) through ``order``, with dg[c,a,b] = d_c g_ab and
        ddg[c,d,a,b], the batch axis first over a batch."""
        return scoped((FDMetric, self, pt), lambda: self._arrays(pt))[: order + 1]

    def _arrays(self, pt):
        n = self.dim
        g0 = self.matrix_at(pt)
        dg = np.zeros(pt.shape + (n, n, n))
        ddg = np.zeros(pt.shape + (n, n, n, n))
        for (a, b), f in self.g.comps.items():
            for c in range(n):
                v = fd_oracle(f, pt, (c,))
                dg[..., c, a, b] = dg[..., c, b, a] = v
                for d in range(c, n):
                    vv = fd_oracle(f, pt, (c, d))
                    for cc, dd in ((c, d), (d, c)):
                        ddg[..., cc, dd, a, b] = ddg[..., cc, dd, b, a] = vv
        return g0, dg, ddg


def riemann_from_gamma(gamma, dgamma):
    """R^a_bcd from Gamma[a,b,c] and dGamma[e,a,b,c] = d_e Gamma, with each
    of the two Gamma.Gamma products contracted by its own einsum: the
    reference for ``curv``, which contracts one and transposes it."""
    return (
        np.einsum("...cadb->...abcd", dgamma)
        - np.einsum("...dacb->...abcd", dgamma)
        + np.einsum("...ace,...edb->...abcd", gamma, gamma)
        - np.einsum("...ade,...ecb->...abcd", gamma, gamma)
    )


def signature_at(metric, pt):
    """(positive, negative) eigenvalue counts of ``metric`` at ``pt``, per
    row of a batch."""
    return signature(metric.matrix_at(pt))


def frame_expand(a, frame, pt):
    """Expand a 1-form or 2-form in the coframe basis at a point.

    Degree 1 returns coefficients against (e1, e2, e3); degree 2 against
    (e1^e2, e1^e3, e2^e3).  Values only, along the last axis (batch axis
    first), by ``forms.frame_solve`` against the basis values.
    """
    legs = frame.legs
    if a.degree == 1:
        idxs, forms = ((0,), (1,), (2,)), legs
    elif a.degree == 2:
        idxs = ((0, 1), (0, 2), (1, 2))
        forms = [wedge(legs[i], legs[j]) for i, j in idxs]
    else:
        raise ValueError("frame expansion supports degree 1 and 2 only")
    m = np.stack([values_at(f, pt, idxs) for f in forms], axis=-1)
    values = (lambda: values_at(a, pt, idxs)) if a.comps else None
    return frame_solve(m, values)


# the stars of each coframe, built once: the field memo keys on identity
_STARS = weakref.WeakKeyDictionary()


def star_frame(frame, i):
    """star of the i-th coframe leg (i in 1..3), straight from the rules
    *e1 = e1^e2, *e2 = 2 e1^e3, *e3 = e2^e3; the same form on every call
    for one coframe."""
    if i not in (1, 2, 3):
        raise ValueError("frame leg index must be 1, 2 or 3")
    if frame not in _STARS:
        e1, e2, e3 = frame.legs
        _STARS[frame] = (wedge(e1, e2), wedge(e1, e3).scale(2.0), wedge(e2, e3))
    return _STARS[frame][i - 1]


def hodge3(a, frame):
    """Hodge star of a 1-form a = sum_i c_i e^i: the sum of c_i star e^i
    over the legs i = 1, 2, 3 in that order, with each star e^i from
    :func:`star_frame`.

    Only degree 1 -> 2 is defined.  The coefficients c_i are values: the
    components of the star answer order 0 and raise JetOrderError above it.
    """
    if a.degree != 1:
        raise ValueError("hodge3 is defined for 1-forms only")
    if a.chart != frame.chart:
        raise ValueError("chart mismatch in hodge3")

    # one solve per scope serves all three coefficients
    def coeffs(pt):
        return scoped((coeffs, pt), lambda: frame_expand(a, frame, pt))

    def coeff(i):
        def fn(pt, order=0):
            if order:
                raise JetOrderError(f"hodge3 has values only; order {order} was asked")
            return Jet([coeffs(pt)[..., i - 1]])

        return Field(fn)

    star = star_frame(frame, 1).scale(coeff(1))
    for i in (2, 3):
        star = star + star_frame(frame, i).scale(coeff(i))
    return star


class Weighted(NamedTuple):
    """A 1-form carrying a conformal weight m."""

    form: object
    weight: float


def weighted_d(psi, omega):
    """Weighted exterior derivative D psi = d psi - (m/2) omega ^ psi of a
    ``Weighted`` pair."""
    return ext_d(psi.form) - wedge(omega.scale(0.5 * psi.weight), psi.form)


def p_of_alpha(alpha, ell):
    """The fibre coordinate p of angle ``alpha``, the inverse of
    ``lift.alpha_of_p``."""
    if not 0.0 < alpha < math.pi:
        raise ConfigError("alpha must lie in (0, pi)")
    return ell * math.atanh(math.cos(alpha))


def dalpha_dp(p, ell):
    return -1.0 / (ell * math.cosh(p / ell))


def require_guard(domain, pt):
    """Raise AssertionError if ``pt`` fails the guard of ``domain``."""
    g = domain.guard
    if g is not None and not g.accepts(pt):
        raise AssertionError(f"point {pt.coords} violates {g.label}")


def flat_limit_per_ell(factory, ells):
    """The report of ``lift.flat_limit``, with the factory called at each
    ell's number and each ell evaluated alone, in its own evaluation scope,
    its lift validated at the base coordinates of the limit rows, and one
    ``run_check`` per residual: the first ell that fails raises what it
    raises alone."""
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
    for ell in ells:
        with evaluation_scope():
            cfg = factory(ell)
            data = build(replace(cfg, probes=PointBatch(cfg.base.chart, LIMIT_ROWS[:, 1:])))
            chart4 = data.chart
            pts = PointBatch(chart4, LIMIT_ROWS)
            g_lim = _limit_form(cfg, chart4)
            om4 = embed_form(cfg.base.omega, chart4)
            f_target = ext_d(om4).scale(data.ell / 4.0)
            f_full = ext_d(data.potential)
            keys = sorted(set(f_full.comps) | set(f_target.comps))
            residuals = {
                "riemann_limit": lambda q: riemann(g_lim, q),
                "f_gap": lambda q: values_at(f_full, q, keys) - values_at(f_target, q, keys),
                "f_term": lambda q: values_at(f_target, q, keys),
                "f_norm": lambda q: values_at(f_full, q, keys),
                "form_gap": lambda q: data.g.matrix_at(q) - g_lim.matrix_at(q),
            }
            for key, fn in residuals.items():
                report[key].append(run_check(f"lift.{key}", fn, pts, math.inf).max)
        report["ell_used"].append(data.ell)
    gaps = report["form_gap"]
    report["ratios"] = [
        r if math.isfinite(r) else None
        for r in (a / b if b else math.inf for a, b in zip(gaps, gaps[1:]))
    ]
    report["diverges"] = gaps[-1] > gaps[0] or report["f_term"][-1] > report["f_term"][0]
    return report


def _dy_p_dt():
    dy = coordinate_form(PYT, "y")
    dt = coordinate_form(PYT, "t")
    return dy + dt.scale(Field.coordinate("p")), dy, dt


def class_a_closed(beta):
    """Closed-form (h, omega) for Class A.

    h = (dy+pdt)^2 + 4(dp/p - (beta_y/beta)(dy+pdt) - (beta_t/beta)dt) (.) dt.
    The bracket enters with a plus sign: that is what the generator route
    produces and what matches Classes B and C; the opposite sign fails the
    direct Einstein-Weyl check (see tests).
    """
    b = ex.to_field(_ast(beta, ["y", "t"]))
    ry = b.d("y") / b
    rt = b.d("t") / b
    p = Field.coordinate("p")
    dyp, dy, dt = _dy_p_dt()
    dp = coordinate_form(PYT, "p")
    bracket = dp.scale(1.0 / p) - dyp.scale(ry) - dt.scale(rt)
    h = symmetric_product(dyp, dyp) + symmetric_product(bracket, dt).scale(4.0)
    omega = -dyp.scale(p) + dt.scale(2.0 * p * ry)
    return h, omega


def class_b_closed(F):
    """h = (dy+pdt)^2 + 4F dp (.) dt, omega = -(1/F)(dy+pdt)."""
    f = ex.to_field(_ast(F, ["p"]))
    dyp, dy, dt = _dy_p_dt()
    dp = coordinate_form(PYT, "p")
    h = symmetric_product(dyp, dyp) + symmetric_product(dp, dt).scale(4.0 * f)
    omega = -dyp.scale(1.0 / f)
    return h, omega


def class_c_closed(K):
    """Closed-form (h, omega) for Class C with K = K(t p^2)."""
    k = _k_field(K)
    p = Field.coordinate("p")
    y = Field.coordinate("y")
    t = Field.coordinate("t")
    dyp, dy, dt = _dy_p_dt()
    dp = coordinate_form(PYT, "p")
    bracket = (
        dp.scale(2.0 * k / p)
        - dy.scale(y / (2.0 * t))
        + dt.scale((y * y / (4.0 * t) + k - p * y * 0.5) / t)
    )
    h = symmetric_product(dyp, dyp) + symmetric_product(bracket, dt).scale(4.0)
    omega = (dyp - dt.scale(y / t)).scale(-p / (2.0 * k))
    return h, omega


def g_equation_residual(gen, pt):
    """G_yp^2 - G_yy G_pp - G_pt for G = A + pB, as jets of A and B."""
    ja = ex.eval_jet(gen.A, pt, 2)
    jb = ex.eval_jet(gen.B, pt, 2)
    ip, iy, it = (pt.chart.index(n) for n in PYT)
    p = coord(pt, "p")
    g_yp = jb.grad[..., iy]
    g_yy = p * jb.hess[..., iy, iy]
    g_pp = ja.hess[..., ip, ip]
    g_pt = ja.hess[..., ip, it] + jb.grad[..., it]
    return g_yp**2 - g_yy * g_pp - g_pt


def branch_residual(A, B, pt):
    """2 B_y B_yy - p B_yyy A_pp - B_yt, the y-derivative of the G-equation."""
    ja = ex.eval_jet(_ast(A, ["p", "t"]), pt, 2)
    jb = ex.eval_jet(_ast(B, ["y", "t"]), pt, 3)
    ip, iy, it = (pt.chart.index(n) for n in PYT)
    p = coord(pt, "p")
    return (
        2.0 * jb.grad[..., iy] * jb.hess[..., iy, iy]
        - p * jb.third[..., iy, iy, iy] * ja.hess[..., ip, ip]
        - jb.hess[..., iy, it]
    )


# ---------------------------------------------------------------------------
# a lift on each fibre chart by its own formulas, without validation
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def _embedded(cfg, chart4):
    """Base ingredients re-indexed onto the four-dimensional chart."""
    om = embed_form(cfg.base.omega, chart4)
    ps = embed_form(cfg.psi, chart4)
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
    if not abs(cfg.ell) <= 1e150:
        raise DomainError(
            f"ell = {cfg.ell:g} is past the bound |ell| <= {1e150:g} of the "
            "alpha chart, whose metric terms (ell/sin alpha)^2 overflow"
        )
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
    """
    chart4 = ("p" if "p" not in cfg.base.chart else "q",) + cfg.base.chart
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


# ---------------------------------------------------------------------------
# the scalar equation, its fundamental solution, and catalog presets
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


FUNDAMENTAL_H = ex.parse_field("1/sqrt(y^2-4*x*t)", ["x", "y", "t"])


def fundamental_H(pt, order=3):
    """Jet of H = (y^2 - 4xt)^(-1/2); domain error on the cone."""
    return FUNDAMENTAL_H(pt, order)


def heisenberg_psi(s, c_source, k_source):
    """The y-independent family psi = c(x) omega + d(c + k).

    c depends on x only and k on t only; both may be expression text.
    """
    c_field = ex.to_field(_ast(c_source, ["x"]))
    k_field = ex.to_field(_ast(k_source, ["t"]))
    return s.omega.scale(c_field) + ext_d(scalar_form(s.chart, c_field + k_field))


CLASS_B_FS = ("-1/4", "1", "1+p^2")


def k_from_phi(phi_source):
    """K expression for a Class C member given Phi (A_p = Phi(tp^2))."""
    if phi_source not in CLASS_C_PHIS:
        raise ConfigError(f"no recorded K for Phi = {phi_source!r}; supply K directly")
    return CLASS_C_PHIS[phi_source]["K"]
