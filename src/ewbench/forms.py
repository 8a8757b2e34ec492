"""Exterior calculus on charts with field-valued components.

Forms are stored sparsely over strictly increasing multi-indices, so
antisymmetry is a property of the storage, not of the data.  Components are
:class:`~ewbench.jets.Field` objects, which keeps every derived form (wedge
products, exterior derivatives) differentiable as far as the
jet order cap allows.

The three-dimensional Hodge star is defined only through its action on a
fixed coframe: star e1 = e1^e2, star e2 = 2 e1^e3, star e3 = e2^e3.  The
coframe is not orthonormal for the induced metric h = e2 (x) e2 - 4 e1 (.) e3,
which is where the factor 2 comes from; the rules are taken as the
definition and everything downstream is checked against them.

Metric fields keep their algebra and packing here; the metric pass over a
packing (det g, g^-1, the curvature) is :mod:`ewbench.curv`'s.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SingularFrameError
from .jets import (
    Field, ZERO_FIELD, anywhere, first_where, pack_jets, read_only, scoped_arrays,
)

__all__ = [
    "PForm",
    "Coframe3",
    "MetricField",
    "coordinate_form",
    "zero_form",
    "wedge",
    "ext_d",
    "frame_solve",
    "star_frame",
    "metric_from_coframe",
    "signature",
    "symmetric_product",
]

FRAME_DET_TOL = 1e-12


def _as_field(x):
    if isinstance(x, Field):
        return x
    return Field.const(float(x))


class PForm:
    """A differential form of fixed degree with sparse field components."""

    __slots__ = ("chart", "degree", "comps")

    def __init__(self, chart, degree, comps):
        self.chart = tuple(chart)
        self.degree = int(degree)
        clean = {}
        for idx, f in comps.items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != self.degree:
                raise ValueError(f"index {idx} does not match degree {self.degree}")
            if any(i < 0 or i >= len(self.chart) for i in idx):
                raise ValueError(f"index {idx} outside chart of dim {len(self.chart)}")
            if list(idx) != sorted(set(idx)):
                raise ValueError(f"indices must be strictly increasing, got {idx}")
            clean[idx] = _as_field(f)
        self.comps = clean

    @classmethod
    def _built(cls, chart, degree, comps):
        """A form from parts that are valid already: the tuple chart and int
        degree of a form, and Field components at strictly increasing index
        tuples.  The algebra below builds its results this way, skipping
        the checks of ``__init__``, which stay for every other caller."""
        form = object.__new__(cls)
        form.chart = chart
        form.degree = degree
        form.comps = comps
        return form

    # -- access --------------------------------------------------------------

    def comp(self, idx):
        return self.comps.get(tuple(idx), ZERO_FIELD)

    def values_at(self, pt, idxs):
        """The values of the components ``idxs`` at ``pt``, in that order,
        with the batch axis first over a batch."""
        return pack_jets(pt, [self.comps.get(tuple(idx)) for idx in idxs], 0, (len(idxs),))[0]

    # -- algebra ---------------------------------------------------------------

    def _check_compatible(self, other):
        if self.chart != other.chart:
            raise ValueError("chart mismatch in form arithmetic")
        if self.degree != other.degree:
            raise ValueError("degree mismatch in form arithmetic")

    def __add__(self, other):
        if not isinstance(other, PForm):
            return NotImplemented
        self._check_compatible(other)
        comps = dict(self.comps)
        for idx, f in other.comps.items():
            comps[idx] = comps[idx] + f if idx in comps else f
        return PForm._built(self.chart, self.degree, comps)

    def __sub__(self, other):
        if not isinstance(other, PForm):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return PForm._built(self.chart, self.degree, {i: -f for i, f in self.comps.items()})

    def scale(self, factor):
        """Multiply by a scalar field or number."""
        factor = _as_field(factor)
        return PForm._built(
            self.chart, self.degree, {i: factor * f for i, f in self.comps.items()}
        )

    def __repr__(self):
        return f"PForm(degree={self.degree}, comps={sorted(self.comps)})"


def zero_form(chart, degree):
    return PForm(chart, degree, {})


def coordinate_form(chart, name):
    """The coordinate differential d<name> as a 1-form."""
    chart = tuple(chart)
    return PForm(chart, 1, {(chart.index(name),): Field.const(1.0)})


def scalar_form(chart, f):
    return PForm(chart, 0, {(): _as_field(f)})


# ---------------------------------------------------------------------------
# wedge and exterior derivative
# ---------------------------------------------------------------------------


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
    """Exterior derivative; components differentiate on demand."""
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


# ---------------------------------------------------------------------------
# coframes and the 3D Hodge star
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Coframe3:
    """An ordered coframe (e1, e2, e3) of 1-forms on a 3D chart."""

    e1: PForm
    e2: PForm
    e3: PForm

    def __post_init__(self):
        if not (self.e1.chart == self.e2.chart == self.e3.chart):
            raise ValueError("coframe legs live on different charts")
        if {self.e1.degree, self.e2.degree, self.e3.degree} != {1}:
            raise ValueError("coframe legs must be 1-forms")
        if len(self.e1.chart) != 3:
            raise ValueError("coframe requires a 3D chart")

    @property
    def chart(self):
        return self.e1.chart

    @property
    def legs(self):
        return (self.e1, self.e2, self.e3)

    # built once per coframe, as the field memo keys on identity
    @cached_property
    def _stars(self):
        e1, e2, e3 = self.legs
        return (wedge(e1, e2), wedge(e1, e3).scale(2.0), wedge(e2, e3))

    @cached_property
    def _metric(self):
        e1, e2, e3 = self.legs
        return symmetric_product(e2, e2) + symmetric_product(e1, e3).scale(-4.0)


def star_frame(frame, i):
    """star of the i-th coframe leg (i in 1..3), straight from the rules;
    the same form on every call for one coframe."""
    if i not in (1, 2, 3):
        raise ValueError("frame leg index must be 1, 2 or 3")
    return frame._stars[i - 1]


def frame_solve(m, values):
    """The coefficients c of a = sum_k c_k b_k along the last axis, where
    m[..., j, k] is the component j of the basis form b_k and ``values()``
    gives the components of a, or ``values`` is None for the zero form,
    which is not solved.

    The determinant is tested before ``values`` is called: one below
    FRAME_DET_TOL raises SingularFrameError naming the first such one; rows
    whose basis is not finite get NaN coefficients.
    """
    # the determinant comes from the LU factors the solve uses, so a zero
    # pivot there (an underflow, say) is a singular frame here
    det = np.linalg.det(m)
    small = np.abs(det) < FRAME_DET_TOL
    if anywhere(small):
        raise SingularFrameError(
            f"coframe determinant {first_where(det, small):.3e} below tolerance"
        )
    # where the basis is not finite LAPACK may still meet a zero pivot: those
    # rows solve the identity instead and get NaN, which the checks report
    broken = ~np.isfinite(det)
    c = np.zeros(3)
    if values is not None:
        m = np.where(broken[..., None, None], np.eye(3), m)
        c = np.linalg.solve(m, values()[..., None])[..., 0]
    return np.where(broken[..., None], np.nan, c)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class MetricField:
    """A symmetric metric with field components, symmetric by storage.

    Components are kept for index pairs (a, b) with a <= b only.
    """

    __slots__ = ("chart", "comps")

    def __init__(self, chart, comps):
        self.chart = tuple(chart)
        n = len(self.chart)
        clean = {}
        for (a, b), f in comps.items():
            if not (0 <= a <= b < n):
                raise ValueError(f"bad metric index pair ({a}, {b})")
            clean[(a, b)] = _as_field(f)
        self.comps = clean

    @classmethod
    def _built(cls, chart, comps):
        """A metric from parts that are valid already, like
        :meth:`PForm._built`: the tuple chart of a metric and Field
        components at index pairs (a, b) with a <= b."""
        metric = object.__new__(cls)
        metric.chart = chart
        metric.comps = comps
        return metric

    @property
    def dim(self):
        return len(self.chart)

    def scale(self, factor):
        factor = _as_field(factor)
        return MetricField._built(self.chart, {k: factor * f for k, f in self.comps.items()})

    def __add__(self, other):
        if not isinstance(other, MetricField):
            return NotImplemented
        if self.chart != other.chart:
            raise ValueError("chart mismatch in metric arithmetic")
        comps = dict(self.comps)
        for k, f in other.comps.items():
            comps[k] = comps[k] + f if k in comps else f
        return MetricField._built(self.chart, comps)

    def matrix_at(self, pt):
        """The metric matrix at ``pt``, batch axis first over a batch."""
        return self.jets_at(pt, 0)[0]

    def jets_at(self, pt, order):
        """Packed value and derivative arrays through ``order``: the
        ``order + 1`` first of g, dg[c,a,b] = d_c g_ab, ddg[c,d,a,b], ...,
        each with the batch axis first over a batch.

        The arrays are read-only and kept in the evaluation scope under
        (metric, point), so the checks of one scope pack the metric once: a
        call answers a lower order with the first ``order + 1`` arrays of a
        higher one packed before.  Where the parts are finite those are the
        arrays of a new order-``order`` packing bit for bit, because a jet's
        parts do not depend on the order above them.  Nothing above the
        highest order asked is allocated."""
        return scoped_arrays((self, pt), order, lambda k: self._pack(pt, k))

    def _pack(self, pt, order):
        n = self.dim
        packed = tuple(np.zeros(pt.shape + (n,) * (k + 2)) for k in range(order + 1))
        for (a, b), f in self.comps.items():
            for arr, part in zip(packed, f(pt, order).parts):
                arr[..., a, b] = arr[..., b, a] = part
        return tuple(map(read_only, packed))


def signature(matrix):
    """(positive, negative) eigenvalue counts of a symmetric matrix, per
    row of a batch of them."""
    eigs = np.linalg.eigvalsh(matrix)
    return (np.sum(eigs > 0, axis=-1), np.sum(eigs < 0, axis=-1))


def symmetric_product(a, b):
    """The symmetric tensor a (.) b = (a (x) b + b (x) a) / 2 as a metric.

    Component (i, j), i <= j, is 0.5 * (a_i b_j + a_j b_i), built only from
    the products whose two factors are present components: an absent one
    is an exact zero and builds nothing, and a pair with no such product
    is absent from the metric.  A present component is always evaluated,
    even where its value is 0.

    A square (``b is a``) takes the one product a_i a_j instead.  Through
    order 1 it is the averaged form bit for bit: the value products commute,
    the gradient a'_i a_j + a_i a'_j adds the same two products as
    a'_j a_i + a_j a'_i, and 0.5 * (x + x) is x wherever x + x is finite.
    The order-2 and order-3 parts add their Leibniz terms in another order
    and may differ at rounding level.
    """
    if a.chart != b.chart or a.degree != 1 or b.degree != 1:
        raise ValueError("symmetric product needs two 1-forms on one chart")
    ca, cb = a.comps, b.comps

    def product(i, j):
        return ca[(i,)] * cb[(j,)] if (i,) in ca and (j,) in cb else None

    n = len(a.chart)
    comps = {}
    for i in range(n):
        for j in range(i, n):
            ij = product(i, j)
            if b is a:
                if ij is not None:
                    comps[(i, j)] = ij
                continue
            # a_i b_i twice is one product field, added to itself
            ji = ij if i == j else product(j, i)
            terms = [t for t in (ij, ji) if t is not None]
            if terms:
                comps[(i, j)] = 0.5 * sum(terms[1:], terms[0])
    return MetricField._built(a.chart, comps)


def metric_from_coframe(frame):
    """h = e2 (.) e2 - 4 e1 (.) e3 from a coframe, components expanded; the
    same metric on every call for one coframe."""
    return frame._metric


# ---------------------------------------------------------------------------
# embedding along a chart extension
# ---------------------------------------------------------------------------


def _embed_positions(small, big):
    try:
        return tuple(big.index(name) for name in small)
    except ValueError as exc:
        raise ValueError(f"chart {small} is not contained in {big}") from exc


def embed_form(a, big):
    """Pull a form back along the projection from the chart extension
    ``big`` to the form's chart.

    The component fields are reused as they are, at the positions their
    coordinates moved to (negated where ``big`` reorders them by an odd
    permutation).  A field reads its coordinates by name, so at a point of
    ``big`` it is already its own pullback: the same jet on the base
    coordinates, and zero derivatives along the added ones.
    """
    big = tuple(big)
    pos = _embed_positions(a.chart, big)
    comps = {}
    for idx, f in a.comps.items():
        new_idx, sign = _merge_sign(tuple(pos[i] for i in idx), ())
        comps[new_idx] = f if sign > 0 else -f
    return PForm(big, a.degree, comps)


def embed_metric(h, big):
    """Pull a metric back like :func:`embed_form`."""
    big = tuple(big)
    pos = _embed_positions(h.chart, big)
    comps = {tuple(sorted((pos[a], pos[b]))): f for (a, b), f in h.comps.items()}
    return MetricField(big, comps)
