"""Exterior calculus on charts with field-valued components.

Forms are stored sparsely over strictly increasing multi-indices, so
antisymmetry is a property of the storage, not of the data.  Components are
:class:`~ewbench.jets.Field` objects: this module builds structures from
fields (sums, scalings, coframes, metrics, pullbacks along a chart
extension), and every derivative of a form is taken on its packed jets,
as :func:`exterior_d` takes F = dA.  The field-level exterior derivative
and wedge product are references in ``tests/oracle.py``.

The three-dimensional Hodge star is defined only through its action on a
fixed coframe; its rules are stated, and its values computed, by
:func:`ewbench.ew.stars`, and this module solves for the coefficients of a
form in a coframe (:func:`frame_solve`).

Forms and metric fields share one component algebra (sums and scalings);
metric fields keep their packing here, and the metric pass over a packing
(det g, g^-1, the curvature) is :mod:`ewbench.curv`'s.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SingularFrameError
from .jets import Field, anywhere, first_where, gather_parts, read_only, scoped_arrays

FRAME_DET_TOL = 1e-12


def _as_field(x):
    if isinstance(x, Field):
        return x
    return Field.const(float(x))


class _Components:
    """Field components on a chart at sorted index tuples, with the algebra
    that forms and metrics share: a metric's degree is 2 and its indices
    are the pairs (a, b) with a <= b."""

    __slots__ = ("chart", "degree", "comps")

    @classmethod
    def _built(cls, chart, degree, comps):
        """An object from parts that are valid already: a tuple chart, an int
        degree and Field components at valid index tuples.  The algebra
        builds its results this way, skipping the checks of ``__init__``,
        which stay for every other caller."""
        obj = object.__new__(cls)
        obj.chart = chart
        obj.degree = degree
        obj.comps = comps
        return obj

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.chart != other.chart:
            raise ValueError(f"chart mismatch in {self._kind} arithmetic")
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch in {self._kind} arithmetic")
        comps = dict(self.comps)
        for idx, f in other.comps.items():
            comps[idx] = comps[idx] + f if idx in comps else f
        return self._built(self.chart, self.degree, comps)

    def scale(self, factor):
        """Multiply by a scalar field or number."""
        factor = _as_field(factor)
        return self._built(self.chart, self.degree, {i: factor * f for i, f in self.comps.items()})


class PForm(_Components):
    """A differential form of fixed degree with sparse field components."""

    __slots__ = ()
    _kind = "form"

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

    def __sub__(self, other):
        if not isinstance(other, PForm):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return PForm._built(self.chart, self.degree, {i: -f for i, f in self.comps.items()})

    def __repr__(self):
        return f"PForm(chart={self.chart}, degree={self.degree}, comps={sorted(self.comps)})"


def zero_form(chart, degree):
    return PForm(chart, degree, {})


def coordinate_form(chart, name):
    """The coordinate differential d<name> as a 1-form."""
    chart = tuple(chart)
    return PForm(chart, 1, {(chart.index(name),): Field.const(1.0)})


# ---------------------------------------------------------------------------
# the exterior derivative, on packed jets
# ---------------------------------------------------------------------------


def exterior_d(parts):
    """The parts of F = dA through one order less than the ``pack_jets``
    parts of a 1-form A (part k: k derivative axes, then the component
    axis).  Part k is F[..., c_1..c_k, i, j] = d_i A_j - d_j A_i, where d_i
    is the first derivative axis of A's part k + 1, the axis ``Field.d``
    reads; the diagonal is an exact +0.0, even where a derivative is not
    finite."""
    out = []
    for k, part in enumerate(parts[1:]):
        da = np.moveaxis(part, -k - 2, -2)
        f = da - np.swapaxes(da, -1, -2)
        diag = np.arange(f.shape[-1])
        f[..., diag, diag] = 0.0
        out.append(read_only(f))
    return tuple(out)


# ---------------------------------------------------------------------------
# coframes
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
    def _metric(self):
        e1, e2, e3 = self.legs
        return symmetric_product(e2, e2) + symmetric_product(e1, e3).scale(-4.0)


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


class MetricField(_Components):
    """A symmetric metric with field components, symmetric by storage.

    Components are kept for index pairs (a, b) with a <= b only.
    """

    __slots__ = ()
    _kind = "metric"

    def __init__(self, chart, comps):
        self.chart = tuple(chart)
        self.degree = 2
        n = len(self.chart)
        clean = {}
        for (a, b), f in comps.items():
            if not (0 <= a <= b < n):
                raise ValueError(f"bad metric index pair ({a}, {b})")
            clean[(a, b)] = _as_field(f)
        self.comps = clean

    @property
    def dim(self):
        return len(self.chart)

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
        # at[a, b]: the component (a, b) or (b, a), or the exact zero after them
        n = self.dim
        at = np.full((n, n), len(self.comps))
        for c, (a, b) in enumerate(self.comps):
            at[a, b] = at[b, a] = c
        return gather_parts(pt, [f(pt, order) for f in self.comps.values()] + [None], order, at)


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
    return MetricField._built(a.chart, 2, comps)


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
    if not isinstance(a, PForm):
        raise TypeError(f"embed_form needs a PForm, got {type(a).__name__}")
    big = tuple(big)
    pos = _embed_positions(a.chart, big)
    comps = {}
    for idx, f in a.comps.items():
        moved = [pos[i] for i in idx]
        inversions = sum(x > y for k, x in enumerate(moved) for y in moved[k + 1:])
        comps[tuple(sorted(moved))] = -f if inversions % 2 else f
    return PForm(big, a.degree, comps)


def embed_metric(h, big):
    """Pull a metric back like :func:`embed_form`."""
    big = tuple(big)
    pos = _embed_positions(h.chart, big)
    comps = {tuple(sorted((pos[a], pos[b]))): f for (a, b), f in h.comps.items()}
    return MetricField(big, comps)
