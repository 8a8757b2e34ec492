"""Multivariate jets and scalar fields over chart points.

A :class:`Jet` holds a value and the derivatives D_alpha f through a
requested order (at most ``MAX_ORDER``): one derivative array, each
multi-index alpha stored once, so every derivative part it exposes is
exactly symmetric.  Its order is data: index tables built once per
(dimension, order) make ``parts[k]`` and ``partial`` gathers, a product
one gather, multiply and ``np.add.reduceat`` (Leibniz, with multinomial
weights), and a smooth function of a jet the same over the partitions of
each multi-index (Faa di Bruno).  At a :class:`ChartPoint` the value is a
float; at a :class:`PointBatch` of N points it has shape (N,) and the
derivative array a leading batch axis, or none when it is the same for
every row (a constant, or the unit gradient of a coordinate), which then
serves every row without being copied.  Row i of a batched jet comes from
the same arithmetic as the jet at point i alone, and each derivative
depends only on those of its operands up to its own degree, so a jet is
the prefix of a higher-order jet of the same field.  Libm calls (``math``
functions and float powers) run row by row over a batch, never through
numpy's CPU-dispatched SIMD loops.

A Python number in jet arithmetic is not lifted to a constant jet: it
shifts the value (``+ -``) or scales the value and derivatives (``* /``,
dividing by c as scaling by 1/c), which differs from the full product
only in the sign of a zero; a jet with a derivative below the top order
that is not finite, where 0 * inf spreads NaN, is still multiplied in
full.  Over a batch an (N,) array acts as one such number per row.

A :class:`Field` is a lazily evaluated scalar function of a point or a
batch of points; requesting a derivative field lowers the maximum order
that can be evaluated by one, which is how the order cap stays honest.
Field algebra folds constants (see :class:`Field`), and a field's
derivatives come only from its jet.  A constant's number may be an (N,)
array, one number per row of the batches of N points that its caller
tiles, so that one build serves the rows of many numbers; it folds by the
rules of a float.  Field evaluations are memoized on
``(field, point)`` in the open :func:`evaluation_scope`, a context
variable never shared between threads, so shared subexpressions and the
checks of one command (``report.run_check``) evaluate each field once; a
call made with no scope open gets one for its own duration.

The module also provides deterministic rejection sampling of guarded
coordinate boxes.
"""
from __future__ import annotations

import math
import operator
from collections import Counter
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cache
from itertools import combinations_with_replacement, product, repeat
from types import SimpleNamespace

import numpy as np

from .errors import (
    DomainError,
    EwbenchError,
    JetOrderError,
    SamplingExhaustedError,
)

MAX_ORDER = 3


# ---------------------------------------------------------------------------
# chart points and batches of them
# ---------------------------------------------------------------------------


# Field code reads ``chart``, ``coords`` (one entry per chart coordinate),
# ``dim`` and ``shape``, the batch shape, of a point and a batch alike.


@dataclass(frozen=True)
class ChartPoint:
    """A point of a coordinate chart: ``coords`` along the names in ``chart``."""

    chart: tuple[str, ...]
    coords: tuple[float, ...]

    # everything evaluated at a single point has no batch axis
    shape = ()

    def __post_init__(self):
        if len(self.chart) != len(self.coords):
            raise ValueError("coordinate count does not match chart")

    @property
    def dim(self):
        return len(self.chart)

    @classmethod
    def make(cls, chart, coords):
        return cls(tuple(chart), tuple(float(c) for c in coords))

    on_chart = make  # the point with ``coords`` along ``chart``


class PointBatch:
    """N points of one chart, evaluated together.

    ``rows[i]`` holds the coordinates of point i and ``coords[k]`` is the
    (N,) array of coordinate k, so field code that reads ``pt.coords[k]``
    and ``pt.dim`` serves a point and a batch alike; ``shape`` is (N,).
    Like a ChartPoint, a batch hashes and compares by value, so the field
    memo shares evaluations between equal batches.  Its arrays are
    read-only.  It reads as the sequence of its points: ``len``, iteration
    and an index give ChartPoints in row order, and a slice a batch.
    """

    __slots__ = ("chart", "rows", "coords", "_key", "_hash")

    def __init__(self, chart, rows):
        rows = np.array(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != len(chart):
            raise ValueError("coordinate count does not match chart")
        rows.flags.writeable = False
        cols = np.ascontiguousarray(rows.T)
        cols.flags.writeable = False
        self.chart = tuple(chart)
        self.rows = rows
        self.coords = tuple(cols)
        self._key = (self.chart, rows.tobytes())
        self._hash = hash(self._key)

    @classmethod
    def of(cls, points):
        """The batch of the ChartPoints ``points`` (one chart), in order; a
        batch is its own."""
        if isinstance(points, PointBatch):
            return points
        return cls(points[0].chart, [q.coords for q in points])

    @staticmethod
    def on_chart(chart, coords):
        """The batch with the (N,) arrays ``coords`` along ``chart``."""
        return PointBatch(chart, np.stack(coords, axis=-1))

    @property
    def dim(self):
        return len(self.chart)

    @property
    def shape(self):
        return (len(self.rows),)

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return (ChartPoint(self.chart, tuple(row)) for row in self.rows.tolist())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PointBatch(self.chart, self.rows[index])
        return ChartPoint(self.chart, tuple(self.rows[index].tolist()))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PointBatch) and self._key == other._key
        )

    def __repr__(self):
        return f"PointBatch(chart={self.chart}, points={len(self.rows)})"


def point(chart, *coords):
    """Convenience constructor: ``point(("x","y","t"), 1, 2, 3)``."""
    return ChartPoint.make(chart, coords)


def pack_jets(pt, fields, order, shape):
    """The jets of ``fields`` at ``pt`` through ``order``, part k as one
    read-only array of shape pt.shape + (dim,) * k + ``shape`` (derivative
    axes first, the fields in row-major order over ``shape``), by
    :func:`gather_parts`; a field that is None is an absent component, an
    exact zero that is not evaluated."""
    jets = [None if f is None else f(pt, order) for f in fields]
    return gather_parts(pt, jets, order, np.arange(len(fields)).reshape(shape))


def gather_parts(pt, jets, order, at):
    """The parts through ``order`` of ``jets`` (each of that order or above,
    or None for an exact zero) at ``pt``, laid out by the index array
    ``at``: part k is the read-only array of shape pt.shape + (dim,) * k +
    at.shape whose entry [..., c_1..c_k, i] is that derivative of
    ``jets[at[i]]``.  A part without the batch axis (a constant) is repeated
    over the batch.  Each jet is stored once, as its value and derivative
    block, and each part is one gather of them."""
    t = _tables(pt.dim, order)
    full = np.zeros(pt.shape + (len(jets), 1 + t.size))
    for c, jet in enumerate(jets):
        if jet is not None:
            full[..., c, 0], full[..., c, 1:] = jet.value, jet.derivs[..., : t.size]
    key = at.shape, at.tobytes(), len(jets)
    if key not in t.gathers:  # each part's positions in ``full``, flat
        axes = (1,) * at.ndim
        t.gathers[key] = [at * (1 + t.size) + 1 + i.reshape(i.shape + axes) for i in t.index]
    full = full.reshape(pt.shape + (-1,))
    parts = (full.take(i.ravel(), axis=-1).reshape(pt.shape + i.shape) for i in t.gathers[key])
    return tuple(map(read_only, parts))


def read_only(arr):
    """``arr``, marked read-only: it is shared through an evaluation scope."""
    arr.flags.writeable = False
    return arr


def anywhere(mask):
    """Whether a test of values holds at a point, or at some row of a batch
    (cheaper than ``np.any`` on the bool of a single point)."""
    return bool(mask.any()) if type(mask) is np.ndarray else bool(mask)


def first_where(value, mask):
    """For an error message: ``value`` at a point, or its entry at the first
    row of a batch where ``mask`` holds."""
    return value[np.argmax(mask)] if np.ndim(value) else value


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------


@cache
def _tables(n, order):
    """The index tables of the jets of ``order`` on an n-dimensional chart:
    the only code of the engine that depends on the order.

    A derivative block holds D_alpha f once for each multi-index alpha with
    1 <= |alpha| <= order, as the sorted tuple of its coordinate indices, in
    the order of ``alphas``: by degree, then lexicographically, so that the
    block of a lower order is a prefix of it."""
    t = SimpleNamespace()
    t.alphas = [a for k in range(1, order + 1) for a in combinations_with_replacement(range(n), k)]
    pos = {a: i for i, a in enumerate(t.alphas)}
    t.n, t.order, t.size, t.gathers = n, order, len(pos), {}
    t.lower = order and _tables(n, order - 1)  # the tables of a partial
    t.offset = [sum(len(a) < k for a in t.alphas) for k in range(order + 2)]  # degree k from here
    t.zeros = read_only(np.zeros(t.size))
    t.units = [read_only(row) for row in np.eye(n, t.size)]
    # part k: the position of each k-tuple of indices (the value's is -1)
    t.index = [np.array(-1)] + [
        np.array([pos[tuple(sorted(i))] for i in product(range(n), repeat=k)]).reshape((n,) * k)
        for k in range(1, order + 1)
    ]
    # partial i: D_(beta + e_i) for beta = 0, then the alphas below the top
    below = [(), *t.alphas[: t.offset[order]]]
    t.partial = [np.array([pos[tuple(sorted((*b, i)))] for b in below]) for i in range(n)] if order else []
    # Leibniz, D_g (ab) = sum_alpha C(g, alpha) D_alpha a D_(g - alpha) b: its
    # terms with 0 < alpha < g; Faa di Bruno, D_g f(u) = sum_k f^(k)(u) S_k:
    # S_k sums over the partitions of g into k blocks the products of D_block u
    t.product = order >= 2 and _sum_table(pos, t.alphas[n:], 2, ordered=True)
    t.chain = [
        (k, t.offset[k], _sum_table(pos, t.alphas[t.offset[k] :], k, ordered=False))
        for k in range(order, 1, -1)
    ]
    return t


def _sum_table(pos, gammas, k, ordered):
    """For each multi-index g of ``gammas``, the sum over the splits of its
    indices into k non-empty blocks of the product of the entries at the
    blocks: in the order of their labels when ``ordered``, else as a set
    (each partition once, by the labelling whose labels first appear in the
    order 0, 1, ..., k-1: its restricted-growth string).  Returns the
    positions of each factor, the weights that merge equal terms (None when
    all are 1), and the ``np.add.reduceat`` starts of the sums (None when
    each has one term)."""
    rows = []
    for g in gammas:
        rows.append(row := Counter())
        for labels in product(range(k), repeat=len(g)):
            first = tuple(dict.fromkeys(labels))  # the labels in order of first appearance
            if first == tuple(range(k)) or (ordered and len(first) == k):
                blocks = [pos[tuple(i for i, b in zip(g, labels) if b == j)] for j in range(k)]
                row[tuple(blocks if ordered else sorted(blocks))] += 1
    weights = np.array([w for row in rows for w in row.values()], dtype=float)
    starts = np.cumsum([0] + [len(row) for row in rows[:-1]])
    return (
        tuple(map(np.array, zip(*(f for row in rows for f in row)))),
        None if (weights == 1.0).all() else weights,
        None if len(weights) == len(rows) else starts,
    )


def _sums(table, *blocks):
    """The sums of a ``_sum_table``, reading factor j from ``blocks[j]``."""
    factors, weights, starts = table
    out = blocks[0].take(factors[0], axis=-1)
    for block, at in zip(blocks[1:], factors[1:]):
        out = out * block.take(at, axis=-1)
    if weights is not None:
        out *= weights
    return out if starts is None else np.add.reduceat(out, starts, axis=-1)


def _rows(v):
    """A value or a scalar derivative (a float at a point, an (N,) array over
    a batch) shaped to scale a derivative block row by row."""
    return v[..., None] if type(v) is np.ndarray and v.ndim else v


def _derivative_part(k, name):
    """Read-only access to ``Jet.parts[k]``, refused above the jet's order."""

    def read(jet):
        if k <= jet.table.order:
            return jet.derivs.take(jet.table.index[k], axis=-1)
        raise JetOrderError(f"{name} is part {k} of a jet; this one has order {jet.order}")

    return property(read)


def _jet(value, derivs, table):
    """The jet of ``value`` and the derivative block ``derivs`` of ``table``."""
    jet = object.__new__(Jet)
    jet.value, jet.derivs, jet.table = value, derivs, table
    return jet


def _linear(op):
    """The jet method of ``op``, + or -: on the values and derivatives of
    two jets, or on the value of a jet and a number."""

    def apply(self, other):
        if isinstance(other, _NUMBERS):
            return _jet(op(self.value, _number(other)), self.derivs, self.table)
        if not isinstance(other, Jet):
            return NotImplemented
        t, a, b = _common(self, other)
        return _jet(op(self.value, other.value), op(a, b), t)

    return apply


class Jet:
    """A value and its partial derivatives through ``order``, at most the jet cap ``MAX_ORDER``.

    ``value`` is a float at a point, an (N,) array over a batch of N
    points.  ``derivs`` holds each derivative D_alpha of degree 1 through
    ``order`` once, in the layout of ``table`` (see :func:`_tables`), on its
    last axis, after the batch axis or none when it is the same for every
    row.  ``parts[k]`` (``grad``, ``hess``, ``third``) is a gather of it:
    the exactly symmetric array of k-th partials, of shape ``(n,) * k``
    after that batch axis.  Reading a part above the order raises
    :class:`JetOrderError`.  ``Jet(parts)`` reads such a value and arrays at
    the sorted indices of each multi-index.  Jets are shared by the field
    memo, so they are never mutated after construction.
    """

    __slots__ = ("value", "derivs", "table")
    # an array on the left of ``+ - * /`` leaves the operation to the jet
    __array_ufunc__ = None

    def __init__(self, parts):
        t = _tables(np.shape(parts[-1])[-1] if parts[1:] else 0, len(parts) - 1)
        at = [zip(*t.alphas[t.offset[k] : t.offset[k + 1]]) for k in range(1, t.order + 1)]
        blocks = [np.asarray(p)[(..., *i)] for p, i in zip(parts[1:], at)]
        lead = np.broadcast_shapes(*(b.shape[:-1] for b in blocks))
        blocks = [np.broadcast_to(b, lead + b.shape[-1:]) for b in blocks] or [t.zeros]
        self.value, self.derivs, self.table = _number(parts[0]), np.concatenate(blocks, axis=-1), t

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, dim, order=MAX_ORDER):
        cls._check_order(order)
        t = _tables(dim, order)
        return _jet(_number(value), t.zeros, t)

    @classmethod
    def variable(cls, value, index, dim, order=MAX_ORDER):
        cls._check_order(order)
        t = _tables(dim, order)
        return _jet(_number(value), t.units[index], t)

    @staticmethod
    def _check_order(order):
        if not 0 <= order <= MAX_ORDER:
            raise JetOrderError(f"jet order {order} outside 0..{MAX_ORDER}")

    # -- parts ---------------------------------------------------------------

    @property
    def order(self):
        return self.table.order

    @property
    def parts(self):
        """The value, then the array of k-th partials for k = 1..order."""
        return (self.value, *(self.derivs.take(i, axis=-1) for i in self.table.index[1:]))

    grad = _derivative_part(1, "grad")
    hess = _derivative_part(2, "hess")
    third = _derivative_part(3, "third")

    def __repr__(self):
        return f"Jet(value={self.value!r}, order={self.order})"

    # -- derivative extraction ---------------------------------------------

    def partial(self, index):
        """The jet of the partial derivative along coordinate ``index``.

        Costs one order: the result is valid through ``order - 1``.
        """
        t = self.table
        if not t.order:
            raise JetOrderError(
                "cannot extract a derivative from an order-0 jet; "
                "evaluate the base field at a higher order"
            )
        d = self.derivs.take(t.partial[index], axis=-1)
        return _jet(_number(d[..., 0]), d[..., 1:], t.lower)

    # -- arithmetic (a Python number, or an (N,) array of one per row, acts
    # as its constant jet; see above) ----------------------------------------

    def _constant_like(self, value):
        return _jet(value, self.table.zeros, self.table)

    def _scaled(self, c, full):
        """The value and derivatives times the number c, or ``full()`` (the
        product with the constant jet of c) when the value or a derivative
        below the top order is not finite.  A sum that overflows counts as
        not finite; that only costs the full product."""
        t, v = self.table, self.value
        low = t.offset[t.order]  # the derivatives below the top order
        if t.order and not (
            math.isfinite(v if type(v) is float else v.sum())
            and (not low or math.isfinite(self.derivs[..., :low].sum()))
        ):
            return full()
        if type(c) is np.ndarray:
            return _jet(v * c, self.derivs * _rows(c), t)
        return self if c == 1.0 else _jet(v * c, self.derivs * c, t)

    __add__ = __radd__ = _linear(operator.add)
    __sub__ = _linear(operator.sub)

    def __neg__(self):
        return _jet(-self.value, -self.derivs, self.table)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _NUMBERS):
            c = _number(other)
            return self._scaled(c, lambda: self * self._constant_like(c))
        if not isinstance(other, Jet):
            return NotImplemented
        t, a, b = _common(self, other)
        a0, b0 = self.value, other.value
        if not t.order:
            return _jet(a0 * b0, t.zeros, t)
        # Leibniz: D_g (ab) = D_g a b + a D_g b + the terms that read no value
        d = a * _rows(b0) + _rows(a0) * b
        if t.product:
            d[..., t.n :] += _sums(t.product, a, b)
        return _jet(a0 * b0, d, t)

    def __rmul__(self, other):
        if not isinstance(other, _NUMBERS):
            return NotImplemented
        return _times(_number(other), self)

    def reciprocal(self):
        v = self.value
        if anywhere(v == 0.0):
            raise DomainError("division by zero")
        f = _derivatives(_reciprocal_series, v, self.order + 1)
        if f is None:
            raise DomainError(f"reciprocal of {v!r} leaves the float range")
        return self.compose(*f)

    def __truediv__(self, other):
        if isinstance(other, _NUMBERS):
            c = _number(other)

            def full():
                return self * self._constant_like(c).reciprocal()

            r = _finite_reciprocal(c, self.order)
            return full() if r is None else self._scaled(r, full)
        if not isinstance(other, Jet):
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        if not isinstance(other, _NUMBERS):
            return NotImplemented
        return _times(_number(other), self.reciprocal())

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            return NotImplemented
        if float(exponent).is_integer():
            return self._int_pow(int(exponent))
        return self._float_pow(float(exponent))

    def _int_pow(self, k):
        """The constant jet 1 times k factors of ``self``, by squaring, in
        full jet products, so its zero signs are the constant jet's."""
        if k < 0:
            return self.reciprocal()._int_pow(-k)
        result = self._constant_like(1.0)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def _float_pow(self, c):
        v = self.value
        if anywhere(v <= 0.0):
            raise DomainError("non-integer power needs a positive base")
        f = _derivatives(_power_series, v, c, self.order)
        if f is None:
            raise DomainError(f"power {c!r} of {v!r} leaves the float range")
        return self.compose(*f)

    # -- composition with a smooth unary function ---------------------------

    def compose(self, *f):
        """Chain rule: the jet of g(self) given ``f[k]``, the k-th derivative
        of g at the value (a float at a point, an (N,) array over a batch);
        only ``f[0]`` through ``f[order]`` are read.  Entry gamma adds the
        terms of Faa di Bruno's formula from the most blocks down,
        g'(f) D_gamma f last."""
        t = self.table
        if not t.order:
            return _jet(f[0], t.zeros, t)
        d = self.derivs
        higher = None  # the terms of more than k blocks, from their offset on
        for k, offset, table in t.chain:
            terms = _rows(f[k]) * _sums(table, *(d,) * k)
            if higher is not None:
                terms[..., higher[0] - offset :] += higher[1]
            higher = offset, terms
        out = _rows(f[1]) * d
        if higher is not None:
            out[..., higher[0] :] += higher[1]
        return _jet(f[0], out, t)


# what jet arithmetic takes as a number: a Python number, or an (N,) array
# of one number per row of a batch
_NUMBERS = (int, float, np.ndarray)


def _number(v):
    """A value, or a number operand, as a jet holds it: an (N,) array of
    one number per row, or a float."""
    return v if type(v) is np.ndarray and v.ndim else float(v)


def _common(a, b):
    """The tables of the lower order of two jets, which their sum and
    product are valid through, and their derivative blocks cut to it."""
    t = a.table
    if t is b.table:
        return t, a.derivs, b.derivs
    if b.table.order < t.order:
        t = b.table
    return t, a.derivs[..., : t.size], b.derivs[..., : t.size]


def _finite(x):
    """Whether a number, or every entry of an array of them, is finite."""
    return math.isfinite(x) if type(x) is float else bool(np.isfinite(x).all())


def _times(c, jet):
    """The number c times ``jet``: ``jet`` scaled by c, or the full product
    with the constant jet of c as its left operand."""
    return jet._scaled(c, lambda: jet._constant_like(c) * jet)


def _finite_reciprocal(c, order):
    """1/c when the derivatives of 1/x at c through ``order`` (those that
    ``Jet.reciprocal`` computes) are finite: then the reciprocal of the
    constant jet of c is 1/c with zero derivatives, and dividing by c is
    scaling by 1/c.  None otherwise, c = 0 included; for an array of row
    numbers, the array of 1/c, or None when that fails in some row."""
    f = _derivatives(_reciprocal_series, c, order + 1)
    if f is None or not all(map(math.isfinite if type(c) is float else _finite, f)):
        return None
    return f[0]


def _derivatives(series, v, *args):
    """``series(v, *args)``: the derivatives of a smooth function at the value
    v, a float at a point or an (N,) array over a batch.  A series calls
    libm only through :func:`_libm`, row by row, and does its ``+ - * /`` on
    the whole array, which numpy rounds as Python rounds floats; so row i
    has the bits of point i alone, and no value depends on the SIMD loops
    numpy picks for the CPU.  None when a derivative leaves the float range
    in some row (an overflow, a division by zero, or the sine of infinity)."""
    try:
        return series(v, *args)
    except (OverflowError, ZeroDivisionError, ValueError):
        return None


def _libm(fn, v, *args):
    """``fn(v, *args)`` for a float v; for an (N,) array, ``fn`` on the float
    of each row, stacked into an (N,) array.  ``fn`` is a ``math`` function
    or a float power, and raises as it does at a point."""
    if type(v) is float:
        return fn(v, *args)
    return np.fromiter(map(fn, v.tolist(), *map(repeat, args)), float, len(v))


def _quotient(c, d):
    """c / d, refusing a zero divisor in any row as float division does
    (numpy would give an infinity)."""
    if type(d) is not float and np.count_nonzero(d) < d.size:
        raise ZeroDivisionError("division by zero")
    return c / d


def _reciprocal_series(v, count):
    """The first ``count`` of 1/v, -1/v^2, 2/v^3, ..., (-1)^k k!/v^(k+1): the
    derivatives of 1/x at v, computed only as far as they are read."""
    return [_over_power((-1.0) ** k * math.factorial(k), v, k + 1) for k in range(count)]


def _over_power(c, v, k):
    """c / v^k; where v^k overflows, c (1/v)^k, which only underflows."""
    try:
        return _quotient(c, _libm(pow, v, k))
    except OverflowError:
        if type(v) is float:
            return c * (1.0 / v) ** k
    # some row overflowed: find which
    p = _libm(_power_or_inf, v, k)
    over = np.isinf(p)
    out = _quotient(c, np.where(over, 1.0, p))
    out[over] = c * _libm(pow, 1.0 / v[over], k)
    return out


def _power_or_inf(x, k):
    """x ** k, or inf where that overflows."""
    try:
        return x**k
    except OverflowError:
        return math.inf


def _power_series(v, c, order):
    # d^k/dv^k v^c = c (c-1) ... (c-k+1) v^(c-k)
    f, factor = [], 1.0
    for k in range(order + 1):
        f.append(factor * _libm(pow, v, c - k))
        factor *= c - k
    return f


# ---------------------------------------------------------------------------
# smooth functions, polymorphic over Jet / Field
# ---------------------------------------------------------------------------


def _unary(series):
    """The smooth function whose derivatives at v, through ``order``, are
    ``series(v, order)``, applied to a jet or a field."""

    def apply(x):
        if isinstance(x, Field):
            return Field(lambda pt, order=0: apply(x(pt, order)))
        f = _derivatives(series, x.value, x.order)
        if f is None:
            raise DomainError(f"value {x.value!r} leaves the float range")
        return x.compose(*f)

    return apply


def _exp_series(v, order):
    return [_libm(math.exp, v)] * (order + 1)


def _log_series(v, order):
    if anywhere(v <= 0.0):
        raise DomainError("log of a non-positive value")
    return [_libm(math.log, v), *_reciprocal_series(v, order)]


def _sqrt_series(v, order):
    if anywhere(v <= 0.0):
        raise DomainError("sqrt of a non-positive value")
    s = _libm(math.sqrt, v)
    # the k-th derivative c_k / (v^(k-1) s), c_k = 1/2 (1/2 - 1) ... (3/2 - k)
    f, c, vk = [s], 0.5, 1.0
    for k in range(1, order + 1):
        f.append(_quotient(c, vk * s))
        c, vk = c * (0.5 - k), vk * v
    return f


def _cycle(f, df, period):
    """The series of a function whose derivatives repeat: f, f', then -f,
    -f' (``period`` 4) or f, f' again (``period`` 2)."""

    def series(v, order):
        a, b = _libm(f, v), _libm(df, v)
        return [(a, b, -a, -b)[k % period] for k in range(order + 1)]

    return series


def _tanh_series(v, order):
    # tanh' = 1 - tanh^2, so tanh^(k+1) = -sum_j C(k, j) tanh^(j) tanh^(k-j)
    t = _libm(math.tanh, v)
    f = [t, 1.0 - t * t][: order + 1]
    for k in range(1, order):
        terms = [math.comb(k, j) * f[j] * f[k - j] for j in range(k + 1)]
        f.append(-sum(terms[1:], terms[0]))
    return f


exp = _unary(_exp_series)
log = _unary(_log_series)
sqrt = _unary(_sqrt_series)
sin = _unary(_cycle(math.sin, math.cos, 4))
cos = _unary(_cycle(math.cos, lambda x: -math.sin(x), 4))
sinh = _unary(_cycle(math.sinh, math.cosh, 2))
cosh = _unary(_cycle(math.cosh, math.sinh, 2))
tanh = _unary(_tanh_series)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


# memo of the open evaluation scope: (field, point) -> the jet of the
# highest order asked, whose first parts serve a lower order
_SCOPE = ContextVar("ewbench_evaluation_scope", default=None)


class evaluation_scope:
    """Share field evaluations made inside the block; forget them after it.

    The block always gets a new, empty memo: a scope open around it is
    neither read nor filled inside the block.  The CLI opens one scope for
    the checks of a command, ``lift.validate_config`` one for its checks,
    ``lift.flat_limit`` one for all its ells, and ``sample`` one per batch
    of draws, so a scope holds only what its job can reuse.
    """

    __slots__ = ("_token",)
    shared = False

    def __enter__(self):
        memo = _SCOPE.get() if self.shared else None
        self._token = None
        if memo is None:
            memo = {}
            self._token = _SCOPE.set(memo)
        return memo

    def __exit__(self, *exc):
        if self._token is not None:
            _SCOPE.reset(self._token)


class shared_scope(evaluation_scope):
    """The memo of the open evaluation scope for the block, or of a new one
    when none is open."""

    __slots__ = ()
    shared = True


def scoped(key, make):
    """The value kept under ``key`` in the open evaluation scope, made by
    ``make()`` when the scope holds none."""
    memo = _SCOPE.get()
    if memo is None:
        with evaluation_scope():
            return scoped(key, make)
    if key not in memo:
        memo[key] = make()
    return memo[key]


def scoped_arrays(key, order, pack):
    """Packed arrays through ``order``, kept in the open evaluation scope
    under ``key``: ``pack(order)`` builds the ``order + 1`` first of them
    when the scope holds fewer, and a lower order is served by the first
    ``order + 1`` arrays of a higher one held.  The scope keeps the highest
    order asked, and nothing above it is allocated."""
    memo = _SCOPE.get()
    if memo is None:
        with evaluation_scope():
            return scoped_arrays(key, order, pack)
    packed = memo.get(key, ())
    if len(packed) <= order:
        packed = memo[key] = pack(order)
    return packed[: order + 1]


class Field:
    """A scalar function of a chart point, evaluated on demand as a jet.

    ``field(pt, order)`` returns the jet of ``fn(pt, order)``, valid through
    ``order``, at a ChartPoint or, row by row, over a PointBatch.  It is
    computed at most once per evaluation scope; callers share the
    jet, so they must not mutate it.  Algebra on fields is pointwise;
    ``d(name)``, the partial-derivative field along the named coordinate,
    is the constant 0 for a constant and otherwise reads the base's jet one
    order higher: a derivative comes only from a jet.

    A constant field knows its ``number`` (None for any other field): a
    float, or an (N,) array of one number per row of a batch of N points,
    where alone it has a jet, so that one build serves the rows of many
    numbers.  An (N,) array in field algebra is the constant of its
    numbers.  ``+ - * /`` fold constants, whatever their shape: two
    constants make a constant when the rule folds them in every row, and
    otherwise the number c acts on the jet of the other operand f as Jet
    arithmetic with a number does (c * f and f / c scale it, f + c shifts
    it, 1 * f is its own jet), instead of building the jet of c.  f is
    still evaluated, whatever c is, so inf * 0 stays NaN.  Every remaining
    product keeps its operand order.  A pair with an array that does not
    fold in some row is evaluated in every row, which differs from the fold
    of a row that alone would fold only in the sign of a zero.  The fold
    of an array is numpy's arithmetic with its warnings off, so a row that
    overflows gives what the float fold gives, silently.
    """

    __slots__ = ("fn", "number")
    # an array on the left of ``+ - * /`` leaves the operation to the field
    __array_ufunc__ = None

    def __init__(self, fn):
        self.fn = fn
        self.number = None

    def __call__(self, pt, order=0):
        memo = _SCOPE.get()
        if memo is None:
            with evaluation_scope():
                return self(pt, order)
        key = (self, pt)
        jet = memo.get(key)
        if jet is not None:
            held = jet.table.order
            if held == order:
                return jet
            if held > order:  # its value and a prefix view of its derivatives
                t = _tables(jet.table.n, order)
                return _jet(jet.value, jet.derivs[..., : t.size], t)
        jet = memo[key] = self.fn(pt, order)
        return jet

    @staticmethod
    def const(value):
        """The constant field of a number, or of an (N,) array of one number
        per row."""
        v = _number(value)
        field = Field(lambda pt, order=0: Jet.constant(row_numbers(v, pt), pt.dim, order))
        field.number = v
        return field

    @staticmethod
    def coordinate(name):
        def fn(pt, order=0):
            idx = pt.chart.index(name)
            return Jet.variable(pt.coords[idx], idx, pt.dim, order)

        return Field(fn)

    def d(self, name):
        """The partial derivative field along coordinate ``name``."""
        if self.number is not None:
            return Field.const(0.0)

        def fn(pt, order=0):
            if order >= MAX_ORDER:
                raise JetOrderError(
                    f"derivative along '{name}' would need order {order + 1} "
                    f"of the base field (cap is {MAX_ORDER})"
                )
            idx = pt.chart.index(name)
            return self(pt, order + 1).partial(idx)

        return Field(fn)

    def value(self, pt):
        return self(pt, 0).value

    # -- pointwise algebra ---------------------------------------------------

    def _fold(self, other, op, constant):
        """``op`` pointwise on self and ``other``.  Two constants make the
        constant ``constant(a, b)`` unless that is None; otherwise a
        constant among the operands acts on the other operand's jet
        directly."""
        if isinstance(other, Field):
            o, b = other, other.number
        elif isinstance(other, _NUMBERS):
            o, b = None, _number(other)  # o is read only when b is None
        else:
            return NotImplemented
        a = self.number
        if a is not None and b is not None:
            with np.errstate(all="ignore"):  # an array folds as a float does
                c = constant(a, b)
            if c is not None:
                return Field.const(c)
        if b is not None:
            return Field(lambda pt, order=0: op(self(pt, order), row_numbers(b, pt)))
        if a is not None:
            return Field(lambda pt, order=0: op(row_numbers(a, pt), o(pt, order)))
        return Field(lambda pt, order=0: op(self(pt, order), o(pt, order)))

    def __add__(self, other):
        return self._fold(other, operator.add, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._fold(other, operator.sub, operator.sub)

    def __rsub__(self, other):  # a Field on the left is served by its __sub__
        return Field.const(other) - self if isinstance(other, _NUMBERS) else NotImplemented

    def __mul__(self, other):
        return self._fold(other, operator.mul, _constant_product)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._fold(other, operator.truediv, _constant_quotient)

    def __rtruediv__(self, other):
        return Field.const(other) / self if isinstance(other, _NUMBERS) else NotImplemented

    def __neg__(self):
        if self.number is not None:
            return Field.const(-self.number)
        return Field(lambda pt, order=0: -self(pt, order))


def row_numbers(x, pt):
    """The number x, or x itself, an (N,) array of one number per row, at a
    batch of N points; DomainError for an array at a point or at a batch of
    any other shape."""
    if type(x) is np.ndarray and x.shape != pt.shape:
        raise DomainError("the scale has rows only at the batches its pass tiles")
    return x


# The product of constant jets has zero derivative parts only when both
# values are finite (0 * inf is NaN), and the quotient only when the
# divisor's reciprocal jet is 1/b with zero derivatives; otherwise the
# constants are left to evaluation.  Both take arrays of row numbers too,
# and give None when that fails in some row.


def _constant_product(a, b):
    return a * b if _finite(a) and _finite(b) else None


def _constant_quotient(a, b):
    r = _finite_reciprocal(b, MAX_ORDER)
    return a * r if r is not None and _finite(a) else None


# ---------------------------------------------------------------------------
# deterministic guarded sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Guard:
    """Accept a point when ``predicate(point) > threshold``; over a batch,
    ``accepts`` gives the comparison row by row."""

    predicate: Field
    threshold: float
    label: str  # names the guard in the exhaustion error

    def accepts(self, pt):
        return self.predicate.value(pt) > self.threshold


@dataclass(frozen=True)
class SampleDomain:
    """A coordinate box, an optional guard and a deterministic seed."""

    chart: tuple[str, ...]
    box: tuple[tuple[float, float], ...]
    guard: Guard | None
    seed: int
    count: int

    def __post_init__(self):
        if len(self.box) != len(self.chart):
            raise ValueError("box does not match chart dimension")


_MAX_DRAWS = 1_000_000
_BATCH = 512


@np.errstate(all="ignore")  # a guard value that is not finite is a rejection
def sample(domain):
    """Uniform points in the box, rejection-filtered by the guard: the
    PointBatch of the accepted rows.

    Draws come in batches of 512 rows, and rows are accepted in draw order
    up to ``count``.  The guard is evaluated, value only, on a prefix of
    the batch sized to hold the rows still needed at the acceptance rate
    seen so far, and once more on the rest of the batch only if that
    prefix falls short.  If the guard raises on a batch, that batch is
    screened again row by row in draw order, so a row past the last one
    accepted never raises.  Each batch is screened in an evaluation scope
    of its own, so no guard evaluation outlives its batch or enters a
    scope open around the call.  Deterministic for a fixed seed.  Raises
    SamplingExhaustedError, with the number of draws the guard rejected,
    when the acceptance rate is below 1% after a million draws; a batch
    that can trigger it is screened whole, so that number does not depend
    on the prefix.  A guard value without the batch axis is that of every
    draw: when it rejects, no draw can pass, and the error comes after the
    first batch, with the numbers of a run to the cap.
    """
    rng = np.random.default_rng(domain.seed)
    lows = np.array([b[0] for b in domain.box])
    spans = np.array([b[1] for b in domain.box]) - lows
    if not np.isfinite(spans).all():
        raise OverflowError("Range exceeds valid bounds")
    accepted = [np.empty((0, len(domain.chart)))]  # the accepted rows of each batch
    taken = 0  # rows accepted so far
    rejected = 0  # rows the guard rejected
    passed = 0  # rows the guard accepted, past ``count`` included
    drawn = 0
    while taken < domain.count:
        # rng.uniform(lows, highs, size) computes this, from the same stream
        rows = lows + spans * rng.random((_BATCH, len(domain.chart)))
        drawn += _BATCH
        need = domain.count - taken
        prefix = _prefix_rows(need, passed, passed + rejected) if drawn < _MAX_DRAWS else _BATCH
        with evaluation_scope():
            try:
                keep, out = _screen(domain, rows[:prefix])
                if len(keep) < need and prefix < _BATCH:
                    more, out_more = _screen(domain, rows[prefix:])
                    keep = np.concatenate([keep, more + prefix])
                    out += out_more
            except SamplingExhaustedError:
                raise
            except EwbenchError:
                keep, out = _screen_rows(domain, rows, need)
        passed += len(keep)
        rejected += out
        accepted.append(rows[keep[:need]])
        taken += len(accepted[-1])
        if drawn >= _MAX_DRAWS and taken < 0.01 * drawn:
            raise _exhausted(domain.guard, taken, drawn, rejected)
    return PointBatch(domain.chart, np.concatenate(accepted))


def _exhausted(guard, taken, drawn, rejected):
    return SamplingExhaustedError(
        f"acceptance rate {taken}/{drawn} below 1% after {drawn} draws; "
        f"rejected by {guard.label}: {rejected}"
    )


def _prefix_rows(need, passed, screened):
    """How many rows of a batch to screen first for ``need`` more points,
    when ``passed`` of the ``screened`` rows so far were accepted: enough
    rows for need plus a margin of 2 sqrt(need) + 4 at that rate (taken as
    1 before any row is screened), or the whole batch while none passed."""
    if screened and not passed:
        return _BATCH
    rate = passed / screened if screened else 1.0
    return min(_BATCH, math.ceil((need + 2.0 * math.sqrt(need) + 4.0) / rate))


def _screen(domain, rows):
    """Indices of the rows that the guard accepts (every row, with no
    guard), and how many rows it rejected.  Raises SamplingExhaustedError
    when no draw can pass (see ``sample``)."""
    if domain.guard is None:
        return np.arange(len(rows)), 0
    ok = domain.guard.accepts(PointBatch(domain.chart, rows))
    if np.ndim(ok) == 0 and not ok:
        cap = _BATCH * math.ceil(_MAX_DRAWS / _BATCH)
        raise _exhausted(domain.guard, 0, cap, cap)
    keep = np.flatnonzero(np.broadcast_to(ok, len(rows)))
    return keep, len(rows) - len(keep)


def _screen_rows(domain, rows, need):
    """``_screen`` one row at a time in draw order, stopping at the
    ``need``-th accepted row."""
    keep = []
    for i, row in enumerate(rows):
        if domain.guard.accepts(ChartPoint(domain.chart, tuple(float(v) for v in row))):
            keep.append(i)
            if len(keep) == need:
                break
    return keep, i + 1 - len(keep)  # the rows screened, less those kept
