"""Order-3 multivariate jets and scalar fields over chart points.

A :class:`Jet` holds a value together with its partial derivatives through a
requested order (at most 3): exactly ``order + 1`` parts, and nothing above
the order.  At a single :class:`ChartPoint` of an n-dimensional chart the
value is a float and part k has shape ``(n,) * k``.  At a
:class:`PointBatch` of N points every part has a leading batch axis: the
value has shape ``(N,)`` and part k has shape ``(N,) + (n,) * k``.  The jet
rules broadcast over trailing axes, so a part without the batch axis (a
constant, or the unit gradient of a coordinate) serves every row without
being copied, and row i of a batched jet comes from the same arithmetic as
the jet at point i alone.  Arithmetic propagates derivatives exactly
(Leibniz and chain rules); there is no truncation error, only rounding.
Each part depends only on the parts of its operands up to its own order,
and a smooth-function rule computes its scalar derivatives only that far,
so the parts a jet shares with a higher-order jet of the same field are
identical.  Their libm calls (``math`` functions and float powers) run row
by row over a batch, never through numpy's CPU-dispatched SIMD loops; the
``+ - * /`` that combine them run on the whole batch.

A Python number in jet arithmetic is not lifted to a constant jet for a
full Leibniz product: it shifts the value (``+ -``) or scales every part
(``* /``, dividing by c as scaling by 1/c).  The full product would add
only exact zeros, so the parts are the same apart from the sign of a zero;
a jet with a part below the top one that is not finite, where 0 * inf
spreads NaN, is still multiplied in full.  Over a batch an (N,) array acts
as one such number per row, the same arithmetic row by row.  A literal of
an expression is its constant jet (``expr.eval_jet``), combined in full.

A :class:`Field` is a lazily evaluated scalar function of a point or a
batch of points; requesting a derivative field lowers the maximum order
that can be evaluated by one, which is how the order cap stays honest.
Field algebra folds constants, and an affine field knows its constant
derivatives (see :class:`Field`).  An (N,) array in field algebra is a row
constant: constant along the chart, with one number per row of the
batches of N points that its caller tiles, so that one build serves the
rows of many numbers.  Field evaluations are memoized on
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
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import (
    DomainError,
    EwbenchError,
    JetOrderError,
    SamplingExhaustedError,
)

MAX_ORDER = 3

__all__ = [
    "MAX_ORDER",
    "Jet",
    "ChartPoint",
    "PointBatch",
    "pack_jets",
    "read_only",
    "anywhere",
    "first_where",
    "Field",
    "row_numbers",
    "evaluation_scope",
    "shared_scope",
    "scoped",
    "scoped_arrays",
    "Guard",
    "SampleDomain",
    "sample",
    "exp",
    "log",
    "sin",
    "cos",
    "sqrt",
    "sinh",
    "cosh",
    "tanh",
]


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
    axes first, the fields in row-major order over ``shape``); a part
    without the batch axis (a constant) is repeated over the batch, and a
    field that is None is an absent component, an exact zero that is not
    evaluated.  At order 1 an affine field's first derivatives are its
    slopes, as ``Field.d`` gives them (the numbers of a slope that is a row
    constant): it is evaluated at order 0 only, after the others, which
    may read its own fields at order 1."""
    packed = [np.zeros(pt.shape + (pt.dim,) * k + (len(fields),)) for k in range(order + 1)]
    affine = {}
    for i, f in enumerate(fields):
        if f is None:
            continue
        slopes = [f.slope(c) for c in pt.chart] if order == 1 and f.slope else [None]
        if None not in slopes:
            affine[i] = slopes
            continue
        for arr, part in zip(packed, f(pt, order).parts):
            arr[..., i] = part
    for i, slopes in affine.items():
        if _RowConstant in map(type, slopes):  # a slope that is a row constant
            slopes = np.stack(np.broadcast_arrays(*(row_numbers(s, pt) for s in slopes)), axis=-1)
        packed[0][..., i], packed[1][..., i] = fields[i](pt, 0).value, slopes
    return tuple(read_only(arr.reshape(arr.shape[:-1] + shape)) for arr in packed)


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


def _derivative_part(k, name):
    """Read-only access to ``Jet.parts[k]``, refused above the jet's order."""

    def read(jet):
        if k < len(jet.parts):
            return jet.parts[k]
        raise JetOrderError(f"{name} is part {k} of a jet; this one has order {jet.order}")

    return property(read)


# index suffixes that give a batched value k trailing unit axes
_UNIT_AXES = ((), (Ellipsis, None), (Ellipsis, None, None), (Ellipsis, None, None, None))
# partial(i) takes index i on the first derivative axis of each part; these
# are the full slices over the derivative axes after it
_AFTER_FIRST = ((), (slice(None),), (slice(None), slice(None)))


def _scaler(v, k):
    """A value or a scalar derivative (a float at a point, an (N,) array over
    a batch) shaped to scale a part of order k row by row."""
    return v[_UNIT_AXES[k]] if type(v) is np.ndarray and v.ndim else v


class Jet:
    """A value and its symmetric derivative arrays through ``order`` (0..3).

    ``parts`` holds exactly ``order + 1`` derivative parts: ``parts[0]`` is
    the value and ``parts[k]`` the array of k-th partial derivatives.  At a
    point of an n-dimensional chart the value is a float and part k has
    shape ``(n,) * k``; over a batch of N points the value has shape (N,)
    and part k has shape ``(N,) + (n,) * k``, or ``(n,) * k`` when it is the
    same for every row.  Nothing above the order is stored; reading
    ``grad``, ``hess`` or ``third`` above it raises :class:`JetOrderError`.
    Jets are shared by the field memo, so they are never mutated after
    construction.
    """

    __slots__ = ("parts",)
    # an array on the left of ``+ - * /`` leaves the operation to the jet
    __array_ufunc__ = None

    def __init__(self, parts):
        v = parts[0]
        self.parts = (v if type(v) is np.ndarray and v.ndim else float(v), *parts[1:])

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, dim, order=MAX_ORDER):
        cls._check_order(order)
        return cls([value] + [np.zeros((dim,) * k) for k in range(1, order + 1)])

    @classmethod
    def variable(cls, value, index, dim, order=MAX_ORDER):
        j = cls.constant(value, dim, order)
        if order >= 1:
            j.parts[1][index] = 1.0
        return j

    @staticmethod
    def _check_order(order):
        if not 0 <= order <= MAX_ORDER:
            raise JetOrderError(f"jet order {order} outside 0..{MAX_ORDER}")

    # -- parts ---------------------------------------------------------------

    @property
    def order(self):
        return len(self.parts) - 1

    @property
    def value(self):
        return self.parts[0]

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
        if len(self.parts) < 2:
            raise JetOrderError(
                "cannot extract a derivative from an order-0 jet; "
                "evaluate the base field at a higher order"
            )
        return Jet([p[(Ellipsis, index) + _AFTER_FIRST[k]] for k, p in enumerate(self.parts[1:])])

    # -- arithmetic (a Python number, or an (N,) array of one per row, acts
    # as its constant jet; see above) ----------------------------------------

    def _constant_like(self, value):
        return Jet([value] + [np.zeros(p.shape[-k:]) for k, p in enumerate(self.parts[1:], 1)])

    def _scaled(self, c, full):
        """Every part times the number c, or ``full()`` (the product with the
        constant jet of c) when a part below the top one is not finite.  A
        sum that overflows counts as not finite; that only costs the full
        product."""
        parts = self.parts
        for p in parts[:-1]:
            if not math.isfinite(p if type(p) is float else p.sum()):
                return full()
        if type(c) is np.ndarray:
            return Jet([p * _scaler(c, k) for k, p in enumerate(parts)])
        return self if c == 1.0 else Jet([p * c for p in parts])

    def __add__(self, other):
        if isinstance(other, _NUMBERS):
            c = other if type(other) is np.ndarray else float(other)
            return Jet([self.parts[0] + c, *self.parts[1:]])
        if not isinstance(other, Jet):
            return NotImplemented
        return Jet([a + b for a, b in zip(self.parts, other.parts)])

    __radd__ = __add__

    def __neg__(self):
        return Jet([-p for p in self.parts])

    def __sub__(self, other):
        if isinstance(other, _NUMBERS):
            c = other if type(other) is np.ndarray else float(other)
            return Jet([self.parts[0] - c, *self.parts[1:]])
        if not isinstance(other, Jet):
            return NotImplemented
        return Jet([a - b for a, b in zip(self.parts, other.parts)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _NUMBERS):
            c = other if type(other) is np.ndarray else float(other)
            return self._scaled(c, lambda: self * self._constant_like(c))
        if not isinstance(other, Jet):
            return NotImplemented
        a, b = self.parts, other.parts
        order = min(len(a), len(b)) - 1
        a0, b0 = a[0], b[0]
        parts = [a0 * b0]
        if order >= 1:
            parts.append(a[1] * _scaler(b0, 1) + _scaler(a0, 1) * b[1])
        if order >= 2:
            # a'_i b'_j + b'_i a'_j: one outer product and its transpose
            outer = a[1][..., :, None] * b[1][..., None, :]
            parts.append(
                a[2] * _scaler(b0, 2) + outer + np.swapaxes(outer, -1, -2) + _scaler(a0, 2) * b[2]
            )
        if order >= 3:
            parts.append(
                a[3] * _scaler(b0, 3)
                + _sym_hg(a[2], b[1])
                + _sym_hg(b[2], a[1])
                + _scaler(a0, 3) * b[3]
            )
        return Jet(parts)

    def __rmul__(self, other):
        if not isinstance(other, _NUMBERS):
            return NotImplemented
        return _times(other if type(other) is np.ndarray else float(other), self)

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
            c = other if type(other) is np.ndarray else float(other)

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
        return _times(other if type(other) is np.ndarray else float(other), self.reciprocal())

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
        only ``f[0]`` through ``f[order]`` are read."""
        a = self.parts
        order = len(a) - 1
        parts = [f[0]]
        if order >= 1:
            g = a[1]
            parts.append(_scaler(f[1], 1) * g)
        if order >= 2:
            gg = g[..., :, None] * g[..., None, :]
            parts.append(_scaler(f[2], 2) * gg + _scaler(f[1], 2) * a[2])
        if order >= 3:
            parts.append(
                _scaler(f[3], 3) * (gg[..., None] * g[..., None, None, :])
                + _scaler(f[2], 3) * _sym_hg(a[2], g)
                + _scaler(f[1], 3) * a[3]
            )
        return Jet(parts)


# what jet arithmetic takes as a number: a Python number, or an (N,) array
# of one number per row of a batch
_NUMBERS = (int, float, np.ndarray)


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


# the axes of t[..., j, k, i] as a view of t[..., i, j, k], by t.ndim
_ROTATED = {n: (*range(n - 3), n - 1, n - 3, n - 2) for n in (3, 4)}


def _sym_hg(hess, grad):
    """Symmetrized hess (x) grad: H_ij g_k + H_ik g_j + H_jk g_i, as one
    product t_ijk = H_ij g_k and two views of it, t_ikj and t_jki."""
    t = hess[..., :, :, None] * grad[..., None, None, :]
    return t + np.swapaxes(t, -1, -2) + t.transpose(_ROTATED[t.ndim])


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
    """The first ``count`` of 1/v, -1/v^2, 2/v^3, -6/v^4: the derivatives of
    1/x at v, computed only as far as they are read."""
    return [_over_power(c, v, k + 1) for k, c in enumerate((1.0, -1.0, 2.0, -6.0)[:count])]


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
    # the derivatives 0.5/s, -0.25/(v s), 0.375/(v^2 s), only as far as read
    f = [s]
    if order >= 1:
        f.append(_quotient(0.5, s))
    if order >= 2:
        f.append(_quotient(-0.25, v * s))
    if order >= 3:
        f.append(_quotient(0.375, v * v * s))
    return f


def _sin_series(v, order):
    s, c = _libm(math.sin, v), _libm(math.cos, v)
    return [s, c, -s, -c]


def _cos_series(v, order):
    s, c = _libm(math.sin, v), _libm(math.cos, v)
    return [c, -s, -c, s]


def _sinh_series(v, order):
    s, c = _libm(math.sinh, v), _libm(math.cosh, v)
    return [s, c, s, c]


def _cosh_series(v, order):
    s, c = _libm(math.sinh, v), _libm(math.cosh, v)
    return [c, s, c, s]


def _tanh_series(v, order):
    t = _libm(math.tanh, v)
    if not order:
        return [t]
    d1 = 1.0 - t * t
    return [t, d1, -2.0 * t * d1, d1 * (6.0 * t * t - 2.0)]


exp = _unary(_exp_series)
log = _unary(_log_series)
sqrt = _unary(_sqrt_series)
sin = _unary(_sin_series)
cos = _unary(_cos_series)
sinh = _unary(_sinh_series)
cosh = _unary(_cosh_series)
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
    ``d(name)`` is the partial-derivative field along the named coordinate
    and needs the base to support one order more.

    A constant field knows its ``number`` (None for any other field), and
    ``+ - * /`` fold it: two constants make a constant, and otherwise the
    number c acts on the jet of the other operand f as Jet arithmetic with
    a number does (c * f and f / c scale it, f + c shifts it, 1 * f is its
    own jet), instead of building the jet of c.  f is still evaluated,
    whatever c is, so inf * 0 stays NaN.  Every remaining product keeps its
    operand order.

    A row constant is constant along the chart but takes one number per
    row: ``Field.const`` of an (N,) array, which ``rows`` holds (``rows``
    is None for any other field).  It has a jet only at a batch of N
    points, and algebra takes an (N,) array as its row constant.  Two
    constants fold row by row by the rules above, once, when the field is
    built, and a row constant acts on the jet of any other field as its
    numbers do.  Where a row's constants would not fold (their jet would
    be evaluated instead), building the field raises DomainError.

    An affine field has a ``slope``: a function of a coordinate name giving
    its constant derivative along it, or None where that is not a number
    that evaluation would give.  Coordinates and constants have one, and
    f + c, c + f, f - c, c - f, c * f, f / c and -f carry the slope of f
    through, a row constant where f or c is one; ``d`` of a field with a
    slope is that constant.
    """

    __slots__ = ("fn", "number", "slope")
    rows = None
    # an array on the left of ``+ - * /`` leaves the operation to the field
    __array_ufunc__ = None

    def __init__(self, fn, slope=None):
        self.fn = fn
        self.number = None
        self.slope = slope

    def __call__(self, pt, order=0):
        memo = _SCOPE.get()
        if memo is None:
            with evaluation_scope():
                return self(pt, order)
        key = (self, pt)
        jet = memo.get(key)
        if jet is not None:
            held = len(jet.parts)
            if held == order + 1:
                return jet
            if held > order:  # a lower order is the first parts of the jet
                return Jet(jet.parts[: order + 1])
        jet = memo[key] = self.fn(pt, order)
        return jet

    @staticmethod
    def const(value):
        """The constant field of a number, or the row constant of an (N,)
        array of them."""
        if type(value) is np.ndarray:
            return _RowConstant(value)
        v = float(value)
        field = Field(lambda pt, order=0: Jet.constant(v, pt.dim, order), _flat)
        field.number = v
        return field

    @staticmethod
    def coordinate(name):
        def fn(pt, order=0):
            idx = pt.chart.index(name)
            return Jet.variable(pt.coords[idx], idx, pt.dim, order)

        return Field(fn, lambda along: 1.0 if along == name else 0.0)

    def d(self, name):
        """The partial derivative field along coordinate ``name``."""
        slope = None if self.slope is None else self.slope(name)
        if slope is not None:
            return slope if isinstance(slope, Field) else Field.const(slope)

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
        constant ``constant(a, b)`` unless that is None (row by row when
        either is a row constant); otherwise a constant among the operands
        acts on the other operand's jet directly, and the result has a
        slope when that operand has one and ``op`` is affine in it."""
        if isinstance(other, (int, float)):
            o, b = None, float(other)  # o is read only when b is None
        elif isinstance(other, Field):
            o, b = other, other.number if other.rows is None else other.rows
        elif type(other) is np.ndarray:
            o, b = None, other  # the numbers of a row constant
        else:
            return NotImplemented
        a = self.number if self.rows is None else self.rows
        if a is not None and b is not None:
            if type(a) is np.ndarray or type(b) is np.ndarray:
                return Field.const(_folded(constant, a, b))
            c = constant(a, b)
            if c is not None:
                return Field.const(c)
        if b is not None:
            slope = _affine(self, _SLOPE_RULES[op][0], b)
            if type(b) is np.ndarray:
                return Field(lambda pt, order=0: op(self(pt, order), row_numbers(b, pt)), slope)
            return Field(lambda pt, order=0: op(self(pt, order), b), slope)
        if a is not None:
            slope = _affine(o, _SLOPE_RULES[op][1], a)
            if type(a) is np.ndarray:
                return Field(lambda pt, order=0: op(row_numbers(a, pt), o(pt, order)), slope)
            return Field(lambda pt, order=0: op(a, o(pt, order)), slope)
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
        if self.rows is not None:
            return Field.const(-self.rows)
        return Field(lambda pt, order=0: -self(pt, order), _affine(self, _negated, None))


def _flat(along):
    """The slope of a field constant along the chart."""
    return 0.0


def row_numbers(x, pt):
    """The number x, or the numbers of x, an (N,) array of one per row or
    the row constant of one, at a batch of N points; DomainError at a point
    or at a batch of any other shape."""
    rows = x.rows if isinstance(x, Field) else x
    if type(rows) is not np.ndarray:
        return rows
    if rows.shape != pt.shape:
        raise DomainError("the scale has rows only at the batches its pass tiles")
    return rows


class _RowConstant(Field):
    """The row constant of the (N,) array ``rows`` (see :class:`Field`)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        def fn(pt, order=0):
            return Jet.constant(row_numbers(rows, pt), pt.dim, order)

        super().__init__(fn, _flat)
        self.rows = rows


@np.errstate(all="ignore")  # a row whose constant is not finite fails below
def _folded(rule, a, b):
    """``rule(a, b)`` on numbers or arrays of row numbers; DomainError
    where it gives None, in some row, and so would leave the constants to
    evaluation."""
    c = rule(a, b)
    if c is None:
        raise DomainError("a constant of some row does not fold")
    return c


# The product of constant jets has zero derivative parts only when both
# values are finite (0 * inf is NaN), and the quotient only when the
# divisor's reciprocal jet is 1/b with zero derivatives; otherwise the
# constants are left to evaluation.  Both take arrays of row numbers too,
# and give None when that fails in some row.


def _constant_product(a, b):
    if type(a) is float and type(b) is float:
        return a * b if math.isfinite(a) and math.isfinite(b) else None
    return a * b if _finite(a) and _finite(b) else None


def _constant_quotient(a, b):
    r = _finite_reciprocal(b, MAX_ORDER)
    return a * r if r is not None and _finite(a) else None


def _shifted(s, c):
    return s


def _negated(s, c):
    return -s


# The slope of f op c and of c op f, as rule(s, c) of the slope s of f: a
# number c shifts the jet of f or scales it by c (or 1/c), and its
# derivative parts with it, exactly as it does the constant s.  A scaling
# that would leave the bits of evaluation (a non-finite factor, whose
# product with a zero part is NaN) gives None, and so does c / f.
_SLOPE_RULES = {
    operator.add: (_shifted, _shifted),
    operator.sub: (_shifted, _negated),
    operator.mul: (_constant_product, _constant_product),
    operator.truediv: (_constant_quotient, None),
}


def _affine(f, rule, c):
    """The slope of the field that acts on f by a constant c (a number or
    an (N,) array of row numbers), whose slope is ``rule(s, c)`` where f
    has the slope s (row by row, a row constant folded once per name,
    where s or c has rows); None when f has none, or when ``rule`` is
    None."""
    if f.slope is None or rule is None:
        return None
    rows = type(c) is np.ndarray and rule not in (_shifted, _negated)
    made = {}  # the row-constant slope along each name, built once to share its jets

    def slope(name):
        s = f.slope(name)
        if s is None:
            return None
        if rows or (type(s) is _RowConstant and rule not in (_shifted, _negated)):
            if name not in made:
                made[name] = Field.const(_folded(rule, s.rows if isinstance(s, Field) else s, c))
            return made[name]
        return rule(s, c)

    return slope


# ---------------------------------------------------------------------------
# deterministic guarded sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Guard:
    """Accept a point when ``predicate(point) > threshold``; over a batch,
    ``accepts`` gives the comparison row by row."""

    predicate: Field
    threshold: float
    label: str = ""

    def accepts(self, pt):
        return self.predicate.value(pt) > self.threshold


@dataclass(frozen=True)
class SampleDomain:
    """A coordinate box with guard predicates and a deterministic seed."""

    chart: tuple[str, ...]
    box: tuple[tuple[float, float], ...]
    guards: tuple[Guard, ...]
    seed: int
    count: int

    def __post_init__(self):
        if len(self.box) != len(self.chart):
            raise ValueError("box does not match chart dimension")


_MAX_DRAWS = 1_000_000
_BATCH = 512


@np.errstate(all="ignore")  # a guard value that is not finite is a rejection
def sample(domain):
    """Uniform points in the box, rejection-filtered by the guards: the
    PointBatch of the accepted rows.

    Draws come in batches of 512 rows, and rows are accepted in draw order
    up to ``count``.  Each guard is evaluated, value only, on a prefix of
    the batch sized to hold the rows still needed at the acceptance rate
    seen so far, and once more on the rest of the batch only if that
    prefix falls short; guard k sees only the rows that guards 0..k-1
    accepted.  If a guard raises on a batch, that batch is screened again
    row by row in draw order, so a row past the last one accepted never
    raises.  Each batch is screened in an evaluation scope of its own, so
    no guard evaluation outlives its batch or enters a scope open around
    the call.  Deterministic for a fixed seed.  Raises
    SamplingExhaustedError, with the number of draws each guard rejected,
    when the acceptance rate is below 1% after a million draws; a batch
    that can trigger it is screened whole, so those numbers do not depend
    on the prefix.  A guard value without the batch axis is that of every
    draw: when one rejects after guards that each accepted with one, no
    draw can pass, and the error comes after the first batch, with the
    numbers of a run to the cap (that guard rejected every draw).
    """
    rng = np.random.default_rng(domain.seed)
    lows = np.array([b[0] for b in domain.box])
    spans = np.array([b[1] for b in domain.box]) - lows
    if not np.isfinite(spans).all():
        raise OverflowError("Range exceeds valid bounds")
    accepted = [np.empty((0, len(domain.chart)))]  # the accepted rows of each batch
    taken = 0  # rows accepted so far
    rejected = [0] * len(domain.guards)
    passed = 0  # rows every guard accepted, past ``count`` included
    drawn = 0
    while taken < domain.count:
        # rng.uniform(lows, highs, size) computes this, from the same stream
        rows = lows + spans * rng.random((_BATCH, len(domain.chart)))
        drawn += _BATCH
        need = domain.count - taken
        prefix = (
            _prefix_rows(need, passed, passed + sum(rejected)) if drawn < _MAX_DRAWS else _BATCH
        )
        with evaluation_scope():
            try:
                keep, counts = _screen(domain, rows[:prefix])
                if len(keep) < need and prefix < _BATCH:
                    more, counts_more = _screen(domain, rows[prefix:])
                    keep = np.concatenate([keep, more + prefix])
                    counts = [a + b for a, b in zip(counts, counts_more)]
            except SamplingExhaustedError:
                raise
            except EwbenchError:
                keep, counts = _screen_rows(domain, rows, need)
        passed += len(keep)
        rejected = [a + b for a, b in zip(rejected, counts)]
        accepted.append(rows[keep[:need]])
        taken += len(accepted[-1])
        if drawn >= _MAX_DRAWS and taken < 0.01 * drawn:
            raise _exhausted(domain, taken, drawn, rejected)
    return PointBatch(domain.chart, np.concatenate(accepted))


def _exhausted(domain, taken, drawn, rejected):
    by_guard = ", ".join(
        f"{g.label or f'guard {k}'}: {n}" for k, (g, n) in enumerate(zip(domain.guards, rejected))
    )
    return SamplingExhaustedError(
        f"acceptance rate {taken}/{drawn} below 1% after {drawn} draws; rejected by {by_guard}"
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
    """Indices of the rows that every guard accepts, and how many rows each
    guard rejected; guard k sees only the rows guards 0..k-1 accepted.
    Raises SamplingExhaustedError when no draw can pass (see ``sample``)."""
    keep = np.arange(len(rows))
    counts = [0] * len(domain.guards)
    decided = True  # every guard so far accepted without the batch axis
    for k, g in enumerate(domain.guards):
        if not len(keep):
            break
        ok = g.accepts(PointBatch(domain.chart, rows[keep]))
        decided = decided and np.ndim(ok) == 0
        if decided and not ok:
            counts[k] = _BATCH * math.ceil(_MAX_DRAWS / _BATCH)
            raise _exhausted(domain, 0, counts[k], counts)
        ok = np.broadcast_to(ok, keep.shape)
        counts[k] = len(keep) - int(np.count_nonzero(ok))
        keep = keep[ok]
    return keep, counts


def _screen_rows(domain, rows, need):
    """``_screen`` one row at a time in draw order, stopping at the
    ``need``-th accepted row."""
    keep = []
    counts = [0] * len(domain.guards)
    for i, row in enumerate(rows):
        pt = ChartPoint(domain.chart, tuple(float(v) for v in row))
        for k, g in enumerate(domain.guards):
            if not g.accepts(pt):
                counts[k] += 1
                break
        else:
            keep.append(i)
            if len(keep) == need:
                break
    return keep, counts
