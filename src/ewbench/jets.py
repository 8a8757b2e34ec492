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
identical.  Those scalar derivatives come from Python's ``math`` module,
row by row over a batch, never from numpy's CPU-dispatched SIMD loops.

A Python number in jet arithmetic is not lifted to a constant jet for a
full Leibniz product: it shifts the value (``+ -``) or scales every part
(``* /``, dividing by c as scaling by 1/c).  The full product would add
only exact zeros, so the parts are the same apart from the sign of a zero;
a jet with a part below the top one that is not finite, where 0 * inf
spreads NaN, is still multiplied in full.

A :class:`Field` is a lazily evaluated scalar function of a point or a
batch of points; requesting a derivative field lowers the maximum order
that can be evaluated by one, which is how the order cap stays honest.
Constant fields know their number, and field algebra folds them: a
constant applied to a field acts on that field's jet as a number does,
and two constants make a constant.  No operand that is present is
skipped: a field times the constant 0 still evaluates the field, so
inf * 0 stays NaN.

Field evaluations are memoized on the exact ``(field, point, order)`` in the
open :func:`evaluation_scope`, so shared subexpressions are evaluated once.
``report.run_check`` is the one loop over sample or probe points: it
evaluates each check once over the batch of all its points, in one scope.
A call made with no scope open gets one for its own duration.  The memo is
a context variable, never shared between threads.

The module also provides the independent finite-difference oracle used to
cross-check jet output, and deterministic rejection sampling of guarded
coordinate boxes.
"""
from __future__ import annotations

import math
import operator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    EwbenchError,
    GuardViolationError,
    JetOrderError,
    SamplingExhaustedError,
)

MAX_ORDER = 3

__all__ = [
    "MAX_ORDER",
    "Jet",
    "ChartPoint",
    "PointBatch",
    "pack",
    "anywhere",
    "first_where",
    "Field",
    "evaluation_scope",
    "Guard",
    "SampleDomain",
    "sample",
    "fd_oracle",
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


class _Coordinates:
    """What field code reads from a point or a batch: ``chart``, ``coords``
    (one entry per chart coordinate) and ``shape``, the batch shape."""

    __slots__ = ()

    @property
    def dim(self):
        return len(self.chart)

    def coord(self, name):
        return self.coords[self.chart.index(name)]

    def with_coord(self, index, value):
        coords = list(self.coords)
        coords[index] = value
        return self.on_chart(self.chart, coords)


@dataclass(frozen=True)
class ChartPoint(_Coordinates):
    """A point of a coordinate chart: ``coords`` along the names in ``chart``."""

    chart: tuple[str, ...]
    coords: tuple[float, ...]

    # everything evaluated at a single point has no batch axis
    shape = ()

    def __post_init__(self):
        if len(self.chart) != len(self.coords):
            raise ValueError("coordinate count does not match chart")

    @classmethod
    def make(cls, chart, coords):
        return cls(tuple(chart), tuple(float(c) for c in coords))

    @classmethod
    def on_chart(cls, chart, coords):
        """The point with ``coords`` along ``chart``."""
        return cls.make(chart, coords)


class PointBatch(_Coordinates):
    """N points of one chart, evaluated together.

    ``rows[i]`` holds the coordinates of point i and ``coords[k]`` is the
    (N,) array of coordinate k, so field code that reads ``pt.coords[k]``
    and ``pt.dim`` serves a point and a batch alike; ``shape`` is (N,).
    Like a ChartPoint, a batch hashes and compares by value, so the field
    memo shares evaluations between equal batches.  Its arrays are
    read-only.
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
        """The batch of the ChartPoints ``points`` (one chart), in order."""
        return cls(points[0].chart, [q.coords for q in points])

    @staticmethod
    def on_chart(chart, coords):
        """The batch with the (N,) arrays ``coords`` along ``chart``."""
        return PointBatch(chart, np.stack(coords, axis=-1))

    @property
    def shape(self):
        return (len(self.rows),)

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


def pack(pt, values):
    """``values`` at ``pt`` as one array with the batch axis first, of shape
    ``pt.shape + (len(values),)``; a value without the batch axis (a
    constant) is repeated over the batch."""
    out = np.empty(pt.shape + (len(values),))
    for i, v in enumerate(values):
        out[..., i] = v
    return out


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

    # -- arithmetic (a Python number acts as its constant jet; see above) ----

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
        return self if c == 1.0 else Jet([p * c for p in parts])

    def __add__(self, other):
        if isinstance(other, (int, float)):
            return Jet([self.parts[0] + float(other), *self.parts[1:]])
        if not isinstance(other, Jet):
            return NotImplemented
        return Jet([a + b for a, b in zip(self.parts, other.parts)])

    __radd__ = __add__

    def __neg__(self):
        return Jet([-p for p in self.parts])

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return Jet([self.parts[0] - float(other), *self.parts[1:]])
        if not isinstance(other, Jet):
            return NotImplemented
        return Jet([a - b for a, b in zip(self.parts, other.parts)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            c = float(other)
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
            parts.append(
                a[2] * _scaler(b0, 2)
                + a[1][..., :, None] * b[1][..., None, :]
                + b[1][..., :, None] * a[1][..., None, :]
                + _scaler(a0, 2) * b[2]
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
        if not isinstance(other, (int, float)):
            return NotImplemented
        return _times(float(other), self)

    def reciprocal(self):
        v = self.value
        if anywhere(v == 0.0):
            raise DomainError("division by zero")
        f = _derivatives(_reciprocal_series, v, self.order + 1)
        if f is None:
            raise DomainError(f"reciprocal of {v!r} leaves the float range")
        return self.compose(*f)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            c = float(other)

            def full():
                return self * self._constant_like(c).reciprocal()

            r = _finite_reciprocal(c, self.order)
            return full() if r is None else self._scaled(r, full)
        if not isinstance(other, Jet):
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        if not isinstance(other, (int, float)):
            return NotImplemented
        return _times(float(other), self.reciprocal())

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            return NotImplemented
        if float(exponent).is_integer():
            return self._int_pow(int(exponent))
        return self._float_pow(float(exponent))

    def _int_pow(self, k):
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


def _times(c, jet):
    """The number c times ``jet``: ``jet`` scaled by c, or the full product
    with the constant jet of c as its left operand."""
    return jet._scaled(c, lambda: jet._constant_like(c) * jet)


def _finite_reciprocal(c, order):
    """1/c when the derivatives of 1/x at c through ``order`` (those that
    ``Jet.reciprocal`` computes) are finite: then the reciprocal of the
    constant jet of c is 1/c with zero derivatives, and dividing by c is
    scaling by 1/c.  None otherwise, c = 0 included."""
    if c == 0.0:
        return None
    f = _derivatives(_reciprocal_series, c, order + 1)
    if f is None or not all(map(math.isfinite, f)):
        return None
    return f[0]


def _sym_hg(hess, grad):
    """Symmetrized hess (x) grad: H_ij g_k + H_ik g_j + H_jk g_i."""
    return (
        hess[..., :, :, None] * grad[..., None, None, :]
        + hess[..., :, None, :] * grad[..., None, :, None]
        + hess[..., None, :, :] * grad[..., :, None, None]
    )


def _derivatives(series, v, *args):
    """``series(v, *args)``: the derivatives of a smooth function at the value
    v, computed with Python floats and the ``math`` module.  Over a batch, v
    is an (N,) array: series runs on the float of each row and each
    derivative is stacked into an (N,) array, so row i has the bits of point
    i alone, and no value depends on the SIMD loops numpy picks for the CPU.
    None when a derivative leaves the float range (an overflow, a division
    by zero, or the sine of infinity)."""
    try:
        if type(v) is float:
            return series(v, *args)
        return [np.array(f) for f in zip(*(series(x, *args) for x in v.tolist()))]
    except (OverflowError, ZeroDivisionError, ValueError):
        return None


def _reciprocal_series(v, count):
    """The first ``count`` of 1/v, -1/v^2, 2/v^3, -6/v^4: the derivatives of
    1/x at v, computed only as far as they are read."""
    return [_over_power(c, v, k + 1) for k, c in enumerate((1.0, -1.0, 2.0, -6.0)[:count])]


def _over_power(c, v, k):
    """c / v^k; where v^k overflows, c (1/v)^k, which only underflows."""
    try:
        return c / v**k
    except OverflowError:
        return c * (1.0 / v) ** k


def _power_series(v, c, order):
    # d^k/dv^k v^c = c (c-1) ... (c-k+1) v^(c-k)
    f, factor = [], 1.0
    for k in range(order + 1):
        f.append(factor * v ** (c - k))
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
    return [math.exp(v)] * (order + 1)


def _log_series(v, order):
    if v <= 0.0:
        raise DomainError("log of a non-positive value")
    return [math.log(v), *_reciprocal_series(v, order)]


def _sqrt_series(v, order):
    if v <= 0.0:
        raise DomainError("sqrt of a non-positive value")
    s = math.sqrt(v)
    # the derivatives 0.5/s, -0.25/(v s), 0.375/(v^2 s), only as far as read
    pairs = zip((0.5, -0.25, 0.375)[:order], (s, v * s, v * v * s))
    return [s, *(c / d for c, d in pairs)]


def _sin_series(v, order):
    s, c = math.sin(v), math.cos(v)
    return [s, c, -s, -c]


def _cos_series(v, order):
    s, c = math.sin(v), math.cos(v)
    return [c, -s, -c, s]


def _sinh_series(v, order):
    s, c = math.sinh(v), math.cosh(v)
    return [s, c, s, c]


def _cosh_series(v, order):
    s, c = math.sinh(v), math.cosh(v)
    return [c, s, c, s]


def _tanh_series(v, order):
    t = math.tanh(v)
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


# memo of the open evaluation scope: (field, point, order) -> jet
_SCOPE = ContextVar("ewbench_evaluation_scope", default=None)


@contextmanager
def evaluation_scope():
    """Share field evaluations made inside the block; forget them after it."""
    token = _SCOPE.set({})
    try:
        yield
    finally:
        _SCOPE.reset(token)


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
    """

    __slots__ = ("fn", "number")

    def __init__(self, fn):
        self.fn = fn
        self.number = None

    def __call__(self, pt, order=0):
        memo = _SCOPE.get()
        if memo is None:
            with evaluation_scope():
                return self(pt, order)
        key = (self, pt, order)
        jet = memo.get(key)
        if jet is None:
            jet = memo[key] = self.fn(pt, order)
        return jet

    @staticmethod
    def const(value):
        v = float(value)
        field = Field(lambda pt, order=0: Jet.constant(v, pt.dim, order))
        field.number = v
        return field

    @staticmethod
    def coordinate(name):
        def fn(pt, order=0):
            idx = pt.chart.index(name)
            return Jet.variable(pt.coords[idx], idx, pt.dim, order)

        return Field(fn)

    def d(self, name):
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

    @staticmethod
    def _lift(other):
        if isinstance(other, Field):
            return other
        if isinstance(other, (int, float)):
            return Field.const(other)
        return None

    def _fold(self, other, op, constant):
        """``op`` pointwise on self and ``other``.  Two constants make the
        constant ``constant(a, b)`` unless that is None; otherwise a number
        among the operands acts on the other operand's jet directly."""
        o = Field._lift(other)
        if o is None:
            return NotImplemented
        a, b = self.number, o.number
        if a is not None and b is not None:
            c = constant(a, b)
            if c is not None:
                return Field.const(c)
        if b is not None:
            return Field(lambda pt, order=0: op(self(pt, order), b))
        if a is not None:
            return Field(lambda pt, order=0: op(a, o(pt, order)))
        return Field(lambda pt, order=0: op(self(pt, order), o(pt, order)))

    def __add__(self, other):
        return self._fold(other, operator.add, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._fold(other, operator.sub, operator.sub)

    def __rsub__(self, other):
        o = Field._lift(other)
        return NotImplemented if o is None else o - self

    def __mul__(self, other):
        return self._fold(other, operator.mul, _constant_product)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._fold(other, operator.truediv, _constant_quotient)

    def __rtruediv__(self, other):
        o = Field._lift(other)
        return NotImplemented if o is None else o / self

    def __neg__(self):
        if self.number is not None:
            return Field.const(-self.number)
        return Field(lambda pt, order=0: -self(pt, order))


# The product of constant jets has zero derivative parts only when both
# values are finite (0 * inf is NaN), and the quotient only when the
# divisor's reciprocal jet is 1/b with zero derivatives; otherwise the
# constants are left to evaluation.


def _constant_product(a, b):
    return a * b if math.isfinite(a) and math.isfinite(b) else None


def _constant_quotient(a, b):
    r = _finite_reciprocal(b, MAX_ORDER)
    return a * r if r is not None and math.isfinite(a) else None


ZERO_FIELD = Field.const(0.0)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

FD_STEP_SCALE = 1e-4


def _fd_step(x):
    return FD_STEP_SCALE * np.maximum(1.0, np.abs(x))


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
            fp1 = deriv(q.with_coord(axis, x + h), rest)
            fp2 = deriv(q.with_coord(axis, x + 2 * h), rest)
            fm1 = deriv(q.with_coord(axis, x - h), rest)
            fm2 = deriv(q.with_coord(axis, x - 2 * h), rest)
            return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)
        fp = deriv(q.with_coord(axis, x + h), rest)
        fm = deriv(q.with_coord(axis, x - h), rest)
        return (fp - fm) / (2.0 * h)

    return deriv(pt, axes)


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
    """Uniform points in the box, rejection-filtered by the guards.

    Draws come in batches of 512 rows, and rows are accepted in draw order
    up to ``count``.  Each guard is evaluated, value only, on a prefix of
    the batch sized to hold the rows still needed at the acceptance rate
    seen so far, and once more on the rest of the batch only if that
    prefix falls short; guard k sees only the rows that guards 0..k-1
    accepted.  If a guard raises on a batch, that batch is screened again
    row by row in draw order, so a row past the last one accepted never
    raises.  Deterministic for a fixed seed.  Raises
    SamplingExhaustedError, with the number of draws each guard rejected,
    when the acceptance rate is below 1% after a million draws; a batch
    that can trigger it is screened whole, so those numbers do not depend
    on the prefix.
    """
    rng = np.random.default_rng(domain.seed)
    lows = np.array([b[0] for b in domain.box])
    highs = np.array([b[1] for b in domain.box])
    accepted = []
    rejected = [0] * len(domain.guards)
    passed = 0  # rows every guard accepted, past ``count`` included
    drawn = 0
    while len(accepted) < domain.count:
        rows = rng.uniform(lows, highs, size=(_BATCH, len(domain.chart)))
        drawn += _BATCH
        need = domain.count - len(accepted)
        prefix = (
            _prefix_rows(need, passed, passed + sum(rejected)) if drawn < _MAX_DRAWS else _BATCH
        )
        try:
            keep, counts = _screen(domain, rows[:prefix])
            if len(keep) < need and prefix < _BATCH:
                more, counts_more = _screen(domain, rows[prefix:])
                keep = np.concatenate([keep, more + prefix])
                counts = [a + b for a, b in zip(counts, counts_more)]
        except EwbenchError:
            keep, counts = _screen_rows(domain, rows, need)
        passed += len(keep)
        rejected = [a + b for a, b in zip(rejected, counts)]
        accepted.extend(
            ChartPoint(domain.chart, tuple(float(v) for v in rows[i])) for i in keep[:need]
        )
        if drawn >= _MAX_DRAWS and len(accepted) < 0.01 * drawn:
            by_guard = ", ".join(
                f"{g.label or f'guard {k}'}: {n}"
                for k, (g, n) in enumerate(zip(domain.guards, rejected))
            )
            raise SamplingExhaustedError(
                f"acceptance rate {len(accepted)}/{drawn} below 1% "
                f"after {drawn} draws; rejected by {by_guard}"
            )
    return accepted


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
    guard rejected; guard k sees only the rows guards 0..k-1 accepted."""
    keep = np.arange(len(rows))
    counts = [0] * len(domain.guards)
    for k, g in enumerate(domain.guards):
        if not len(keep):
            break
        ok = np.broadcast_to(g.accepts(PointBatch(domain.chart, rows[keep])), keep.shape)
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


def require_guards(domain, pt):
    """Raise GuardViolationError if ``pt`` fails any guard of ``domain``."""
    for g in domain.guards:
        if not g.accepts(pt):
            label = g.label or "guard"
            raise GuardViolationError(f"point {pt.coords} violates {label}")
