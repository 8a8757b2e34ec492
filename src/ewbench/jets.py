"""Order-3 multivariate jets and scalar fields over chart points.

A :class:`Jet` holds a value together with its partial derivatives through a
requested order (at most 3) at a single point: exactly ``order + 1`` parts,
and nothing above the order.  Arithmetic propagates derivatives exactly
(Leibniz and chain rules); there is no truncation error, only rounding.  Each
part depends only on the parts of its operands up to its own order, and a
smooth-function rule computes its scalar derivatives only that far, so the
parts a jet shares with a higher-order jet of the same field are identical.

A :class:`Field` is a lazily evaluated scalar function of a
:class:`ChartPoint`; requesting a derivative field lowers the maximum order
that can be evaluated by one, which is how the order cap stays honest.

Field evaluations are memoized on the exact ``(field, point, order)`` in the
open :func:`evaluation_scope`, so shared subexpressions are evaluated once.
``report.run_check`` is the one loop over sample or probe points and opens
the scope for each point; a call made with no scope open gets one for its
own duration.  The memo is a context variable, never shared between threads.

The module also provides the independent finite-difference oracle used to
cross-check jet output, and deterministic rejection sampling of guarded
coordinate boxes.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    GuardViolationError,
    JetOrderError,
    SamplingExhaustedError,
)

MAX_ORDER = 3

__all__ = [
    "MAX_ORDER",
    "Jet",
    "ChartPoint",
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
# chart points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChartPoint:
    """A point of a coordinate chart: ``coords`` along the names in ``chart``."""

    chart: tuple[str, ...]
    coords: tuple[float, ...]

    def __post_init__(self):
        if len(self.chart) != len(self.coords):
            raise ValueError("coordinate count does not match chart")

    @classmethod
    def make(cls, chart, coords):
        return cls(tuple(chart), tuple(float(c) for c in coords))

    @property
    def dim(self):
        return len(self.chart)

    def coord(self, name):
        return self.coords[self.chart.index(name)]

    def with_coord(self, index, value):
        coords = list(self.coords)
        coords[index] = value
        return ChartPoint(self.chart, tuple(coords))


def point(chart, *coords):
    """Convenience constructor: ``point(("x","y","t"), 1, 2, 3)``."""
    return ChartPoint.make(chart, coords)


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


class Jet:
    """A value and its symmetric derivative arrays through ``order`` (0..3).

    ``parts`` holds exactly ``order + 1`` derivative parts: ``parts[0]`` is
    the value, a Python float, and ``parts[k]`` is the array of k-th partial
    derivatives, of shape ``(n,) * k`` for a chart of dimension n.  Nothing
    above the order is stored; reading ``grad``, ``hess`` or ``third`` above
    it raises :class:`JetOrderError`.  Jets are shared by the field memo, so
    they are never mutated after construction.
    """

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = (float(parts[0]), *parts[1:])

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

    def _constant_like(self, value):
        return Jet([value] + [np.zeros_like(p) for p in self.parts[1:]])

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
        return Jet([p[index] for p in self.parts[1:]])

    # -- arithmetic ----------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, Jet):
            return other
        if isinstance(other, (int, float)):
            return self._constant_like(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Jet([a + b for a, b in zip(self.parts, o.parts)])

    __radd__ = __add__

    def __neg__(self):
        return Jet([-p for p in self.parts])

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Jet([a - b for a, b in zip(self.parts, o.parts)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b = self.parts, o.parts
        order = min(len(a), len(b)) - 1
        a0, b0 = a[0], b[0]
        parts = [a0 * b0]
        if order >= 1:
            parts.append(a[1] * b0 + a0 * b[1])
        if order >= 2:
            parts.append(
                a[2] * b0
                + np.outer(a[1], b[1])
                + np.outer(b[1], a[1])
                + a0 * b[2]
            )
        if order >= 3:
            parts.append(
                a[3] * b0
                + _sym_hg(a[2], b[1])
                + _sym_hg(b[2], a[1])
                + a0 * b[3]
            )
        return Jet(parts)

    __rmul__ = __mul__

    def reciprocal(self):
        v = self.value
        if v == 0.0:
            raise DomainError("division by zero")
        try:
            return self.compose(*_reciprocal_series(v, self.order + 1))
        except (OverflowError, ZeroDivisionError):
            raise DomainError(f"reciprocal of {v!r} leaves the float range") from None

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.reciprocal()

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
        if self.value <= 0.0:
            raise DomainError("non-integer power needs a positive base")
        v = self.value
        f, factor = [], 1.0
        try:
            # d^k/dv^k v^c = c (c-1) ... (c-k+1) v^(c-k)
            for k in range(self.order + 1):
                f.append(factor * v ** (c - k))
                factor *= c - k
        except (OverflowError, ZeroDivisionError):
            raise DomainError(f"power {c!r} of {v!r} leaves the float range") from None
        return self.compose(*f)

    # -- composition with a smooth unary function ---------------------------

    def compose(self, *f):
        """Chain rule: the jet of g(self) given ``f[k]``, the k-th derivative
        of g at the value; only ``f[0]`` through ``f[order]`` are read."""
        a = self.parts
        order = len(a) - 1
        parts = [f[0]]
        if order >= 1:
            g = a[1]
            parts.append(f[1] * g)
        if order >= 2:
            parts.append(f[2] * np.outer(g, g) + f[1] * a[2])
        if order >= 3:
            parts.append(
                f[3] * np.einsum("i,j,k->ijk", g, g, g)
                + f[2] * _sym_hg(a[2], g)
                + f[1] * a[3]
            )
        return Jet(parts)


def _sym_hg(hess, grad):
    """Symmetrized hess (x) grad: H_ij g_k + H_ik g_j + H_jk g_i."""
    return (
        np.einsum("ij,k->ijk", hess, grad)
        + np.einsum("ik,j->ijk", hess, grad)
        + np.einsum("jk,i->ijk", hess, grad)
    )


def _reciprocal_series(v, count):
    """The first ``count`` of 1/v, -1/v^2, 2/v^3, -6/v^4: the derivatives of
    1/x at v, computed only as far as they are read."""
    return [c / v ** (k + 1) for k, c in enumerate((1.0, -1.0, 2.0, -6.0)[:count])]


# ---------------------------------------------------------------------------
# smooth functions, polymorphic over Jet / Field
# ---------------------------------------------------------------------------


def _unary(jet_rule):
    def apply(x):
        if isinstance(x, Field):
            return Field(lambda pt, order=0: apply(x(pt, order)))
        try:
            return jet_rule(x)
        except (OverflowError, ZeroDivisionError, ValueError):
            # ValueError: math.sin and math.cos of an infinite value
            raise DomainError(f"value {x.value!r} leaves the float range") from None

    return apply


def _exp_rule(j):
    v = math.exp(j.value)
    return j.compose(v, v, v, v)


def _log_rule(j):
    v = j.value
    if v <= 0.0:
        raise DomainError("log of a non-positive value")
    return j.compose(math.log(v), *_reciprocal_series(v, j.order))


def _sqrt_rule(j):
    v = j.value
    if v <= 0.0:
        raise DomainError("sqrt of a non-positive value")
    s = math.sqrt(v)
    # the derivatives 0.5/s, -0.25/(v s), 0.375/(v^2 s), only as far as read
    pairs = zip((0.5, -0.25, 0.375)[: j.order], (s, v * s, v * v * s))
    return j.compose(s, *(c / d for c, d in pairs))


def _sin_rule(j):
    s, c = math.sin(j.value), math.cos(j.value)
    return j.compose(s, c, -s, -c)


def _cos_rule(j):
    s, c = math.sin(j.value), math.cos(j.value)
    return j.compose(c, -s, -c, s)


def _sinh_rule(j):
    s, c = math.sinh(j.value), math.cosh(j.value)
    return j.compose(s, c, s, c)


def _cosh_rule(j):
    s, c = math.sinh(j.value), math.cosh(j.value)
    return j.compose(c, s, c, s)


def _tanh_rule(j):
    t = math.tanh(j.value)
    d1 = 1.0 - t * t
    return j.compose(t, d1, -2.0 * t * d1, d1 * (6.0 * t * t - 2.0))


exp = _unary(_exp_rule)
log = _unary(_log_rule)
sqrt = _unary(_sqrt_rule)
sin = _unary(_sin_rule)
cos = _unary(_cos_rule)
sinh = _unary(_sinh_rule)
cosh = _unary(_cosh_rule)
tanh = _unary(_tanh_rule)


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
    ``order``, computed at most once per evaluation scope; callers share the
    jet, so they must not mutate it.  Algebra on fields is pointwise;
    ``d(name)`` is the partial-derivative field along the named coordinate
    and needs the base to support one order more.
    """

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

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
        return Field(lambda pt, order=0: Jet.constant(v, pt.dim, order))

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

    def _binary(self, other, op):
        o = Field._lift(other)
        if o is None:
            return NotImplemented
        return Field(lambda pt, order=0: op(self(pt, order), o(pt, order)))

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._binary(other, lambda a, b: b / a)

    def __neg__(self):
        return Field(lambda pt, order=0: -self(pt, order))


ZERO_FIELD = Field.const(0.0)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

FD_STEP_SCALE = 1e-4


def _fd_step(x):
    return FD_STEP_SCALE * max(1.0, abs(x))


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
    """Accept a point when ``predicate(point) > threshold``."""

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


def sample(domain):
    """Uniform points in the box, rejection-filtered by the guards.

    Deterministic for a fixed seed.  Raises SamplingExhaustedError when the
    acceptance rate is below 1% after a million draws.
    """
    rng = np.random.default_rng(domain.seed)
    lows = np.array([b[0] for b in domain.box])
    highs = np.array([b[1] for b in domain.box])
    accepted = []
    drawn = 0
    while len(accepted) < domain.count:
        batch = rng.uniform(lows, highs, size=(_BATCH, len(domain.chart)))
        drawn += _BATCH
        for row in batch:
            pt = ChartPoint(domain.chart, tuple(float(v) for v in row))
            if all(g.accepts(pt) for g in domain.guards):
                accepted.append(pt)
                if len(accepted) == domain.count:
                    break
        if drawn >= _MAX_DRAWS and len(accepted) < 0.01 * drawn:
            raise SamplingExhaustedError(
                f"acceptance rate {len(accepted)}/{drawn} below 1% "
                f"after {drawn} draws"
            )
    return accepted


def require_guards(domain, pt):
    """Raise GuardViolationError if ``pt`` fails any guard of ``domain``."""
    for g in domain.guards:
        if not g.accepts(pt):
            label = g.label or "guard"
            raise GuardViolationError(f"point {pt.coords} violates {label}")
