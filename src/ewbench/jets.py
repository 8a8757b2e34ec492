"""Order-3 multivariate jets and scalar fields over chart points.

A :class:`Jet` holds a value together with its partial derivatives through a
requested order (at most 3) at a single point.  Arithmetic propagates
derivatives exactly (Leibniz and chain rules); there is no truncation error,
only rounding.  A :class:`Field` is a lazily evaluated scalar function of a
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
    """A point of a coordinate chart, plus named constant parameters.

    ``chart`` is the ordered tuple of coordinate names; ``params`` holds
    constants (such as ell) that expressions may reference but that carry no
    derivatives.
    """

    chart: tuple[str, ...]
    coords: tuple[float, ...]
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if len(self.chart) != len(self.coords):
            raise ValueError("coordinate count does not match chart")

    @classmethod
    def make(cls, chart, coords, params=None):
        items = tuple(sorted((params or {}).items()))
        return cls(tuple(chart), tuple(float(c) for c in coords), items)

    @property
    def dim(self):
        return len(self.chart)

    def coord(self, name):
        return self.coords[self.chart.index(name)]

    def value_of(self, name):
        if name in self.chart:
            return self.coords[self.chart.index(name)]
        for key, val in self.params:
            if key == name:
                return val
        raise KeyError(name)

    def with_coord(self, index, value):
        coords = list(self.coords)
        coords[index] = value
        return ChartPoint(self.chart, tuple(coords), self.params)


def point(chart, *coords, **params):
    """Convenience constructor: ``point(("x","y","t"), 1, 2, 3, ell=1.0)``."""
    return ChartPoint.make(chart, coords, params)


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------


class Jet:
    """Value and symmetric derivative arrays through ``order`` (0..3).

    Arrays above ``order`` are kept zeroed and must not be read; the
    ``partial`` extractor enforces this by refusing to drop below order 0.
    """

    __slots__ = ("value", "grad", "hess", "third", "order")

    def __init__(self, value, grad, hess, third, order):
        self.value = float(value)
        self.grad = grad
        self.hess = hess
        self.third = third
        self.order = order

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, dim, order=MAX_ORDER):
        cls._check_order(order)
        n = dim
        return cls(
            value,
            np.zeros(n),
            np.zeros((n, n)),
            np.zeros((n, n, n)),
            order,
        )

    @classmethod
    def variable(cls, value, index, dim, order=MAX_ORDER):
        cls._check_order(order)
        j = cls.constant(value, dim, order)
        if order >= 1:
            j.grad[index] = 1.0
        return j

    @staticmethod
    def _check_order(order):
        if not 0 <= order <= MAX_ORDER:
            raise JetOrderError(f"jet order {order} outside 0..{MAX_ORDER}")

    @property
    def dim(self):
        return self.grad.shape[0]

    def __repr__(self):
        return f"Jet(value={self.value!r}, order={self.order}, dim={self.dim})"

    # -- derivative extraction ---------------------------------------------

    def partial(self, index):
        """The jet of the partial derivative along coordinate ``index``.

        Costs one order: the result is valid through ``order - 1``.
        """
        if self.order < 1:
            raise JetOrderError(
                "cannot extract a derivative from an order-0 jet; "
                "evaluate the base field at a higher order"
            )
        n = self.dim
        return Jet(
            self.grad[index],
            self.hess[index].copy(),
            self.third[index].copy(),
            np.zeros((n, n, n)),
            self.order - 1,
        )

    # -- arithmetic ----------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, Jet):
            return other
        if isinstance(other, (int, float)):
            return Jet.constant(float(other), self.dim, self.order)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        order = min(self.order, o.order)
        return Jet(
            self.value + o.value,
            self.grad + o.grad,
            self.hess + o.hess,
            self.third + o.third,
            order,
        )

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.value, -self.grad, -self.hess, -self.third, self.order)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        order = min(self.order, o.order)
        n = self.dim
        a0, b0 = self.value, o.value
        val = a0 * b0
        grad = np.zeros(n)
        hess = np.zeros((n, n))
        third = np.zeros((n, n, n))
        if order >= 1:
            grad = self.grad * b0 + a0 * o.grad
        if order >= 2:
            hess = (
                self.hess * b0
                + np.outer(self.grad, o.grad)
                + np.outer(o.grad, self.grad)
                + a0 * o.hess
            )
        if order >= 3:
            third = (
                self.third * b0
                + _sym_hg(self.hess, o.grad)
                + _sym_hg(o.hess, self.grad)
                + a0 * o.third
            )
        return Jet(val, grad, hess, third, order)

    __rmul__ = __mul__

    def reciprocal(self):
        v = self.value
        if v == 0.0:
            raise DomainError("division by zero")
        try:
            return self.compose(1.0 / v, -1.0 / v**2, 2.0 / v**3, -6.0 / v**4)
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
        result = Jet.constant(1.0, self.dim, self.order)
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
        try:
            return self.compose(
                v**c,
                c * v ** (c - 1),
                c * (c - 1) * v ** (c - 2),
                c * (c - 1) * (c - 2) * v ** (c - 3),
            )
        except (OverflowError, ZeroDivisionError):
            raise DomainError(f"power {c!r} of {v!r} leaves the float range") from None

    # -- composition with a smooth unary function ---------------------------

    def compose(self, f0, f1, f2, f3):
        """Chain rule: the jet of f(self) given scalar derivatives of f."""
        order = self.order
        n = self.dim
        grad = np.zeros(n)
        hess = np.zeros((n, n))
        third = np.zeros((n, n, n))
        if order >= 1:
            grad = f1 * self.grad
        if order >= 2:
            hess = f2 * np.outer(self.grad, self.grad) + f1 * self.hess
        if order >= 3:
            g = self.grad
            third = (
                f3 * np.einsum("i,j,k->ijk", g, g, g)
                + f2 * _sym_hg(self.hess, g)
                + f1 * self.third
            )
        return Jet(f0, grad, hess, third, order)


def _sym_hg(hess, grad):
    """Symmetrized hess (x) grad: H_ij g_k + H_ik g_j + H_jk g_i."""
    return (
        np.einsum("ij,k->ijk", hess, grad)
        + np.einsum("ik,j->ijk", hess, grad)
        + np.einsum("jk,i->ijk", hess, grad)
    )


# ---------------------------------------------------------------------------
# smooth functions, polymorphic over Jet / Field
# ---------------------------------------------------------------------------


def _unary(jet_rule):
    def apply(x):
        if isinstance(x, Field):
            return Field(lambda pt, order=0: apply(x(pt, order)))
        try:
            return jet_rule(x)
        except (OverflowError, ZeroDivisionError):
            raise DomainError(f"value {x.value!r} leaves the float range") from None

    return apply


def _exp_rule(j):
    v = math.exp(j.value)
    return j.compose(v, v, v, v)


def _log_rule(j):
    v = j.value
    if v <= 0.0:
        raise DomainError("log of a non-positive value")
    return j.compose(math.log(v), 1.0 / v, -1.0 / v**2, 2.0 / v**3)


def _sqrt_rule(j):
    v = j.value
    if v <= 0.0:
        raise DomainError("sqrt of a non-positive value")
    s = math.sqrt(v)
    return j.compose(s, 0.5 / s, -0.25 / (v * s), 0.375 / (v * v * s))


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


def sample(domain, params=None):
    """Uniform points in the box, rejection-filtered by the guards.

    Deterministic for a fixed seed.  Raises SamplingExhaustedError when the
    acceptance rate is below 1% after a million draws.
    """
    rng = np.random.default_rng(domain.seed)
    lows = np.array([b[0] for b in domain.box])
    highs = np.array([b[1] for b in domain.box])
    param_items = tuple(sorted((params or {}).items()))
    accepted = []
    drawn = 0
    while len(accepted) < domain.count:
        batch = rng.uniform(lows, highs, size=(_BATCH, len(domain.chart)))
        drawn += _BATCH
        for row in batch:
            pt = ChartPoint(domain.chart, tuple(float(v) for v in row), param_items)
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
