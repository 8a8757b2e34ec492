"""A small arithmetic expression language evaluated on jets.

Grammar (loosest to tightest binding): ``+ -``, then ``* /``, then unary
minus, then right-associative ``^``.  Identifiers must name either a chart
coordinate or a declared parameter; anything else is rejected at parse time
with its byte offset.  The function set is closed: ln, exp, sin, cos, sqrt,
tanh, cosh, sinh.  A number is ASCII digits with an optional fraction and
exponent (``2``, ``1.``, ``2.5e-3``); one past the float range is infinite.

An exponent that names no chart coordinate is evaluated once, as a number:
an integer one by repeated multiplication (so negative bases are fine), any
other needs a positive base.  An exponent that depends on the coordinates is
evaluated as exp(y ln x) at every order and needs a positive base too.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import jets
from .errors import ConfigError, DomainError, ExprSyntaxError, UnknownIdentifierError


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Const, Var, Neg, Bin, Call]

FUNCTIONS = {
    "ln": jets.log,
    "exp": jets.exp,
    "sin": jets.sin,
    "cos": jets.cos,
    "sqrt": jets.sqrt,
    "tanh": jets.tanh,
    "cosh": jets.cosh,
    "sinh": jets.sinh,
}


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # num | name | op | lparen | rparen | end
    text: str
    offset: int


# one group per token kind, tried in this order at each offset: a number is
# ASCII digits, an optional fraction and an exponent only when digits
# follow it ("2e" is the number 2 and the name e); a name is word
# characters that do not start with a decimal digit ("_b", "x2", and
# "²", which names no coordinate)
_TOKEN = re.compile(
    r"(?P<num>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)|(?P<name>[^\W\d]\w*)"
    r"|(?P<op>[-+*/^])|(?P<lparen>\()|(?P<rparen>\))|(?P<space>\s+)"
)


def _tokenize(source):
    tokens = []
    i = 0
    while i < len(source):
        m = _TOKEN.match(source, i)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {source[i]!r}", i)
        if m.lastgroup != "space":
            tokens.append(_Token(m.lastgroup, m.group(), i))
        i = m.end()
    tokens.append(_Token("end", "", len(source)))
    return tokens


# ---------------------------------------------------------------------------
# parser (precedence climbing)
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, source, variables):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.variables = frozenset(variables)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(f"expected {what}", tok.offset)
        return self.advance()

    def parse(self):
        e = self.parse_sum()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected {tok.text!r}", tok.offset)
        return e

    def parse_sum(self):
        return self.parse_left_assoc("+-", self.parse_product)

    def parse_product(self):
        return self.parse_left_assoc("*/", self.parse_unary)

    def parse_left_assoc(self, ops, parse_operand):
        left = parse_operand()
        while self.peek().kind == "op" and self.peek().text in ops:
            op = self.advance().text
            left = Bin(op, left, parse_operand())
        return left

    def parse_unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            # the exponent may start with a unary minus; ^ stays right-assoc
            return Bin("^", base, self.parse_unary())
        return base

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Const(float(tok.text))
        if tok.kind == "name":
            self.advance()
            if self.peek().kind == "lparen":
                if tok.text not in FUNCTIONS:
                    raise UnknownIdentifierError(tok.text, tok.offset)
                self.advance()
                arg = self.parse_sum()
                self.expect("rparen", "')'")
                return Call(tok.text, arg)
            if tok.text not in self.variables:
                raise UnknownIdentifierError(tok.text, tok.offset)
            return Var(tok.text)
        if tok.kind == "lparen":
            self.advance()
            e = self.parse_sum()
            self.expect("rparen", "')'")
            return e
        raise ExprSyntaxError(
            f"expected a value, got {tok.text!r}" if tok.text else "unexpected end of input",
            tok.offset,
        )


def parse(source, variables):
    """Parse ``source``; identifiers must appear in ``variables``."""
    return _Parser(source, variables).parse()


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def to_source(e):
    """Render ``e`` with minimal parentheses; reparsing gives an equal tree."""
    text, _ = _render(e)
    return text


def _render(e):
    if isinstance(e, Const):
        v = e.value
        # an infinite literal prints as one that parses back to it
        text = repr(int(v)) if abs(v) < 1e15 and v == int(v) else repr(v).replace("inf", "1e999")
        return text, _PREC["atom"]
    if isinstance(e, Var):
        return e.name, _PREC["atom"]
    if isinstance(e, Call):
        inner, _ = _render(e.arg)
        return f"{e.func}({inner})", _PREC["atom"]
    if isinstance(e, Neg):
        inner, prec = _render(e.arg)
        if prec < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}", _PREC["neg"]
    if isinstance(e, Bin):
        prec = _PREC[e.op]
        left, lp = _render(e.left)
        right, rp = _render(e.right)
        if e.op == "^":
            if lp <= prec:
                left = f"({left})"
            if rp < prec:
                right = f"({right})"
        else:
            if lp < prec:
                left = f"({left})"
            if rp <= prec:
                right = f"({right})"
        return f"{left}{e.op}{right}", prec
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# evaluation and rewriting
# ---------------------------------------------------------------------------


def eval_jet(e, pt, order=0):
    """Evaluate ``e`` at a chart point as a jet of the requested order.

    A literal is its constant jet, which the jet rules combine with the
    other operand.  The exponent of ``^`` is read as a number when it names
    no chart coordinate; a literal exponent is read without walking it."""
    if isinstance(e, Const):
        return jets.Jet.constant(e.value, pt.dim, order)
    if isinstance(e, Var):
        if e.name not in pt.chart:
            raise DomainError(f"no value for '{e.name}' at this point")
        idx = pt.chart.index(e.name)
        return jets.Jet.variable(pt.coords[idx], idx, pt.dim, order)
    if isinstance(e, Neg):
        return -eval_jet(e.arg, pt, order)
    if isinstance(e, Bin):
        left = eval_jet(e.left, pt, order)
        if e.op == "^" and isinstance(e.right, Const):
            right = e.right.value
        elif e.op == "^" and free_names(e.right).isdisjoint(pt.chart):
            right = eval_jet(e.right, pt, 0).value
        else:
            right = eval_jet(e.right, pt, order)
        try:
            if e.op == "+":
                return left + right
            if e.op == "-":
                return left - right
            if e.op == "*":
                return left * right
            if e.op == "/":
                return left / right
            if isinstance(right, float):
                return left**right
            if jets.anywhere(left.value <= 0.0):
                raise DomainError("general power needs a positive base")
            return jets.exp(right * jets.log(left))
        except DomainError as err:
            if err.subexpr is None:
                raise DomainError(str(err), to_source(e)) from None
            raise
    if isinstance(e, Call):
        arg = eval_jet(e.arg, pt, order)
        try:
            return FUNCTIONS[e.func](arg)
        except DomainError as err:
            if err.subexpr is None:
                raise DomainError(str(err), to_source(e)) from None
            raise
    raise TypeError(f"not an expression node: {e!r}")


def _children(e):
    """(the leading fields of a non-Var node ``e`` that are not expressions,
    its subexpressions): ``type(e)(*fixed, *children)`` builds it again."""
    if isinstance(e, Bin):
        return (e.op,), (e.left, e.right)
    if isinstance(e, Call):
        return (e.func,), (e.arg,)
    if isinstance(e, Neg):
        return (), (e.arg,)
    if isinstance(e, Const):
        return (e.value,), ()
    raise TypeError(f"not an expression node: {e!r}")


def substitute(e, name, replacement):
    """Replace every Var named ``name`` with the expression ``replacement``."""
    if isinstance(e, Var):
        return replacement if e.name == name else e
    fixed, children = _children(e)
    return type(e)(*fixed, *(substitute(c, name, replacement) for c in children))


def free_names(e):
    """The set of variable names appearing in ``e``."""
    if isinstance(e, Var):
        return {e.name}
    names = set()
    for child in _children(e)[1]:
        names |= free_names(child)
    return names


def to_field(e):
    """Wrap an expression as a scalar field.

    A variable-free expression whose jet through ``MAX_ORDER`` evaluates
    without DomainError and with every part finite is the constant field
    of its value, which field algebra folds.  Any other expression is
    evaluated lazily at each point, so ``1/0``, ``exp(800)`` and
    ``1/1e-300`` (past order 0) fail there as they always did.
    """
    jet = _constant_jet(e)
    if jet is not None and all(np.isfinite(p).all() for p in jet.parts):
        return jets.Field.const(jet.value)
    return jets.Field(lambda pt, order=0: eval_jet(e, pt, order))


def _constant_jet(e):
    """The jet through ``MAX_ORDER`` of a variable-free ``e``, or None."""
    if free_names(e):
        return None
    with np.errstate(all="ignore"):
        try:
            return eval_jet(e, jets.point(("x",), 0.0), jets.MAX_ORDER)
        except DomainError:
            return None


def refuse_nonfinite(e, name):
    """``e``, or a ConfigError naming ``name`` when ``e`` is a constant
    whose value is not finite; one whose evaluation raises keeps that."""
    jet = _constant_jet(e)
    if jet is not None and not math.isfinite(jet.value):
        raise ConfigError(f"{name} must be finite, got {float(jet.value)!r}")
    return e


def parse_field(source, variables):
    """Parse and wrap in one step."""
    return to_field(parse(source, variables))
