"""A small arithmetic expression language evaluated on jets.

Grammar (loosest to tightest binding): ``+ -``, then ``* /``, then unary
minus, then right-associative ``^``.  Identifiers must name either a chart
coordinate or a declared parameter; anything else is rejected at parse time
with its byte offset.  The function set is closed: ln, exp, sin, cos, sqrt,
tanh, cosh, sinh.

An exponent that names no chart coordinate is evaluated once, as a number:
an integer one by repeated multiplication (so negative bases are fine), any
other needs a positive base.  An exponent that depends on the coordinates is
evaluated as exp(y ln x) at every order and needs a positive base too.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import jets
from .errors import DomainError, ExprSyntaxError, UnknownIdentifierError

__all__ = [
    "Const",
    "Var",
    "Neg",
    "Bin",
    "Call",
    "Expr",
    "FUNCTIONS",
    "parse",
    "to_source",
    "eval_jet",
    "substitute",
    "to_field",
    "free_names",
]


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


def _is_name_start(ch):
    return ch.isalpha() or ch == "_"


def _is_name_char(ch):
    return ch.isalnum() or ch == "_"


def _tokenize(source):
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == ".":
                i += 1
                while i < n and source[i].isdigit():
                    i += 1
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j].isdigit():
                    i = j
                    while i < n and source[i].isdigit():
                        i += 1
            tokens.append(_Token("num", source[start:i], start))
            continue
        if _is_name_start(ch):
            start = i
            while i < n and _is_name_char(source[i]):
                i += 1
            tokens.append(_Token("name", source[start:i], start))
            continue
        if ch in "+-*/^":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token("lparen", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("rparen", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
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
        left = self.parse_product()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            right = self.parse_product()
            left = Bin(op, left, right)
        return left

    def parse_product(self):
        left = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            right = self.parse_unary()
            left = Bin(op, left, right)
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
            exponent = self.parse_unary_in_exponent()
            return Bin("^", base, exponent)
        return base

    def parse_unary_in_exponent(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.parse_unary_in_exponent())
        return self.parse_power()

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
        text = repr(int(v)) if v == int(v) and abs(v) < 1e15 else repr(v)
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
    """Evaluate ``e`` at a chart point as a jet of the requested order."""
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
        if e.op == "^" and free_names(e.right).isdisjoint(pt.chart):
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


def substitute(e, name, replacement):
    """Replace every Var named ``name`` with the expression ``replacement``."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return replacement if e.name == name else e
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, name, replacement))
    if isinstance(e, Bin):
        return Bin(e.op, substitute(e.left, name, replacement), substitute(e.right, name, replacement))
    if isinstance(e, Call):
        return Call(e.func, substitute(e.arg, name, replacement))
    raise TypeError(f"not an expression node: {e!r}")


def free_names(e):
    """The set of variable names appearing in ``e``."""
    if isinstance(e, Const):
        return set()
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Neg):
        return free_names(e.arg)
    if isinstance(e, Bin):
        return free_names(e.left) | free_names(e.right)
    if isinstance(e, Call):
        return free_names(e.arg)
    raise TypeError(f"not an expression node: {e!r}")


def to_field(e):
    """Wrap an expression as a scalar field.

    A variable-free expression whose jet through ``MAX_ORDER`` evaluates
    without DomainError and with every part finite is the constant field
    of its value, which field algebra folds.  Any other expression is
    evaluated lazily at each point, so ``1/0``, ``exp(800)`` and
    ``1/1e-300`` (past order 0) fail there as they always did.
    """
    if not free_names(e):
        with np.errstate(all="ignore"):
            try:
                jet = eval_jet(e, jets.point(("x",), 0.0), jets.MAX_ORDER)
            except DomainError:
                jet = None
        if jet is not None and all(np.isfinite(p).all() for p in jet.parts):
            return jets.Field.const(jet.value)
    return jets.Field(lambda pt, order=0: eval_jet(e, pt, order))


def parse_field(source, variables):
    """Parse and wrap in one step."""
    return to_field(parse(source, variables))
