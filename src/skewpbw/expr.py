"""Expression parsing and evaluation against a presentation.

Grammar (multiplication is noncommutative and order-preserving; there is no
juxtaposition and no division operator -- a slash is only legal inside an
integer fraction literal):

    sum     :=  item (('+' | '-') item)*
    item    :=  '-' item | product
    product :=  power ('*' power)*
    power   :=  atom ['^' ['-'] INT]
    atom    :=  INT ['/' INT] | IDENT | '(' sum ')'

'^' binds tighter than '*', '*' tighter than '+'; unary minus binds tighter
than '+' and looser than '*'.  Exponents are integer literals; a negative
exponent is accepted by the grammar but only evaluates on invertible
constants (Laurent generators and other units), never on variables.

Sums and products parse into flat nodes and a run of unary minus signs
folds into at most one negation, so long inputs need no deep recursion.
Parentheses nest at most MAX_NESTING deep, and an exponent on a
non-constant base must stay below EXPONENT_CAP; both limits are positioned
errors.  Constant bases are raised to any power in the coefficient ring.

Identifiers resolve, in order, against the presentation's variable names,
the positional aliases x1..xn, and the coefficient generators.  Canonical
printing uses the positional aliases, so printed normal forms re-parse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import EXPONENT_CAP, Poly
from .presentation import POSITIONAL_RE
from .rings import IDENT, NAME_RE, CoeffElem, CoeffRing, NotAUnitError

MAX_NESTING = 100


class ExprError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line} col {col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# tokens


@dataclass(frozen=True)
class Token:
    kind: str  # INT, IDENT, OP, END
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(rf"[0-9]+|{IDENT}|[-+*^()/]|\S")


def tokenize(src: str) -> list[Token]:
    out = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(src):
        ch = src[pos]
        if ch == "\n":
            line += 1
            line_start = pos + 1
            pos += 1
            continue
        if ch in " \t\r":
            pos += 1
            continue
        m = _TOKEN_RE.match(src, pos)
        text = m.group()
        col = pos - line_start + 1
        if text[0].isdigit():
            kind = "INT"
        elif NAME_RE.match(text):
            kind = "IDENT"
        elif text in "+-*^()/":
            kind = "OP"
        else:
            raise ExprError(f"unexpected character {text!r}", line, col)
        out.append(Token(kind, text, line, col))
        pos = m.end()
    out.append(Token("END", "", line, len(src) - line_start + 1))
    return out


# ---------------------------------------------------------------------------
# syntax tree


@dataclass(frozen=True)
class Num:
    value: Fraction
    line: int
    col: int


@dataclass(frozen=True)
class Coeff:
    name: str
    line: int
    col: int


@dataclass(frozen=True)
class VarRef:
    index: int
    line: int
    col: int


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Sum:
    items: tuple


@dataclass(frozen=True)
class Product:
    factors: tuple


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int
    line: int
    col: int


class _Parser:
    def __init__(self, tokens: list[Token], resolve):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.resolve = resolve

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_op(self, ops: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "OP" and tok.text in ops

    def expect_op(self, text: str) -> Token:
        tok = self.take()
        if tok.kind != "OP" or tok.text != text:
            raise ExprError(f"expected {text!r}, got {tok.text!r}", tok.line, tok.col)
        return tok

    def parse(self):
        e = self.sum()
        tok = self.peek()
        if tok.kind != "END":
            raise ExprError(f"unexpected {tok.text!r}", tok.line, tok.col)
        return e

    def sum(self):
        items = [self.item()]
        while self.at_op("+-"):
            op = self.take()
            rhs = self.item()
            items.append(rhs if op.text == "+" else Neg(rhs))
        return items[0] if len(items) == 1 else Sum(tuple(items))

    def item(self):
        negate = False
        while self.at_op("-"):
            self.take()
            negate = not negate
        e = self.product()
        return Neg(e) if negate else e

    def product(self):
        factors = [self.power()]
        while self.at_op("*"):
            self.take()
            factors.append(self.power())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def power(self):
        e = self.atom()
        if self.at_op("^"):
            caret = self.take()
            sign = 1
            if self.at_op("-"):
                self.take()
                sign = -1
            tok = self.take()
            if tok.kind != "INT":
                raise ExprError("exponent must be an integer literal", tok.line, tok.col)
            e = Pow(e, sign * int(tok.text), caret.line, caret.col)
        return e

    def atom(self):
        tok = self.take()
        if tok.kind == "INT":
            value = Fraction(int(tok.text))
            if self.at_op("/"):
                self.take()
                den = self.take()
                if den.kind != "INT":
                    raise ExprError("fraction needs an integer denominator", den.line, den.col)
                if int(den.text) == 0:
                    raise ExprError("zero denominator", den.line, den.col)
                value = Fraction(int(tok.text), int(den.text))
            return Num(value, tok.line, tok.col)
        if tok.kind == "IDENT":
            return self.resolve(tok)
        if tok.kind == "OP" and tok.text == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ExprError(
                    f"parentheses nested deeper than {MAX_NESTING}", tok.line, tok.col
                )
            e = self.sum()
            self.expect_op(")")
            self.depth -= 1
            return e
        raise ExprError(f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.col)


def _presentation_resolver(P):
    gens = set(P.ring.generator_names())

    def resolve(tok: Token):
        name = tok.text
        if name in P.var_names:
            return VarRef(P.var_names.index(name), tok.line, tok.col)
        m = POSITIONAL_RE.match(name)
        if m and 1 <= int(m.group(1)) <= P.n:
            return VarRef(int(m.group(1)) - 1, tok.line, tok.col)
        if name in gens:
            return Coeff(name, tok.line, tok.col)
        raise ExprError(f"unknown identifier {name!r}", tok.line, tok.col)

    return resolve


def _coeff_resolver(ring: CoeffRing):
    gens = set(ring.generator_names())

    def resolve(tok: Token):
        if tok.text in gens:
            return Coeff(tok.text, tok.line, tok.col)
        raise ExprError(f"unknown coefficient generator {tok.text!r}", tok.line, tok.col)

    return resolve


def parse(src: str, P) -> object:
    """Parse an expression over a presentation; identifiers are resolved
    eagerly so unknown names fail with a position."""
    return _Parser(tokenize(src), _presentation_resolver(P)).parse()


def parse_coeff(src: str, ring: CoeffRing) -> object:
    """Parse a coefficient-only expression (no variables)."""
    return _Parser(tokenize(src), _coeff_resolver(ring)).parse()


# ---------------------------------------------------------------------------
# evaluation


def eval_expr(e, target):
    """Value of a parsed expression: a Poly when ``target`` is a
    presentation, a CoeffElem when it is a coefficient ring."""
    coeff_only = isinstance(target, CoeffRing)
    ring = target if coeff_only else target.ring

    def lift(c):
        return c if coeff_only else Poly.const(target, c)

    def value(e):
        if isinstance(e, Num):
            return lift(ring.from_fraction(e.value))
        if isinstance(e, Coeff):
            return lift(ring.generator(e.name))
        if isinstance(e, VarRef):
            return Poly.variable(target, e.index)
        if isinstance(e, Neg):
            return -value(e.arg)
        if isinstance(e, Sum):
            out = value(e.items[0])
            for item in e.items[1:]:
                out = out + value(item)
            return out
        if isinstance(e, Product):
            out = value(e.factors[0])
            for factor in e.factors[1:]:
                out = out * value(factor)
            return out
        if isinstance(e, Pow):
            return _power(value(e.base), e)
        raise TypeError(f"not an expression node: {e!r}")

    return value(e)


def _power(base, e: Pow):
    k = e.exponent
    if isinstance(base, Poly):
        if base.is_constant():
            return Poly.const(base.pres, _power(base.constant_coeff(), e))
        if k < 0:
            raise ExprError("negative exponent needs an invertible constant", e.line, e.col)
        if k >= EXPONENT_CAP:
            raise ExprError(
                f"exponent {k} on a non-constant base must be below {EXPONENT_CAP}",
                e.line,
                e.col,
            )
        return base**k
    if k < 0:
        try:
            base = base.inverse()
        except NotAUnitError:
            raise ExprError(f"{base} is not invertible", e.line, e.col) from None
    return base ** abs(k)


def eval_str(src: str, P) -> Poly:
    return eval_expr(parse(src, P), P)


def coeff_from_str(src: str, ring: CoeffRing) -> CoeffElem:
    return eval_expr(parse_coeff(src, ring), ring)
