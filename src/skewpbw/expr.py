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

Each rule builds a deferred value (a thunk), and the whole input parses
before any of it is evaluated: a syntax error costs no arithmetic.  Sums
and products fold flat, left to right, and a run of unary minus signs
folds into at most one negation, so long inputs need no deep recursion.
Parentheses nest at most MAX_NESTING deep, an exponent on a non-constant
base must stay below EXPONENT_CAP, and a constant with more than one term
is raised only while its power's predicted size is at most
MAX_POWER_BITS; all three limits are positioned errors.  A one-term
constant takes any exponent.

Identifiers resolve, in order, against the presentation's variable names,
the positional aliases x1..xn, and the coefficient generators.  Canonical
printing uses the positional aliases, so printed normal forms re-parse.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import EXPONENT_CAP, Poly
from .presentation import POSITIONAL_RE
from .rings import IDENT, NAME_RE, QQ, CoeffElem, CoeffRing, NotAUnitError, flat_terms

MAX_NESTING = 100
# a bound on terms times coefficient bits of a multi-term constant's power
MAX_POWER_BITS = 1 << 20


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
# parsing into deferred values


def _fold(parts: list, op):
    """A thunk applying ``op`` left to right over the values of ``parts``."""
    if len(parts) == 1:
        return parts[0]

    def value():
        out = parts[0]()
        for part in parts[1:]:
            out = op(out, part())
        return out

    return value


def _negated(f):
    return lambda: -f()


class _Parser:
    """Each rule returns a thunk: a zero-argument function computing its
    value.  ``resolve`` maps an identifier token to a thunk or raises;
    ``const`` maps a numeric literal to a value of the target."""

    def __init__(self, tokens: list[Token], resolve, const):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.resolve = resolve
        self.const = const

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
        value = self.sum()
        tok = self.tokens[self.pos]
        if tok.kind != "END":
            raise ExprError(f"unexpected {tok.text!r}", tok.line, tok.col)
        return value

    def sum(self):
        items = [self.item()]
        while self.at_op("+-"):
            op = self.take()
            rhs = self.item()
            items.append(rhs if op.text == "+" else _negated(rhs))
        return _fold(items, operator.add)

    def item(self):
        negate = False
        while self.at_op("-"):
            self.take()
            negate = not negate
        value = self.product()
        return _negated(value) if negate else value

    def product(self):
        factors = [self.power()]
        while self.at_op("*"):
            self.take()
            factors.append(self.power())
        return _fold(factors, operator.mul)

    def power(self):
        base = self.atom()
        if not self.at_op("^"):
            return base
        caret = self.take()
        sign = 1
        if self.at_op("-"):
            self.take()
            sign = -1
        tok = self.take()
        if tok.kind != "INT":
            raise ExprError("exponent must be an integer literal", tok.line, tok.col)
        k = sign * int(tok.text)
        return lambda: _power(base(), k, caret)

    def atom(self):
        tok = self.take()
        if tok.kind == "INT":
            return self.literal(tok)
        if tok.kind == "IDENT":
            return self.resolve(tok)
        if tok.kind == "OP" and tok.text == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ExprError(f"parentheses nested deeper than {MAX_NESTING}", tok.line, tok.col)
            value = self.sum()
            self.expect_op(")")
            self.depth -= 1
            return value
        raise ExprError(f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.col)

    def literal(self, tok: Token):
        number, at = int(tok.text), tok
        if self.at_op("/"):
            self.take()
            den = self.take()
            if den.kind != "INT":
                raise ExprError("fraction needs an integer denominator", den.line, den.col)
            if int(den.text) == 0:
                raise ExprError("zero denominator", den.line, den.col)
            number, at = Fraction(number, int(den.text)), den

        def value():
            try:
                return self.const(number)
            except ZeroDivisionError as e:  # a denominator divisible by p
                raise ExprError(str(e), at.line, at.col) from None

        return value


def _power(base, k: int, caret: Token):
    if isinstance(base, Poly):
        if base.is_constant():
            return Poly.const(base.pres, _power(base.constant_coeff(), k, caret))
        if k < 0:
            message = "negative exponent needs an invertible constant"
        elif k >= EXPONENT_CAP:
            message = f"exponent {k} on a non-constant base must be below {EXPONENT_CAP}"
        else:
            return base**k
        raise ExprError(message, caret.line, caret.col)
    if k < 0:
        try:
            base = base.inverse()
        except NotAUnitError:
            raise ExprError(f"{base} is not invertible", caret.line, caret.col) from None
    terms = flat_terms(base.ring, base.value)
    if len(terms) > 1 and (size := _power_bits(base.ring, terms, abs(k))) > MAX_POWER_BITS:
        message = f"power of a {len(terms)}-term constant would hold about {size:.3g} bits"
        raise ExprError(f"{message}, above the cap of {MAX_POWER_BITS}", caret.line, caret.col)
    return base ** abs(k)


def _power_bits(ring: CoeffRing, terms: list, k: int) -> float:
    """A bound on terms times coefficient bits of the k-th power of the
    sum of ``terms`` (flat_terms).  Along each generator its exponents lie
    in k*span/step + 1 places, step the gcd of the exponent differences;
    over Q, with D clearing denominators and S the sum of the absolute
    numerators, each coefficient has at most k*log2(S*D) bits."""
    count = 1
    for col in zip(*(exps for exps, _ in terms)):
        step = math.gcd(*(x - col[0] for x in col))
        count *= k * (max(col) - min(col)) // step + 1 if step else 1
    prime = ring.prime_ring()
    if prime != QQ:
        return count * prime.p.bit_length()
    den = math.lcm(*(prime._denominator(x) for _, x in terms))
    return count * k * math.log2(sum(abs(x * den) for _, x in terms) * den)


def parse(src: str, P):
    """The deferred value of an expression over a presentation: a thunk
    returning a Poly.  Identifiers resolve while parsing, so an unknown
    name fails with its position before anything is evaluated."""
    gens = set(P.ring.generator_names())

    def resolve(tok: Token):
        name = tok.text
        m = POSITIONAL_RE.match(name)
        if name in P.var_names:
            i = P.var_names.index(name)
        elif m and 1 <= int(m.group(1)) <= P.n:
            i = int(m.group(1)) - 1
        elif name in gens:
            return lambda: Poly.const(P, P.ring.generator(name))
        else:
            raise ExprError(f"unknown identifier {name!r}", tok.line, tok.col)
        return lambda: Poly.variable(P, i)

    return _Parser(tokenize(src), resolve, lambda c: Poly.const(P, c)).parse()


def eval_str(src: str, P) -> Poly:
    return parse(src, P)()


def coeff_from_str(src: str, ring: CoeffRing) -> CoeffElem:
    """Value of a coefficient-only expression (no variables)."""
    gens = set(ring.generator_names())

    def resolve(tok: Token):
        if tok.text in gens:
            return lambda: ring.generator(tok.text)
        raise ExprError(f"unknown coefficient generator {tok.text!r}", tok.line, tok.col)

    return _Parser(tokenize(src), resolve, ring.from_fraction).parse()()
