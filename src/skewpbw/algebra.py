"""Canonical polynomials over standard monomials and the ring product.

A Poly is a finite map from exponent vectors (one slot per variable, entries
in N) to nonzero coefficients, tagged with the presentation it lives over.
This is the free left module on standard monomials; the product is the
noncommutative one induced by the presentation's commutation rules.  A Poly
holds raw ring values (see rings.CoeffRing), as the engine, its memo tables
and rings.combine_terms do; its ``terms`` property is the CoeffElem view.

The fast product below rewrites exponent vectors directly: a variable x_i
is pushed into a sorted monomial by one loop that lowers the leftmost
generator below x_i down to a memoized step and one loop that climbs back
by the variable-variable relation, with no recursion along the monomial;
variables pass coefficients by the twist-and-derive rule.  Single steps are
memoized per presentation.  The variable-push memo factors out the last
variable's power: x^beta x_n^m is already standard, so x_i x^gamma is x_i
pushed through the prefix of gamma (last slot 0) with every result shifted
by gamma_n in the last slot, and each prefix is pushed once.  Rational
scalars are central (every twist fixes and every derivation kills the prime
field), so star clears denominators at its edges: it multiplies the
integral multiples D*f and E*g and divides by D*E once, and over integral
parameters the kernel never touches a Fraction (docs/exactness.md).
Correctness of this path is anchored by the word-level normalization oracle
(see reduction.star_oracle), which the test suite and the multiply
command's verify mode run against it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import groupby
from typing import Iterable, Mapping

from .rings import (
    CoeffElem,
    RingMismatchError,
    combine_terms,
    format_terms,
    square_multiply,
)

Monomial = tuple  # tuple[int, ...]

EXPONENT_CAP = 1 << 16


class ExponentCapError(OverflowError):
    """A product pushed some exponent past the per-variable cap."""


class InconsistentPresentationError(RuntimeError):
    """The engine derived a non-unit leading coefficient, which cannot happen
    over a presentation that passed the existence checks."""


def _check_exponents(alpha: Monomial, n: int) -> None:
    if len(alpha) != n:
        raise ValueError(f"monomial has {len(alpha)} slots, presentation has {n}")
    for e in alpha:
        if e < 0:
            raise ValueError("negative exponent")
        if e >= EXPONENT_CAP:
            raise ExponentCapError(f"exponent {e} exceeds cap {EXPONENT_CAP}")


class Poly:
    """An element of the extension ring in canonical form."""

    __slots__ = ("pres", "_terms")

    def __init__(self, pres, terms: Mapping[Monomial, CoeffElem]):
        clean: dict = {}
        for alpha, c in terms.items():
            alpha = tuple(alpha)
            _check_exponents(alpha, pres.n)
            if c.ring != pres.ring:
                raise RingMismatchError("coefficient from a different ring")
            if c:
                clean[alpha] = c.value
        self.pres = pres
        self._terms = clean

    @classmethod
    def _trusted(cls, pres, terms: dict) -> "Poly":
        """Wrap a map from monomials to raw values that is already clean
        (tuple monomials below the exponent cap, nonzero raw values of
        ``pres.ring``) unchecked.  The map is shared, never mutated."""
        f = object.__new__(cls)
        f.pres = pres
        f._terms = terms
        return f

    @property
    def terms(self) -> dict[Monomial, CoeffElem]:
        """The terms as a fresh {monomial: CoeffElem} dict."""
        ring = self.pres.ring
        return {alpha: CoeffElem(ring, v) for alpha, v in self._terms.items()}

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, pres) -> "Poly":
        return cls(pres, {})

    @classmethod
    def const(cls, pres, c) -> "Poly":
        if isinstance(c, (int, Fraction)):
            c = pres.ring.from_fraction(c)
        return cls(pres, {(0,) * pres.n: c})

    @classmethod
    def one(cls, pres) -> "Poly":
        return cls.const(pres, 1)

    @classmethod
    def variable(cls, pres, i: int) -> "Poly":
        exps = tuple(1 if k == i else 0 for k in range(pres.n))
        return cls(pres, {exps: pres.ring.one()})

    @classmethod
    def monomial(cls, pres, alpha: Iterable[int], coeff=None) -> "Poly":
        c = pres.ring.one() if coeff is None else coeff
        return cls(pres, {tuple(alpha): c})

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(sum(a) == 0 for a in self._terms)

    def constant_coeff(self) -> CoeffElem:
        ring = self.pres.ring
        return ring.elem(self._terms.get((0,) * self.pres.n, ring._zero()))

    def deg(self):
        """Total degree; None for the zero polynomial."""
        if not self._terms:
            return None
        return max(sum(a) for a in self._terms)

    # -- arithmetic ----------------------------------------------------------

    def _same(self, other: "Poly") -> None:
        if self.pres is not other.pres and self.pres != other.pres:
            raise ValueError("polynomials over different presentations")

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._same(other)
        parts = ((None, self._terms.items()), (None, other._terms.items()))
        return Poly._trusted(self.pres, dict(combine_terms(self.pres.ring, parts)))

    __radd__ = __add__

    def __neg__(self):
        neg = self.pres.ring._neg
        return Poly._trusted(self.pres, {a: neg(v) for a, v in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction, CoeffElem)):
            return Poly.const(self.pres, other)
        return NotImplemented

    def scale(self, r) -> "Poly":
        """Left module action r . f (coefficients multiplied in R)."""
        ring = self.pres.ring
        if isinstance(r, (int, Fraction)):
            r = ring.from_fraction(r)
        elif not (isinstance(r, CoeffElem) and r.ring == ring):
            raise RingMismatchError(f"scale needs a number or an element of {ring.describe()}")
        terms = combine_terms(ring, ((r.value, self._terms.items()),))
        return Poly._trusted(self.pres, dict(terms))

    def __mul__(self, other):
        if isinstance(other, Poly):
            return star(self, other)
        if isinstance(other, (int, Fraction, CoeffElem)):
            # scalars are central only in R; right multiplication by a
            # constant still goes through the product engine
            return star(self, Poly.const(self.pres, other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CoeffElem)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers need a nonnegative int")
        return square_multiply(self, k, lambda: Poly.one(self.pres), star)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.pres is other.pres or self.pres == other.pres) and self._terms == other._terms

    def __hash__(self):
        # a CoeffElem hashes as its raw value: the hash of the view's items
        return hash((self.pres, frozenset(self._terms.items())))

    # -- text ----------------------------------------------------------------

    def __str__(self):
        names = [f"x{i + 1}" for i in range(self.pres.n)]
        return format_terms(self.pres.ring, names, self._terms.items())

    def __repr__(self):
        return f"Poly({self})"


# ---------------------------------------------------------------------------
# product engine


def _shift(alpha: Monomial, slot: int, by: int) -> Monomial:
    """alpha with ``by`` added to one slot, below the exponent cap."""
    e = alpha[slot] + by
    if e >= EXPONENT_CAP:
        raise ExponentCapError(f"exponent cap {EXPONENT_CAP} exceeded at slot {slot}")
    return alpha[:slot] + (e,) + alpha[slot + 1 :]


def _var_times_monomial(P, i: int, gamma: Monomial):
    """x_i * x^gamma as a tuple of (monomial, raw coefficient), memoized:
    one descent to a memoized or standard step, then one climb by the
    relation of each lowered slot (docs/exactness.md, "The variable push")."""
    cache = P._vtm_cache
    out = cache.get((i, gamma))
    if out is not None:
        return out
    ring = P.ring
    last = len(gamma) - 1
    if gamma[last] and any(gamma[:i]):
        # x_i x^gamma = (x_i x^gamma') x_n^m with gamma'_n = 0, and
        # x^beta x_n^m = x^(beta + m e_n) is standard (docs/exactness.md)
        inner = _var_times_monomial(P, i, gamma[:last] + (0,))
        out = tuple((_shift(alpha, last, gamma[last]), v) for alpha, v in inner)
        cache[(i, gamma)] = out
        return out
    cur, path, j = gamma, [], 0
    while out is None:
        while j < i and not cur[j]:  # the descent only lowers, so j only moves right
            j += 1
        if j == i:
            out = ((_shift(cur, i, 1), ring._one()),)
            cache[(i, cur)] = out
        else:
            path.append(j)
            cur = _shift(cur, j, -1)
            out = cache.get((i, cur))
    for j, steps in groupby(reversed(path)):
        c, lin, dji = P.c_of(j, i).value, P.linear_terms(j, i), P.d_of(j, i)
        for _ in steps:
            gp, cur = cur, _shift(cur, j, 1)
            parts = [(c, _var_times_terms(P, j, out))]
            parts += [(a.value, _var_times_monomial(P, k, gp)) for k, a in lin]
            if dji:
                parts.append((dji.value, ((gp, ring._one()),)))
            out = combine_terms(ring, parts)
            cache[(i, cur)] = out
    return out


def _var_times_terms(P, i: int, terms) -> tuple:
    """x_i * (sum of raw coeff * monomial): coefficients pass through the
    i-th twist, shedding a derivation term.  An identity twist and a zero
    derivation are skipped, and a value is wrapped only to call a map."""
    ring = P.ring
    sigma = P.sigma[i]
    delta = P.delta[i]
    twist = None if sigma.is_identity() else sigma.apply
    derive = None if delta.is_zero_map() else delta.apply
    one = ring._one()
    parts = []
    for gamma, s in terms:
        u = s if twist is None else twist(CoeffElem(ring, s)).value
        parts.append((u, _var_times_monomial(P, i, gamma)))
        if derive is not None:
            parts.append((derive(CoeffElem(ring, s)).value, ((gamma, one),)))
    return combine_terms(ring, parts)


def _cleared(f: Poly, ring) -> tuple[Iterable, int]:
    """(terms of D*f, D) for D the lcm of the denominators of f's
    coefficients, so that D*f has integral rational coefficients."""
    d = math.lcm(*map(ring._denominator, f._terms.values()))
    if d == 1:
        return f._terms.items(), d
    mul, scale = ring._mul, ring._from_fraction(d)
    return [(alpha, mul(scale, v)) for alpha, v in f._terms.items()], d


def star(f: Poly, g: Poly) -> Poly:
    """The ring product, rewritten directly over exponent vectors.

    Rational scalars are central, so star(D*f, E*g) = D*E*star(f, g): the
    kernel multiplies the integral multiples D*f and E*g and divides each
    output coefficient by D*E once (docs/exactness.md)."""
    f._same(g)
    P = f.pres
    ring = P.ring
    f_terms, d = _cleared(f, ring)
    g_terms, e = _cleared(g, ring)
    parts = []
    for alpha, r in f_terms:
        cur = g_terms
        for i in range(P.n - 1, -1, -1):
            for _ in range(alpha[i]):
                cur = _var_times_terms(P, i, cur)
        parts.append((r, cur))
    out = combine_terms(ring, parts)
    de = d * e
    if de != 1:
        div = ring._div_int
        out = [(alpha, div(v, de)) for alpha, v in out]
    return Poly._trusted(P, dict(out))


def sigma_pow(alpha: Monomial, r: CoeffElem, P) -> CoeffElem:
    """Composite twist: slot n applied first, slot 1 last."""
    out = r
    for i in range(P.n - 1, -1, -1):
        sigma = P.sigma[i]
        for _ in range(alpha[i]):
            out = sigma.apply(out)
    return out


def decompose_var_coeff(alpha: Monomial, r: CoeffElem, P) -> tuple[CoeffElem, Poly]:
    """Split x^alpha r into (leading coefficient, lower-degree tail)."""
    if not r:
        raise ValueError("decompose_var_coeff needs a nonzero coefficient")
    alpha = tuple(alpha)
    r_alpha = sigma_pow(alpha, r, P)
    full = star(Poly.monomial(P, alpha), Poly.const(P, r))
    tail = full - Poly.monomial(P, alpha, r_alpha)
    return r_alpha, tail


def monomial_product(alpha: Monomial, beta: Monomial, P) -> tuple[CoeffElem, Poly]:
    """Split x^alpha x^beta into (unit coefficient of x^(alpha+beta), tail)."""
    alpha = tuple(alpha)
    beta = tuple(beta)
    prod = star(Poly.monomial(P, alpha), Poly.monomial(P, beta))
    top = tuple(a + b for a, b in zip(alpha, beta))
    c = prod.terms.get(top)
    if c is None or not c.is_unit():
        raise InconsistentPresentationError(
            f"leading coefficient of x^{alpha} x^{beta} is not a unit; "
            "the presentation does not define an extension"
        )
    tail = prod - Poly.monomial(P, top, c)
    return c, tail
