"""Canonical polynomials over standard monomials and the ring product.

A Poly is a finite map from exponent vectors (one slot per variable, entries
in N) to nonzero coefficients, tagged with the presentation it lives over.
This is the free left module on standard monomials; the product is the
noncommutative one induced by the presentation's commutation rules.

The fast product below rewrites exponent vectors directly: a variable is
pushed into a sorted monomial by repeatedly applying the variable-variable
relation to the leftmost out-of-order generator, and variables pass
coefficients by the twist-and-derive rule.  The engine computes on raw ring
values (see rings.CoeffRing) and wraps coefficients in CoeffElem only at its
edges; single steps are memoized per presentation, and the memo holds raw
values too.  The variable-push memo factors out the last variable's power:
x^beta x_n^m is already standard, so x_i x^gamma is x_i pushed through the
prefix of gamma (last slot 0) with every result shifted by gamma_n in the
last slot, and each prefix is pushed once.  Rational scalars are central
(every twist fixes and every derivation kills the prime field), so star
clears denominators at its edges: it multiplies the integral multiples D*f
and E*g and divides by D*E once, and over integral parameters the kernel
never touches a Fraction (docs/exactness.md).  Correctness of this path is
anchored by the word-level normalization oracle (see reduction.star_oracle),
which the test suite and the multiply command's verify mode run against it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

from .rings import CoeffElem, RingMismatchError, _add_scaled, add_terms, format_terms

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

    __slots__ = ("pres", "terms")

    def __init__(self, pres, terms: Mapping[Monomial, CoeffElem]):
        clean: dict[Monomial, CoeffElem] = {}
        for alpha, c in terms.items():
            alpha = tuple(alpha)
            _check_exponents(alpha, pres.n)
            if c.ring != pres.ring:
                raise RingMismatchError("coefficient from a different ring")
            if c:
                clean[alpha] = c
        self.pres = pres
        self.terms = clean

    @classmethod
    def _trusted(cls, pres, terms: dict) -> "Poly":
        """Wrap a term map that is already clean (tuple monomials below the
        exponent cap, nonzero coefficients of ``pres.ring``) unchecked."""
        f = object.__new__(cls)
        f.pres = pres
        f.terms = terms
        return f

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, pres) -> "Poly":
        return cls(pres, {})

    @classmethod
    def const(cls, pres, c) -> "Poly":
        if isinstance(c, int):
            c = pres.ring.from_int(c)
        elif isinstance(c, Fraction):
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
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(a) == 0 for a in self.terms)

    def constant_coeff(self) -> CoeffElem:
        return self.terms.get((0,) * self.pres.n, self.pres.ring.zero())

    def deg(self):
        """Total degree; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(a) for a in self.terms)

    # -- arithmetic ----------------------------------------------------------

    def _same(self, other: "Poly") -> None:
        if self.pres is not other.pres and self.pres != other.pres:
            raise ValueError("polynomials over different presentations")

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._same(other)
        return Poly._trusted(self.pres, add_terms(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self.pres, {a: -c for a, c in self.terms.items()})

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
        if isinstance(r, (int, Fraction)):
            r = Poly.const(self.pres, r).constant_coeff()
        return Poly(self.pres, {a: r * c for a, c in self.terms.items()})

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
        out = Poly.one(self.pres)
        base = self
        while k:  # square and multiply
            if k & 1:
                out = star(out, base)
            k >>= 1
            if k:
                base = star(base, base)
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.pres is other.pres or self.pres == other.pres) and self.terms == other.terms

    def __hash__(self):
        return hash((self.pres, frozenset(self.terms.items())))

    # -- text ----------------------------------------------------------------

    def __str__(self):
        names = [f"x{i + 1}" for i in range(self.pres.n)]
        return format_terms(
            self.pres.ring, names, ((a, c.value) for a, c in self.terms.items())
        )

    def __repr__(self):
        return f"Poly({self})"


# ---------------------------------------------------------------------------
# product engine


def _bump(alpha: Monomial, i: int) -> Monomial:
    if alpha[i] + 1 >= EXPONENT_CAP:
        raise ExponentCapError(f"exponent cap {EXPONENT_CAP} exceeded at slot {i}")
    return alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]


def _var_times_monomial(P, i: int, gamma: Monomial):
    """x_i * x^gamma as a tuple of (monomial, raw coefficient), memoized."""
    cache = P._vtm_cache
    key = (i, gamma)
    hit = cache.get(key)
    if hit is not None:
        return hit
    ring = P.ring
    j = next((k for k, e in enumerate(gamma) if e), None)
    if j is None or j >= i:
        out = ((_bump(gamma, i), ring._one()),)
        cache[key] = out
        return out
    m = gamma[-1]
    if m:
        # x_i x^gamma = (x_i x^gamma') x_n^m with gamma'_n = 0, and
        # x^beta x_n^m = x^(beta + m e_n) is standard (docs/exactness.md)
        last = len(gamma) - 1
        out = []
        for alpha, v in _var_times_monomial(P, i, gamma[:last] + (0,)):
            if alpha[last] + m >= EXPONENT_CAP:
                raise ExponentCapError(f"exponent cap {EXPONENT_CAP} exceeded at slot {last}")
            out.append((alpha[:last] + (alpha[last] + m,), v))
        out = tuple(out)
        cache[key] = out
        return out
    # x_i x_j = c x_j x_i + sum_k a_k x_k + d  for the stored pair (j, i), so
    # x_i x_j^e x^tail is built from x_i x_j^(e-1) x^tail.  Start from the
    # highest lower power in the memo and climb to gamma_j: the recursion
    # depth does not grow with gamma_j.
    head, tail = gamma[:j], gamma[j + 1 :]
    e = gamma[j] - 1
    while e and (i, head + (e,) + tail) not in cache:
        e -= 1
    out = _var_times_monomial(P, i, head + (e,) + tail)
    c = P.c_of(j, i).value
    dji = P.d_of(j, i)
    for e in range(e + 1, gamma[j] + 1):
        gp = head + (e - 1,) + tail
        acc: dict = {}
        _add_scaled(acc, _var_times_terms(P, j, out), c, ring)
        for k, a in P.linear_terms(j, i):
            _add_scaled(acc, _var_times_monomial(P, k, gp), a.value, ring)
        if dji:
            _add_scaled(acc, ((gp, ring._one()),), dji.value, ring)
        out = tuple(acc.items())
        cache[(i, head + (e,) + tail)] = out
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
    acc: dict = {}
    for gamma, s in terms:
        u = s if twist is None else twist(CoeffElem(ring, s)).value
        if not ring._is_zero(u):
            _add_scaled(acc, _var_times_monomial(P, i, gamma), u, ring)
        if derive is not None:
            _add_scaled(acc, ((gamma, one),), derive(CoeffElem(ring, s)).value, ring)
    return tuple(acc.items())


def _cleared(f: Poly, ring) -> tuple[list, int]:
    """(terms of D*f as raw values, D) for D the lcm of the denominators of
    f's coefficients, so that D*f has integral rational coefficients."""
    den = ring._denominator
    terms = []
    d = 1
    for alpha, c in f.terms.items():
        v = c.value
        k = den(v)
        if k != 1:
            d = math.lcm(d, k)
        terms.append((alpha, v))
    if d != 1:
        mul, scale = ring._mul, ring._from_fraction(d)
        terms = [(alpha, mul(scale, v)) for alpha, v in terms]
    return terms, d


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
    out: dict = {}
    for alpha, r in f_terms:
        cur = g_terms
        for i in range(P.n - 1, -1, -1):
            for _ in range(alpha[i]):
                cur = _var_times_terms(P, i, cur)
        _add_scaled(out, cur, r, ring)
    de = d * e
    if de != 1:
        div = ring._div_int
        out = {alpha: div(v, de) for alpha, v in out.items()}
    return Poly._trusted(P, {alpha: CoeffElem(ring, v) for alpha, v in out.items()})


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
