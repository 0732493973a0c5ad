"""Output checks of the benchmark.

Each check either compares an engine output with a value computed here
without the product engine (closed forms from ``math.comb``, raw canonical
coefficient values, an independent reading of the CLI's text output), or
tests a property every correct product must have (leading monomials add,
associativity, distributivity, agreement with the word-level oracle).
A check returns True or False and never raises on a wrong result, so a bad
output counts as a failed operation instead of stopping the run.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, factorial

from skewpbw import algebra, reduction
from skewpbw.rings import LaurentRing, PolyRing, Rationals
from skewpbw.words import Scalar, Var

# ---------------------------------------------------------------------------
# closed forms


def weyl_terms(a: int, b: int, scale=Fraction(1)) -> dict:
    """x2^a x1^b in the first Weyl algebra (x2 x1 = x1 x2 + 1):
    sum_k k! C(a,k) C(b,k) x1^(b-k) x2^(a-k), as {monomial: Fraction}."""
    return {
        (b - k, a - k): scale * factorial(k) * comb(a, k) * comb(b, k)
        for k in range(min(a, b) + 1)
    }


def q_power_value(ring, e: int, c: Fraction):
    """Raw canonical value of c*q^e in a catalog coefficient ring, built from
    the documented value formats (Fraction; sorted (exponent, coeff) tuple;
    (exponent-vector, base value) tuple) rather than ring arithmetic."""
    if isinstance(ring, Rationals):
        return c if e == 0 else None
    if isinstance(ring, LaurentRing):
        return ((e, c),)
    if isinstance(ring, PolyRing) and isinstance(ring.base, LaurentRing):
        return (((0,) * len(ring.vars), ((e, c),)),)
    raise TypeError(f"no closed form for {ring.describe()}")


def _term_values(f) -> dict:
    return {alpha: c.value for alpha, c in f.terms.items()}


def weyl_ok(out, a: int, b: int, scale=Fraction(1)) -> bool:
    """out == (closed form of x2^a x1^b) * scale, on a two-variable Weyl."""
    return _term_values(out) == weyl_terms(a, b, scale)


def quantum_plane_ok(out, a: int, b: int, scale=Fraction(1)) -> bool:
    """x2^a x1^b = q^(ab) x1^b x2^a."""
    return _term_values(out) == {(b, a): ((a * b, scale),)}


def pbw_leading_ok(out, i: int, j: int, a: int, b: int, lead_value) -> bool:
    """x_j^a x_i^b (i < j) has leading term c^(ab) x_i^b x_j^a and a tail of
    strictly lower total degree."""
    top = [0] * out.pres.n
    top[i] = b
    top[j] = a
    top = tuple(top)
    terms = _term_values(out)
    if terms.get(top) != lead_value:
        return False
    return all(sum(alpha) < a + b for alpha in terms if alpha != top)


# ---------------------------------------------------------------------------
# products


def leading_monomial(f):
    """Degree-then-lex largest exponent vector; None for zero."""
    if not f.terms:
        return None
    return max(f.terms, key=lambda alpha: (sum(alpha), alpha))


def product_leading_ok(f, g, out) -> bool:
    """Over a domain with injective twists, lm(fg) = lm(f) + lm(g): the tail
    of every x_j x_i has lower degree, so only the two leading terms reach the
    top monomial."""
    lf, lg = leading_monomial(f), leading_monomial(g)
    if lf is None or lg is None:
        return not out.terms
    return leading_monomial(out) == tuple(x + y for x, y in zip(lf, lg))


def associative_ok(f, g, h, fg) -> bool:
    star = algebra.star
    return star(fg, h) == star(f, star(g, h))


def distributive_ok(f, g, h, fg) -> bool:
    star = algebra.star
    return star(f, g + h) == fg + star(f, h)


def oracle_ok(f, g, fg) -> bool:
    return fg == reduction.star_oracle(f, g)


# ---------------------------------------------------------------------------
# straightening


def standard_reduction_ok(word, out) -> bool:
    """Every output word is standard (scalar letters, then variables in
    nondecreasing index order), carries a nonzero multiplicity, and has no
    more variable letters than the input word."""
    n_vars = sum(1 for letter in word if isinstance(letter, Var))
    for w, mult in out:
        if not mult:
            return False
        last = -1
        seen_var = False
        count = 0
        for letter in w:
            if isinstance(letter, Scalar):
                if seen_var:
                    return False
            else:
                seen_var = True
                if letter.index < last:
                    return False
                last = letter.index
                count += 1
        if count > n_vars:
            return False
    return True


# ---------------------------------------------------------------------------
# homomorphisms


def hom_ok(images) -> bool:
    """images = (conditions_ok, phi(f), phi(g), phi(f+g), phi(f*g)): the
    seed passes its conditions and the extension is additive and
    multiplicative on the pair."""
    ok, pf, pg, psum, pprod = images
    return ok and psum == pf + pg and pprod == algebra.star(pf, pg)


# ---------------------------------------------------------------------------
# CLI text output

_MONO = re.compile(r"^x([0-9]+)(?:\^([0-9]+))?$")
_QPOW = re.compile(r"^q(?:\^(-?[0-9]+))?$")


def parse_poly_text(text: str, n: int):
    """Read the CLI's printed normal form into {monomial: (q exponent,
    Fraction)}, for coefficients of the shape c, q^e, c*q^e.  None when the
    text does not have that shape."""
    text = text.strip()
    if not text:
        return None
    if text == "0":
        return {}
    parts = re.split(r" ([+-]) ", text)
    signs = [1] + [1 if s == "+" else -1 for s in parts[1::2]]
    out = {}
    for sign, term in zip(signs, parts[0::2]):
        if term.startswith("-"):
            sign, term = -sign, term[1:]
        alpha = [0] * n
        coeff = Fraction(sign)
        qexp = 0
        for factor in term.split("*"):
            m = _MONO.match(factor)
            if m:
                k = int(m.group(1)) - 1
                if not 0 <= k < n or alpha[k]:
                    return None
                alpha[k] = int(m.group(2) or 1)
                continue
            m = _QPOW.match(factor)
            if m:
                qexp += int(m.group(1) or 1)
                continue
            try:
                coeff *= Fraction(factor)
            except ValueError:
                return None
        key = tuple(alpha)
        if key in out or coeff == 0:
            return None
        out[key] = (qexp, coeff)
    return out


def weyl_text_ok(stdout: str, a: int, b: int) -> bool:
    got = parse_poly_text(stdout, 2)
    want = {alpha: (0, c) for alpha, c in weyl_terms(a, b).items()}
    return got == want


def quantum_plane_text_ok(stdout: str, a: int, b: int) -> bool:
    return parse_poly_text(stdout, 2) == {(b, a): (a * b, Fraction(1))}


_COND3_FAIL = re.compile(r"^condition 3 fails at \(i,j,k\)=\(([0-9]+),([0-9]+),([0-9]+)\)")


def check_text_ok(stdout: str, bad_triples) -> bool:
    """A `check` summary that ends in PASS when no triple is bad, or in FAIL
    naming exactly the bad triples (0-based in, 1-based in the text)."""
    lines = stdout.strip().splitlines()
    if not lines:
        return False
    flagged = set()
    for line in lines:
        m = _COND3_FAIL.match(line)
        if m:
            flagged.add(tuple(int(x) - 1 for x in m.groups()))
    want_last = "overall: FAIL" if bad_triples else "overall: PASS"
    return lines[-1] == want_last and flagged == set(bad_triples)
