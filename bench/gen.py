"""Seeded input generators for the benchmark.

They follow the generators of the acceptance suite (``random_poly`` of
criterion 5, ``random_word``/``scalar_pool`` of criterion 1, the Lie-table
perturbations of criterion 6) and ``CoeffRing.random_elem``, with two
differences:

* every draw takes the high bits of ``Stream.next_u64``.  ``Stream.below(n)``
  reduces the low bits, and the low bits of a multiplicative congruential
  generator repeat with short periods: ``below(2)`` is always 1 and
  ``below(4)`` always 3, so words built with it never hold ``x1`` on a
  two-variable presentation;
* they live here, so that the benchmark's inputs do not change when the test
  helpers or the sampling helpers of the program do: a before/after
  comparison must run identical inputs.
"""

from __future__ import annotations

from fractions import Fraction

from skewpbw.algebra import Poly
from skewpbw.catalog import StructureConstants, jacobiator
from skewpbw.rings import QQ, LaurentRing, PolyRing, Rationals
from skewpbw.rng import Stream
from skewpbw.words import Scalar, Var


def below(stream: Stream, n: int) -> int:
    """Integer in [0, n) from the high 32 bits of the next draw."""
    return ((stream.next_u64() >> 32) * n) >> 32


def between(stream: Stream, lo: int, hi: int) -> int:
    return lo + below(stream, hi - lo + 1)


def choice(stream: Stream, seq):
    return seq[below(stream, len(seq))]


def random_coeff(ring, stream: Stream, degree_bound: int):
    """A coefficient shaped like ``ring.random_elem``: a rational p/q with
    |p| <= 9, 1 <= q <= 9; over a Laurent ring 1..3 such terms times
    q^e, |e| <= degree_bound; over a polynomial ring 1..3 such terms times a
    monomial of degree <= degree_bound.  May be zero."""
    if isinstance(ring, Rationals):
        return ring.from_fraction(Fraction(between(stream, -9, 9), between(stream, 1, 9)))
    if isinstance(ring, LaurentRing):
        q = ring.generator(ring.var)
        out = ring.zero()
        for _ in range(1 + below(stream, 3)):
            e = between(stream, -degree_bound, degree_bound)
            out = out + random_coeff(ring.base, stream, 0).value * q**e
        return out
    if isinstance(ring, PolyRing):
        zero = tuple(0 for _ in ring.vars)
        out = ring.zero()
        for _ in range(1 + below(stream, 3)):
            remaining = degree_bound
            term = ring.one()
            for name in ring.vars:
                e = below(stream, remaining + 1)
                term = term * ring.generator(name) ** e
                remaining -= e
            base = random_coeff(ring.base, stream, degree_bound)
            if base:
                out = out + ring.elem(((zero, base.value),)) * term
        return out
    raise TypeError(f"no generator for {ring.describe()}")


def random_poly(P, stream: Stream, max_degree: int, max_terms: int = 2, values=None) -> Poly:
    """1..max_terms random terms of total degree <= max_degree.  With a
    second stream ``values``, the exponents come from ``stream`` and the
    coefficients from ``values``."""
    values = stream if values is None else values
    terms = {}
    for _ in range(1 + below(stream, max_terms)):
        remaining = max_degree
        alpha = []
        for _ in range(P.n):
            e = below(stream, remaining + 1)
            alpha.append(e)
            remaining -= e
        coeff = random_coeff(P.ring, values, 1)
        if coeff:
            terms[tuple(alpha)] = coeff
    return Poly(P, terms)


def scalar_pool(P, stream: Stream, extra: int = 2) -> list:
    """Small pool of nonzero coefficients: units, generators, random."""
    ring = P.ring
    pool = [ring.one(), -ring.one(), ring.from_int(2)]
    pool += [ring.generator(g) for g in ring.generator_names()]
    size = len(pool) + extra
    while len(pool) < size:
        c = random_coeff(ring, stream, 1)
        if c:
            pool.append(c)
    return pool


def random_word(P, stream: Stream, max_len: int, pool, var_weight: int = 65) -> tuple:
    """A word of length <= max_len over the variables and the scalar pool."""
    letters = []
    for _ in range(below(stream, max_len + 1)):
        if below(stream, 100) < var_weight:
            letters.append(Var(below(stream, P.n)))
        else:
            letters.append(Scalar(choice(stream, pool)))
    return tuple(letters)


def random_lie_table(stream: Stream) -> tuple[int, dict]:
    """Bracket table of dimension 3 or 4 with entries in [-2, 2]."""
    n = 3 + below(stream, 2)
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            table[(i, j)] = [between(stream, -2, 2) for _ in range(n)]
    return n, table


def non_jacobi_lie(stream: Stream) -> tuple:
    """Structure constants of the first random Lie table drawn from the
    stream that breaks the Jacobi identity, and the triples (i < j < k)
    where ``catalog.jacobiator`` is nonzero."""
    while True:
        n, table = random_lie_table(stream)
        sc = StructureConstants.build(QQ, n, table)
        triples = [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)]
        bad = tuple(t for t in triples if any(jacobiator(sc, *t)))
        if bad:
            return sc, bad


def sign(stream: Stream) -> Fraction:
    return Fraction(1 - 2 * below(stream, 2))


def shuffled(items: list, stream: Stream) -> list:
    """Fisher-Yates on a copy."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = below(stream, i + 1)
        out[i], out[j] = out[j], out[i]
    return out
