"""Deterministic generators shared across the test modules."""

from __future__ import annotations

from fractions import Fraction

from skewpbw.algebra import Poly, star
from skewpbw.presentation import Presentation
from skewpbw.rings import LaurentRing, PolyRing, PrimeField, QQ, RingMap, SigmaDerivation
from skewpbw.rng import Stream
from skewpbw.universal import HomSpec
from skewpbw.words import Scalar, Var


def _random_value(ring, stream: Stream, degree_bound: int):
    """Raw value of a seeded random element: 1..3 terms, exponents within
    ``degree_bound``, rationals p/q with |p| <= 9 and 1 <= q <= 9."""
    if ring == QQ:
        return ring._from_fraction(Fraction(stream.int_between(-9, 9), stream.int_between(1, 9)))
    if isinstance(ring, PrimeField):
        return stream.below(ring.p)
    terms = []
    for _ in range(1 + stream.below(3)):
        if isinstance(ring, LaurentRing):
            e = stream.int_between(-degree_bound, degree_bound) if degree_bound else 0
            terms.append(((e, _random_value(ring.base, stream, 0)),))
            continue
        remaining = degree_bound
        exps = []
        for _ in ring.vars:
            e = stream.below(remaining + 1) if remaining else 0
            exps.append(e)
            remaining -= e
        terms.append(((tuple(exps), _random_value(ring.base, stream, degree_bound)),))
    return ring._sum(terms)


def random_elem(ring, stream: Stream, degree_bound: int = 2):
    return ring.elem(_random_value(ring, stream, degree_bound))


def random_nonzero(ring, stream: Stream, degree_bound: int = 2):
    for _ in range(1000):
        e = random_elem(ring, stream, degree_bound)
        if e:
            return e
    raise RuntimeError("random sampling produced only zero")


def random_poly(P, stream: Stream, max_degree: int, max_terms: int = 2) -> Poly:
    """Seeded random polynomial: 1..max_terms terms of total degree at most
    max_degree, coefficients from ``random_elem(ring, stream, 1)``; a
    repeated monomial keeps its last draw."""
    terms = {}
    for _ in range(1 + stream.below(max_terms)):
        remaining = max_degree
        alpha = []
        for _ in range(P.n):
            e = stream.below(remaining + 1) if remaining else 0
            alpha.append(e)
            remaining -= e
        coeff = random_elem(P.ring, stream, 1)
        if coeff:
            terms[tuple(alpha)] = coeff
    return Poly(P, terms)


def scalar_pool(P, stream: Stream, extra: int = 2):
    """Small pool of nonzero coefficients: units, generators, random."""
    ring = P.ring
    pool = [ring.one(), -ring.one(), ring.from_int(2)]
    for g in ring.generator_names():
        pool.append(ring.generator(g))
    for _ in range(extra):
        pool.append(random_nonzero(ring, stream, 1))
    return pool


def random_word(P, stream: Stream, max_len: int, pool=None, var_weight: int = 65):
    if pool is None:
        pool = scalar_pool(P, stream)
    length = stream.below(max_len + 1)
    letters = []
    for _ in range(length):
        if P.n and stream.below(100) < var_weight:
            letters.append(Var(stream.below(P.n)))
        else:
            letters.append(Scalar(stream.choice(pool)))
    return tuple(letters)


def random_standard_word(P, stream: Stream, max_vars: int, pool=None):
    """Scalar prefix then nondecreasing variables: an element of T."""
    if pool is None:
        pool = scalar_pool(P, stream)
    letters = [Scalar(stream.choice(pool)) for _ in range(stream.below(3))]
    indices = sorted(stream.below(P.n) for _ in range(stream.below(max_vars + 1)))
    letters.extend(Var(i) for i in indices)
    return tuple(letters)


def dense_presentation() -> Presentation:
    """Two variables over Q[t] with every inserted coefficient nonzero:
    c = 2, d = 3, a = (t, 5), twist identity, one derivation d/dt.
    Not required to be consistent; used to exercise the literal recursion
    with nothing pruned."""
    ring = PolyRing(QQ, ("t",))
    t = ring.generator("t")
    ident = RingMap.identity(ring)
    ddt = SigmaDerivation.from_images(ring, ident, {"t": ring.one()})
    return Presentation(
        ring,
        ("u", "v"),
        sigma=[ident, ident],
        delta=[ddt, SigmaDerivation.zero(ring, ident)],
        c={(0, 1): ring.from_int(2)},
        d={(0, 1): ring.from_int(3)},
        a={(0, 1, 0): t, (0, 1, 1): ring.from_int(5)},
    )


def qdiff_presentation() -> Presentation:
    """Two variables over Q[q^-1,q][t], the first passing coefficients by
    the q-dilation twist with a unit derivation term (q-difference style),
    the second commuting.  Both structure maps nontrivial on one slot;
    passes the existence checks."""
    ring = PolyRing(LaurentRing(QQ, "q"), ("t",))
    q = ring.generator("q")
    t = ring.generator("t")
    dilate = RingMap.from_images(ring, {"t": q * t})
    jackson = SigmaDerivation.from_images(ring, dilate, {"t": ring.one()})
    return Presentation(
        ring,
        ("u", "v"),
        sigma=[dilate, RingMap.identity(ring)],
        delta=[jackson, SigmaDerivation.zero(ring)],
    )


def coeff_fraction(c) -> Fraction:
    """Value of a rational coefficient (test-only shortcut)."""
    assert c.ring == QQ
    return c.value


def perturbed_presentation(stream: Stream) -> Presentation:
    """Two variables over Q[t] or Q[q^-1,q] (chosen by the first draw): the
    commuting pair, with each structure map, c_12, a_12 and d_12
    replaced by a small random choice.  The twists scale the generator,
    the derivations send it to a multiple of a power of itself, and the
    zero choices are weighted so that roughly a fifth of the draws still
    satisfy condition 2."""
    if stream.next_u64() >> 63:
        ring = PolyRing(QQ, ("t",))
        g = ring.generator("t")
        powers, unit_powers = [ring.one(), g, g * g], []
    else:
        ring = LaurentRing(QQ, "q")
        g = ring.generator("q")
        powers, unit_powers = [g.inverse(), ring.one(), g, g * g], [g, g.inverse()]
    units = [ring.one(), -ring.one(), ring.from_int(2), Fraction(1, 2) * ring.one()] + unit_powers
    name = ring.generator_names()[0]
    sigma, delta = [], []
    for _ in range(2):
        s = RingMap.from_images(ring, {name: stream.choice(units) * g})
        scale = stream.choice([0, 0, 0, 1, -2])
        sigma.append(s)
        delta.append(SigmaDerivation.from_images(ring, s, {name: scale * stream.choice(powers)}))
    zero = ring.zero()
    return Presentation(
        ring,
        ("u", "v"),
        sigma=sigma,
        delta=delta,
        c={(0, 1): stream.choice(units)},
        a={(0, 1, 0): stream.choice([zero, zero, zero, ring.one()])},
        d={(0, 1): stream.choice([zero, zero, zero, ring.one(), g])},
    )


def perturbed_homspec(stream: Stream) -> HomSpec:
    """A seed from a ``perturbed_presentation`` to itself: the generator goes
    to a unit multiple of itself, and each variable to a small random
    element (a variable, a scaled or shifted variable, a product, or 1)."""
    P = perturbed_presentation(stream)
    ring = P.ring
    name = ring.generator_names()[0]
    g = ring.generator(name)
    x1, x2 = Poly.variable(P, 0), Poly.variable(P, 1)
    phi = {name: Poly.const(P, stream.choice([1, -1, 2]) * g)}
    images = [x1, x2, x1, x2, 2 * x1, x1 + Poly.const(P, g), x2 + 1, star(x1, x2), Poly.one(P)]
    return HomSpec(P, P, phi, (stream.choice(images), stream.choice(images)))
