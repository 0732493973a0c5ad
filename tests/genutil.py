"""Deterministic generators shared across the test modules."""

from __future__ import annotations

from fractions import Fraction

from skewpbw.algebra import Poly, star
from skewpbw.presentation import Presentation
from skewpbw.rings import LaurentRing, PolyRing, QQ, RingMap, SigmaDerivation
from skewpbw.rng import Stream
from skewpbw.universal import HomSpec
from skewpbw.words import Scalar, Var


def scalar_pool(P, stream: Stream, extra: int = 2):
    """Small pool of nonzero coefficients: units, generators, random."""
    ring = P.ring
    pool = [ring.one(), -ring.one(), ring.from_int(2)]
    for g in ring.generator_names():
        pool.append(ring.generator(g))
    for _ in range(extra):
        pool.append(ring.random_nonzero(stream, 1))
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
