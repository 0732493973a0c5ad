"""Coefficient rings: canonical arithmetic, units, structure maps."""

from fractions import Fraction

import pytest

from skewpbw.rings import (
    LaurentRing,
    NotAUnitError,
    PolyRing,
    PrimeField,
    QQ,
    RingMap,
    RingMismatchError,
    SigmaDerivation,
)
from skewpbw.rng import Stream

F5 = PrimeField(5)
QT = PolyRing(QQ, ("t",))
LQ = LaurentRing(QQ, "q")
MIXED = PolyRing(LaurentRing(QQ, "q"), ("t",))

ALL_RINGS = [QQ, F5, QT, LQ, MIXED, PolyRing(PrimeField(7), ("t", "u"))]


def test_rational_add():
    a = QQ.from_fraction(Fraction(1, 2))
    b = QQ.from_fraction(Fraction(1, 3))
    assert a + b == QQ.from_fraction(Fraction(5, 6))


def test_additive_identity():
    for ring in ALL_RINGS:
        x = ring.random_elem(Stream(7), 2)
        assert x + ring.zero() == x


def test_laurent_term_collection():
    q = LQ.generator("q")
    assert (q + 1) + (q - 1) == 2 * q


def test_poly_expansion():
    t = QT.generator("t")
    assert (t + 1) * (t - 1) == t * t - 1


def test_laurent_unit_inverse():
    q = LQ.generator("q")
    assert q * q.inverse() == LQ.one()


def test_prime_field_mul():
    assert F5.from_int(3) * F5.from_int(4) == F5.from_int(2)


def test_units():
    assert QQ.from_fraction(Fraction(2, 3)).is_unit()
    assert QQ.from_fraction(Fraction(2, 3)).inverse() == QQ.from_fraction(Fraction(3, 2))
    t = QT.generator("t")
    assert not t.is_unit()
    with pytest.raises(NotAUnitError):
        t.inverse()
    q = LQ.generator("q")
    u = 2 * q**3
    assert u.is_unit()
    assert u.inverse() == Fraction(1, 2) * q**-3
    assert u * u.inverse() == LQ.one()


def test_unit_inverse_identity_everywhere():
    stream = Stream(3)
    for ring in ALL_RINGS:
        for _ in range(20):
            x = ring.random_elem(stream, 2)
            if x.is_unit():
                assert x * x.inverse() == ring.one()


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        QQ.one() + F5.one()


def test_commutative_ring_axioms_randomized():
    stream = Stream(11)
    for ring in ALL_RINGS:
        for _ in range(30):
            a = ring.random_elem(stream, 2)
            b = ring.random_elem(stream, 2)
            c = ring.random_elem(stream, 2)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert a + ring.zero() == a
            assert a * ring.one() == a
            assert a + (-a) == ring.zero()


def test_is_prime_validation():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_nesting_cap():
    with pytest.raises(ValueError):
        PolyRing(PolyRing(QQ, ("t",)), ("u",))
    with pytest.raises(ValueError):
        LaurentRing(LaurentRing(QQ, "q"), "p")


# -- structure maps ---------------------------------------------------------


def test_map_on_mixed_ring():
    # twist t -> q t on Q[q^-1,q][t]
    q = MIXED.generator("q")
    t = MIXED.generator("t")
    sigma = RingMap.from_images(MIXED, {"t": q * t})
    assert sigma.apply(t * t) == q * q * t * t


def test_derivation_ddt():
    t = QT.generator("t")
    ident = RingMap.identity(QT)
    ddt = SigmaDerivation.from_images(QT, ident, {"t": QT.one()})
    assert ddt.apply(t**3) == 3 * t**2
    assert ddt.apply(QT.one()).is_zero()
    assert ddt.apply(QT.from_int(7)).is_zero()


def test_map_laws_randomized():
    stream = Stream(23)
    q = MIXED.generator("q")
    t = MIXED.generator("t")
    maps = [
        RingMap.identity(MIXED),
        RingMap.from_images(MIXED, {"t": q * t}),
        RingMap.from_images(MIXED, {"t": t * t + 1, "q": q**-1}),
    ]
    for sigma in maps:
        assert sigma.apply(MIXED.one()) == MIXED.one()
        for _ in range(25):
            r = MIXED.random_elem(stream, 2)
            s = MIXED.random_elem(stream, 2)
            assert sigma.apply(r + s) == sigma.apply(r) + sigma.apply(s)
            assert sigma.apply(r * s) == sigma.apply(r) * sigma.apply(s)


def test_derivation_twisted_leibniz_randomized():
    stream = Stream(29)
    q = MIXED.generator("q")
    t = MIXED.generator("t")
    ident = RingMap.identity(MIXED)
    sigma = RingMap.from_images(MIXED, {"t": q * t})
    # q-difference style (twisted), and an untwisted one touching both generators
    cases = [
        (sigma, SigmaDerivation.from_images(MIXED, sigma, {"t": MIXED.one()})),
        (sigma, SigmaDerivation.from_images(MIXED, sigma, {"t": t * t})),
        (ident, SigmaDerivation.from_images(MIXED, ident, {"t": t, "q": q * q})),
        (sigma, SigmaDerivation.zero(MIXED, sigma)),
    ]
    for twist, delta in cases:
        assert delta.apply(MIXED.one()).is_zero()
        for _ in range(25):
            r = MIXED.random_elem(stream, 2)
            s = MIXED.random_elem(stream, 2)
            assert delta.apply(r + s) == delta.apply(r) + delta.apply(s)
            assert delta.apply(r * s) == twist.apply(r) * delta.apply(s) + delta.apply(r) * s


def test_derivation_incompatible_images_rejected():
    q = MIXED.generator("q")
    t = MIXED.generator("t")
    sigma = RingMap.from_images(MIXED, {"t": q * t})
    # with this twist, commutativity forces the image of q to vanish
    with pytest.raises(ValueError):
        SigmaDerivation.from_images(MIXED, sigma, {"t": t, "q": q * q})


def test_derivation_on_negative_powers():
    q = LQ.generator("q")
    ident = RingMap.identity(LQ)
    d = SigmaDerivation.from_images(LQ, ident, {"q": LQ.one()})
    # d(q^-1) = -q^-2 (ordinary derivative once the twist is trivial)
    assert d.apply(q**-1) == -(q**-2)


def test_generator_free_rings_force_identity_and_zero():
    for ring in (QQ, F5):
        assert RingMap.identity(ring).images == ()
        with pytest.raises(ValueError):
            RingMap.from_images(ring, {"t": ring.one()})
        m = RingMap.from_images(ring, {})
        d = SigmaDerivation.from_images(ring, m, {})
        stream = Stream(5)
        for _ in range(10):
            r = ring.random_elem(stream, 0)
            assert m.apply(r) == r
            assert d.apply(r).is_zero()


def test_laurent_generator_image_must_be_unit():
    q = LQ.generator("q")
    with pytest.raises(NotAUnitError):
        RingMap.from_images(LQ, {"q": q + 1})


def test_random_elem_contract():
    a = QQ.random_elem(Stream(123), 0)
    b = QQ.random_elem(Stream(123), 0)
    assert a == b  # same seed, same element
    assert QQ.random_elem(Stream(124), 0) != a or True  # different seed may differ
    for _ in (1, 2):
        p = QT.random_elem(Stream(99), 2)
        for exps, _c in p.value:
            assert sum(exps) <= 2
    assert MIXED.random_elem(Stream(7), 3) == MIXED.random_elem(Stream(7), 3)


def test_canonical_no_zero_terms():
    stream = Stream(31)
    for ring in (QT, LQ, MIXED):
        for _ in range(50):
            x = ring.random_elem(stream, 2)
            y = ring.random_elem(stream, 2)
            z = x * y + (-(x * y))
            assert z.is_zero() and z.value == ()
            for _key, coeff in (x + y).value:
                assert not ring.base._is_zero(coeff)


def test_format_parses_concepts():
    q = LQ.generator("q")
    assert str(2 * q**3) == "2*q^3"
    assert str(q**-2) == "q^-2"
    assert str(QQ.from_fraction(Fraction(-5, 6))) == "-5/6"
    t = MIXED.generator("t")
    qq = MIXED.generator("q")
    assert str((qq + 1) * t) == "(q + 1)*t"


# -- raw values of Q: int when integral, else a reduced Fraction -----------


def test_integral_rationals_are_ints():
    two = QQ.from_fraction(Fraction(4, 2)).value
    assert type(two) is int and two == 2
    third = QQ.from_int(3).inverse().value
    assert type(third) is Fraction and third == Fraction(1, 3)
    assert QQ.elem(Fraction(2)) == QQ.elem(2)
    assert hash(QQ.elem(Fraction(2))) == hash(QQ.elem(2))


def _rational_values(ring, value):
    if ring == QQ:
        return [value]
    return [c for _, c in value]


def test_rational_values_are_int_exactly_when_integral():
    stream = Stream(29)
    kinds = set()
    for ring in (QQ, LQ):
        for _ in range(60):
            a = ring.random_elem(stream, 2)
            b = ring.random_elem(stream, 2)
            results = [a, a + b, a * b, a - b, -a]
            if a.is_unit():
                results.append(a.inverse())
            for r in results:
                for c in _rational_values(ring, r.value):
                    assert type(c) in (int, Fraction)
                    assert (type(c) is int) == (c.denominator == 1), (ring, c)
                    kinds.add(type(c))
    assert kinds == {int, Fraction}
