"""Coefficient rings: canonical arithmetic, units, structure maps."""

import math
from fractions import Fraction

import pytest

from skewpbw.rings import (
    PRIME_CAP,
    LaurentRing,
    NotAUnitError,
    PolyRing,
    PrimeField,
    QQ,
    RingMap,
    RingMismatchError,
    SigmaDerivation,
    _is_prime,
)
from skewpbw.rng import Stream

from .genutil import random_elem

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
        x = random_elem(ring, Stream(7), 2)
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
            x = random_elem(ring, stream, 2)
            if x.is_unit():
                assert x * x.inverse() == ring.one()


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        QQ.one() + F5.one()


def test_commutative_ring_axioms_randomized():
    stream = Stream(11)
    for ring in ALL_RINGS:
        for _ in range(30):
            a = random_elem(ring, stream, 2)
            b = random_elem(ring, stream, 2)
            c = random_elem(ring, stream, 2)
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


def _is_prime_by_trial_division(p):
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def test_is_prime_matches_trial_division():
    assert [p for p in range(-2, 10**4) if _is_prime(p)] == [
        p for p in range(-2, 10**4) if _is_prime_by_trial_division(p)
    ]


def test_is_prime_on_large_inputs():
    # 10^18 + 3 and 2^61 - 1 are prime; 318665857834031151167461 is a strong
    # pseudoprime to every prime base below 41, and 2^67 - 1 is composite
    assert _is_prime(10**18 + 3) and _is_prime(2**61 - 1)
    assert not _is_prime(318665857834031151167461) and not _is_prime(2**67 - 1)
    assert PrimeField(10**18 + 3).from_int(-1).value == 10**18 + 2
    for p in (PRIME_CAP, 10**29 + 1):
        with pytest.raises(ValueError, match=f"must be below {PRIME_CAP}"):
            PrimeField(p)


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


def _known_structure_maps():
    """(sigma_i, delta_i) of every catalog entry and of the q-difference
    test presentation."""
    from skewpbw import catalog

    from .genutil import qdiff_presentation

    for P in [P for _, P in catalog.all_presentations()] + [qdiff_presentation()]:
        yield from zip(P.sigma, P.delta)


def test_map_laws_randomized():
    stream = Stream(23)
    q = MIXED.generator("q")
    t = MIXED.generator("t")
    maps = [
        RingMap.identity(MIXED),
        RingMap.from_images(MIXED, {"t": q * t}),
        RingMap.from_images(MIXED, {"t": t * t + 1, "q": q**-1}),
    ]
    maps += [sigma for sigma, _ in _known_structure_maps()]
    for sigma in maps:
        ring = sigma.ring
        assert sigma.apply(ring.one()) == ring.one()
        for _ in range(25):
            r = random_elem(ring, stream, 2)
            s = random_elem(ring, stream, 2)
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
    cases += list(_known_structure_maps())
    for twist, delta in cases:
        ring = delta.ring
        assert delta.apply(ring.one()).is_zero()
        for _ in range(25):
            r = random_elem(ring, stream, 2)
            s = random_elem(ring, stream, 2)
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
            r = random_elem(ring, stream, 0)
            assert m.apply(r) == r
            assert d.apply(r).is_zero()


def test_laurent_generator_image_must_be_unit():
    q = LQ.generator("q")
    with pytest.raises(NotAUnitError):
        RingMap.from_images(LQ, {"q": q + 1})


def test_random_elem_contract():
    a = random_elem(QQ, Stream(123), 0)
    b = random_elem(QQ, Stream(123), 0)
    assert a == b  # same seed, same element
    assert random_elem(QQ, Stream(124), 0) != a or True  # different seed may differ
    for _ in (1, 2):
        p = random_elem(QT, Stream(99), 2)
        for exps, _c in p.value:
            assert sum(exps) <= 2
    assert random_elem(MIXED, Stream(7), 3) == random_elem(MIXED, Stream(7), 3)


def test_canonical_no_zero_terms():
    stream = Stream(31)
    for ring in (QT, LQ, MIXED):
        for _ in range(50):
            x = random_elem(ring, stream, 2)
            y = random_elem(ring, stream, 2)
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
            a = random_elem(ring, stream, 2)
            b = random_elem(ring, stream, 2)
            results = [a, a + b, a * b, a - b, -a]
            if a.is_unit():
                results.append(a.inverse())
            for r in results:
                for c in _rational_values(ring, r.value):
                    assert type(c) in (int, Fraction)
                    assert (type(c) is int) == (c.denominator == 1), (ring, c)
                    kinds.add(type(c))
    assert kinds == {int, Fraction}


# -- structure maps against an independent rebuild --------------------------
#
# sigma(r) and delta(r) are rebuilt here with plain CoeffElem arithmetic from
# the generator images: summands read off the tower's value layout, powers by
# repeated multiplication, d(g^e) as the linear twisted Leibniz sum.

QM2 = PolyRing(LaurentRing(QQ, "q"), ("b", "c"))  # quantum_matrices2 coefficients
F7_TOWER = PolyRing(PrimeField(7), ("t", "u"))
F5_LAURENT_TOWER = PolyRing(LaurentRing(F5, "q"), ("t",))


def _summands(ring, value):
    """(prime scalar, {generator: exponent}) summands of a raw value."""
    if isinstance(ring, LaurentRing):
        for e, c in value:
            yield c, {ring.var: e}
    elif isinstance(ring, PolyRing):
        for exps, c in value:
            for s, inner in _summands(ring.base, c):
                yield s, {**inner, **dict(zip(ring.vars, exps))}
    elif value != 0:
        yield value, {}


def _power(x, e):
    base = x if e >= 0 else x.inverse()
    out = x.ring.one()
    for _ in range(abs(e)):
        out = out * base
    return out


def _sigma_oracle(sigma, r):
    out = sigma.target.zero()
    for s, powers in _summands(r.ring, r.value):
        term = sigma.target.from_fraction(Fraction(s))
        for g, e in powers.items():
            term = term * _power(sigma.image(g), e)
        out = out + term
    return out


def _d_power_oracle(delta, g, e):
    """d(g^e) = sum over m < e of sigma(g)^m d(g) g^(e-1-m); for e < 0, from
    0 = d(g^e g^-e) = sigma(g)^e d(g^-e) + d(g^e) g^-e."""
    ring = delta.ring
    x, sx, dx = ring.generator(g), delta.twist.image(g), delta.image(g)
    if e < 0:
        return -(_power(sx, e) * _d_power_oracle(delta, g, -e) * _power(x, e))
    out = ring.zero()
    for m in range(e):
        out = out + _power(sx, m) * dx * _power(x, e - 1 - m)
    return out


def _delta_oracle(delta, r):
    ring = r.ring
    out = ring.zero()
    for s, powers in _summands(ring, r.value):
        factors = [(g, e) for g, e in powers.items() if e]
        for k, (g, e) in enumerate(factors):
            term = ring.from_fraction(Fraction(s))
            for h, x in factors[:k]:
                term = term * _power(delta.twist.image(h), x)
            term = term * _d_power_oracle(delta, g, e)
            for h, x in factors[k + 1 :]:
                term = term * _power(ring.generator(h), x)
            out = out + term
    return out


def _twisted_pairs():
    """(twist, derivation) pairs over Laurent, mixed, quantum-matrix and F_p
    towers.  lam * (sigma - id) is a sigma-derivation for every lam."""

    def inner(ring, images, lam):
        sigma = RingMap.from_images(ring, images)
        d = {g: lam * (sigma.image(g) - ring.generator(g)) for g in ring.generator_names()}
        return sigma, SigmaDerivation.from_images(ring, sigma, d)

    q, t = MIXED.generator("q"), MIXED.generator("t")
    mixed_sigma = RingMap.from_images(MIXED, {"t": q * t})
    qb, b, c = QM2.generator("q"), QM2.generator("b"), QM2.generator("c")
    ft, fu = F7_TOWER.generator("t"), F7_TOWER.generator("u")
    lq = LQ.generator("q")
    gq, gt = F5_LAURENT_TOWER.generator("q"), F5_LAURENT_TOWER.generator("t")
    lq_identity = RingMap.identity(LQ)
    half = Fraction(1, 2)
    return [
        inner(LQ, {"q": 2 * lq**-1}, lq**2 - Fraction(1, 3)),
        (lq_identity, SigmaDerivation.from_images(LQ, lq_identity, {"q": lq * lq})),
        inner(MIXED, {"q": q**-1, "t": q * t + half}, t - Fraction(2, 3) * q),
        (mixed_sigma, SigmaDerivation.from_images(MIXED, mixed_sigma, {"t": MIXED.one()})),
        inner(QM2, {"b": qb**-1 * b, "c": qb**-1 * c}, qb - half),
        inner(QM2, {"q": qb**-1, "b": qb * c + half * b, "c": b * b * c}, b - Fraction(2, 3) * qb),
        inner(F7_TOWER, {"t": 3 * ft + fu, "u": fu * fu}, ft + 2),
        inner(F5_LAURENT_TOWER, {"q": 2 * gq**-1, "t": gq * gt}, gt - 1),
    ]


def _samples(ring, stream, count):
    """Random elements, half of them times a generator monomial with
    exponents up to 9 (down to -9 on Laurent generators)."""
    inverted = ring.inverted_generator_names()
    for k in range(count):
        r = random_elem(ring, stream, 2)
        if k % 2:
            for g in ring.generator_names():
                low = -9 if g in inverted else 0
                r = r * ring.generator(g) ** stream.int_between(low, 9)
        yield r


def _long_q_coefficients(stream, count):
    """Elements of QM2: a 31-term Laurent polynomial in q times b^m c^m."""
    q, b, c = (QM2.generator(g) for g in ("q", "b", "c"))
    for m in range(count):
        coeff = QM2.zero()
        for e in range(-15, 16):
            sign = 1 if stream.below(2) else -1
            s = Fraction(sign * stream.int_between(1, 9), stream.int_between(1, 4))
            coeff = coeff + s * q**e
        yield coeff * b**m * c**m


def test_structure_maps_match_independent_rebuild():
    """Layer-by-layer evaluation against the flattened sum over summands:
    twists that fix q or move it, a map into another ring, and the
    derivations' maps into triangular matrices, on short random elements
    and on long q-coefficients times b^m c^m."""
    stream = Stream(61)
    negative = long = 0
    mq, mt = MIXED.generator("q"), MIXED.generator("t")
    into_mixed = RingMap.from_images(QM2, {"q": 2 * mq**-1, "b": mq * mt + 1, "c": mt * mt}, MIXED)
    for sigma, delta in _twisted_pairs() + [(into_mixed, None)]:
        ring = sigma.ring
        samples = list(_samples(ring, stream, 12))
        if ring == QM2:
            samples += _long_q_coefficients(stream, 6)
        for r in samples:
            assert sigma.apply(r) == _sigma_oracle(sigma, r), (ring.describe(), r)
            if delta is not None:
                assert delta.apply(r) == _delta_oracle(delta, r), (ring.describe(), r)
            negative += any(e < 0 for _, p in _summands(ring, r.value) for e in p.values())
            long += any(len(c) >= 30 for _, c in r.value) if ring == QM2 else 0
    assert negative >= 10
    assert long >= 15


def test_fixed_coefficient_layer_costs_no_products_per_q_term(monkeypatch):
    """sigma_a of quantum_matrices2 fixes q, so twisting a q-coefficient
    times b^5 c^5 takes as many polynomial products for 40 q-terms as for
    one, once the image powers are memoised."""
    from skewpbw import catalog

    P = catalog.get("quantum_matrices2")
    sigma, ring = P.sigma[0], P.ring
    q, b, c = (ring.generator(g) for g in ("q", "b", "c"))
    short = q**3 * b**5 * c**5
    long = sum((Fraction(k % 7 + 1, 2) * q ** (k - 20) for k in range(40)), ring.zero())
    long = long * b**5 * c**5
    assert [len(coeff) for _, coeff in short.value + long.value] == [1, 40]
    sigma.apply(short)  # fills the ladder
    counts, images = [], []
    real = PolyRing._mul

    def counting(self, x, y):
        counts[-1] += 1
        return real(self, x, y)

    with monkeypatch.context() as patch:
        patch.setattr(PolyRing, "_mul", counting)
        for r in (short, long):
            counts.append(0)
            images.append(sigma.apply(r))
    assert counts[0] == counts[1] > 0, counts
    assert images == [_sigma_oracle(sigma, r) for r in (short, long)]


def test_derivation_of_generator_powers_matches_linear_sum():
    for _sigma, delta in _twisted_pairs():
        ring = delta.ring
        inverted = ring.inverted_generator_names()
        for g in ring.generator_names():
            low = -8 if g in inverted else 0
            for e in range(low, 9):
                got = delta.apply(ring.generator(g) ** e)
                assert got == _d_power_oracle(delta, g, e), (ring.describe(), g, e)


def test_power_memo_is_bounded_and_invisible():
    """The ladder memo of a twist, of a coefficient map into another ring and
    of a derivation's triangular-matrix map stays bounded and takes no part
    in equality, hashing or printing."""
    qb, b, c = QM2.generator("q"), QM2.generator("b"), QM2.generator("c")
    mq, mt = MIXED.generator("q"), MIXED.generator("t")
    images = {"q": qb**-1, "b": qb * c + b, "c": b * c}
    phi_images = {"q": 2 * mq**-1, "b": mq * mt + 1, "c": mt * mt}
    derivation = {g: (qb - 1) * (img - QM2.generator(g)) for g, img in images.items()}

    def sigma():
        return RingMap.from_images(QM2, images)

    cases = [  # (build the map, the RingMap holding its memo, independent value at r)
        (sigma, lambda m: m, _sigma_oracle),
        (lambda: RingMap.from_images(QM2, phi_images, MIXED), lambda m: m, _sigma_oracle),
        (
            lambda: SigmaDerivation.from_images(QM2, sigma(), derivation),
            lambda d: d._matrix,
            _delta_oracle,
        ),
    ]
    for build, memo_holder, oracle in cases:
        m, fresh = build(), build()
        for e in (37, -37, 5, -2, 1):
            r = qb**e * b ** abs(e) * c ** (abs(e) % 7)
            assert m.apply(r) == oracle(m, r)
        # one entry per generator, sign and bit: 37 < 2^6
        ladder = memo_holder(m)._ladder
        assert ladder
        for g, sign, k in ladder:
            assert g in QM2.generator_names() and sign in (1, -1) and 0 <= k < 6
            assert sign == 1 or g == "q"
        assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)


def test_equal_coefficients_hash_as_their_raw_value(catalog_entries):
    """An element rebuilt from its summands by generator products equals the
    original and hashes alike, as its raw value, over every test and catalog
    ring, the Fraction, Laurent and polynomial towers among them."""
    rings = ALL_RINGS + [QM2, F5_LAURENT_TOWER, LaurentRing(F5, "q")]
    rings += [P.ring for _, P in catalog_entries]
    stream = Stream(67)
    fractions = 0
    for ring in rings:
        identity = RingMap.identity(ring)
        elems = [ring.zero(), ring.one(), ring.from_fraction(Fraction(-7, 3))]
        for r in elems + list(_samples(ring, stream, 10)):
            rebuilt = _sigma_oracle(identity, r)
            assert rebuilt == r and hash(rebuilt) == hash(r) == hash(r.value), (ring.describe(), r)
            fractions += any(type(s) is Fraction for s, _ in _summands(ring, r.value))
    assert fractions >= 10
    assert hash(QQ.from_int(3)) == hash(3) and {3: "three"}[QQ.from_int(3)] == "three"
    assert hash(QQ.from_fraction(Fraction(1, 2))) == hash(Fraction(1, 2))


def test_equal_raw_values_in_different_rings_stay_apart():
    q, r = LaurentRing(QQ, "q"), LaurentRing(QQ, "r")
    # same raw value: 3 in Q and F_5; the generator in Q[q^+-1], Q[r^+-1] and F_5[q^+-1]
    colliding = [
        (QQ.from_int(3), F5.from_int(3)),
        (q.generator("q"), r.generator("r")),
        (q.generator("q"), LaurentRing(F5, "q").generator("q")),
    ]
    # different raw values: the constant 3 in Q and in Q[q^+-1]
    apart = [(QQ.from_int(3), q.from_int(3)), (QQ.one(), QT.one())]
    for a, b in colliding + apart:
        assert a != b and b != a
        assert len({a: 1, b: 2}) == 2
    for a, b in colliding:
        assert a.value == b.value and hash(a) == hash(b)


# -- Laurent kernel against a schoolbook product ----------------------------


def _laurent(ring, terms):
    """The element of a Laurent ring with exponent -> rational coefficients,
    built from its canonical layout without the ring's arithmetic."""
    reduced = ((e, ring.base._from_fraction(Fraction(c))) for e, c in sorted(terms.items()))
    return ring.elem(tuple((e, c) for e, c in reduced if c))


def _schoolbook(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + Fraction(c1) * c2
    return out


def test_laurent_products_and_sums_match_schoolbook():
    """Products and sums in Q[q^+-1] and F_5[q^+-1] against exponent ->
    Fraction dicts: negative exponents, one term times a long operand in
    both orders, and sums and products whose terms cancel."""
    stream = Stream(71)

    def draw(size):
        # denominators prime to 5, so the same dict also reads over F_5
        terms = {}
        while len(terms) < size:
            sign = 1 if stream.below(2) else -1
            s = Fraction(sign * stream.int_between(1, 9), stream.int_between(1, 4))
            terms[stream.int_between(-20, 20)] = s
        return terms

    geometric = {e: 1 for e in range(-3, 9)}  # (sum_{-3}^{8} q^e) (1 - q) = q^-3 - q^9
    pairs = [(geometric, {0: 1, 1: -1}), ({}, draw(5))]
    for sizes in [(1, 1), (1, 30), (30, 1), (2, 30), (30, 30), (6, 3)]:
        pairs += [(draw(sizes[0]), draw(sizes[1])) for _ in range(4)]
    for a, b in list(pairs):
        pairs.append((a, {e: -c for e, c in a.items() if e % 2} | b))  # cancelling sum
    long_one_term = 0
    for ring in (LQ, LaurentRing(F5, "q")):
        for a, b in pairs:
            x, y = _laurent(ring, a), _laurent(ring, b)
            assert x * y == _laurent(ring, _schoolbook(a, b)), (ring.describe(), a, b)
            total = {e: a.get(e, 0) + b.get(e, 0) for e in a.keys() | b.keys()}
            assert x + y == _laurent(ring, total), (ring.describe(), a, b)
            long_one_term += min(len(a), len(b)) == 1 and max(len(a), len(b)) == 30
    assert _laurent(LQ, geometric) * _laurent(LQ, {0: 1, 1: -1}) == _laurent(LQ, {-3: 1, 9: -1})
    assert long_one_term >= 16


def test_denominator_and_exact_division():
    # D is the lcm of the denominators of all rational coefficients (1 over
    # F_p), and dividing by n gives back the canonical value of a / n
    stream = Stream(31)
    for ring in ALL_RINGS:
        rational = ring.prime_ring() == QQ
        for _ in range(40):
            k = stream.choice((1, 2, 3, 4, 6, 8, 9, 12))
            a = random_elem(ring, stream, 2) * Fraction(1, k)
            d = ring._denominator(a.value)
            dens = [Fraction(s).denominator for s, _ in _summands(ring, a.value)]
            assert d == (math.lcm(*dens) if rational else 1), (ring, a)
            assert all(Fraction(s).denominator == 1 for s, _ in _summands(ring, (a * d).value))
            for n in (1, 2, 3, 12):
                q = ring._div_int((a * n).value, n)
                assert q == a.value, (ring, a, n)
                # canonical: a rational coefficient is an int exactly when integral
                assert all((type(s) is int) == (s.denominator == 1) for s, _ in _summands(ring, q))
