"""Poly arithmetic, the product engine, and its leading-term contracts."""

import itertools
import math
from fractions import Fraction

import pytest

from skewpbw import catalog
from skewpbw.catalog import StructureConstants, lie_presentation
from skewpbw.algebra import (
    InconsistentPresentationError,
    Poly,
    decompose_var_coeff,
    monomial_product,
    sigma_pow,
    star,
)
from skewpbw.expr import eval_str
from skewpbw.reduction import star_oracle
from skewpbw.rings import (
    LaurentRing,
    PolyRing,
    PrimeField,
    QQ,
    Rationals,
    RingMap,
    SigmaDerivation,
)
from skewpbw.presentation import Presentation, check_all
from skewpbw.rng import Stream

from .genutil import perturbed_presentation, random_elem, random_nonzero, random_poly
from .test_rings import _summands


def test_deg():
    W = catalog.get("weyl", 1)
    assert Poly(W, {(1, 2): W.ring.one()}).deg() == 3
    assert Poly.const(W, 5).deg() == 0
    assert Poly.zero(W).deg() is None


def test_weyl_defining_relation(weyl1):
    x1 = Poly.variable(weyl1, 0)
    x2 = Poly.variable(weyl1, 1)
    assert star(x2, x1) == Poly(
        weyl1, {(1, 1): weyl1.ring.one(), (0, 0): weyl1.ring.one()}
    )


def test_weyl_degree_two(weyl1):
    # frozen from the word-level route: x2^2 * x1 = x1 x2^2 + 2 x2
    x1 = Poly.variable(weyl1, 0)
    x2 = Poly.variable(weyl1, 1)
    lhs = star(star(x2, x2), x1)
    expected = Poly(weyl1, {(1, 2): weyl1.ring.one(), (0, 1): weyl1.ring.from_int(2)})
    assert lhs == expected
    assert star_oracle(star(x2, x2), x1) == expected


def test_quantum_plane_powers(quantum_plane):
    q = quantum_plane.ring.generator("q")
    x1 = Poly.variable(quantum_plane, 0)
    x2 = Poly.variable(quantum_plane, 1)
    assert star(x2**2, x1) == Poly(quantum_plane, {(1, 2): q * q})


def test_one_is_identity(catalog_entries):
    for name, P in catalog_entries:
        stream = Stream(83).split(name)
        for _ in range(10):
            f = random_poly(P, stream, 3)
            assert star(Poly.one(P), f) == f
            assert star(f, Poly.one(P)) == f


def test_sigma_pow(quantum_plane):
    # over the quantum plane the twists are trivial
    r = quantum_plane.ring.generator("q")
    assert sigma_pow((2, 1), r, quantum_plane) == r

    # sigma(t) = q t iterated twice
    ring = PolyRing(LaurentRing(QQ, "q"), ("t",))
    q = ring.generator("q")
    t = ring.generator("t")
    sigma = RingMap.from_images(ring, {"t": q * t})
    P = Presentation(ring, ("u",), sigma=[sigma])
    assert sigma_pow((2,), t, P) == q * q * t
    assert sigma_pow((0,), t, P) == t


def test_sigma_pow_composition_order():
    # two different twists: slot 2 applies first
    ring = PolyRing(LaurentRing(QQ, "q"), ("t",))
    q = ring.generator("q")
    t = ring.generator("t")
    s1 = RingMap.from_images(ring, {"t": q * t})
    s2 = RingMap.from_images(ring, {"t": t * t})
    P = Presentation(ring, ("u", "v"), sigma=[s1, s2])
    # sigma1(sigma2(t)) = sigma1(t^2) = q^2 t^2
    assert sigma_pow((1, 1), t, P) == (q * t) * (q * t)


def test_decompose_var_coeff_trivial(weyl1):
    r = weyl1.ring.from_int(7)
    r_alpha, tail = decompose_var_coeff((0, 0), r, weyl1)
    assert r_alpha == r and tail.is_zero()
    with pytest.raises(ValueError):
        decompose_var_coeff((1, 0), weyl1.ring.zero(), weyl1)


def test_decompose_var_coeff_pure_twist_case(quantum_plane):
    # all derivations zero: the tail vanishes for every slot and coefficient
    q = quantum_plane.ring.generator("q")
    for alpha in [(1, 0), (2, 1), (0, 3)]:
        r_alpha, tail = decompose_var_coeff(alpha, q + 1, quantum_plane)
        assert tail.is_zero()
        assert r_alpha == q + 1


def test_monomial_product_examples(quantum_plane, weyl1):
    c, tail = monomial_product((0, 1), (1, 0), quantum_plane)
    assert c == quantum_plane.ring.generator("q") and tail.is_zero()
    c, tail = monomial_product((2, 3), (0, 0), quantum_plane)
    assert c == quantum_plane.ring.one() and tail.is_zero()
    c, tail = monomial_product((0, 1), (1, 0), weyl1)
    assert c == weyl1.ring.one()
    assert tail == Poly.one(weyl1)


def test_quantum_plane_qab(quantum_plane):
    q = quantum_plane.ring.generator("q")
    for a in range(4):
        for b in range(4):
            c, tail = monomial_product((0, a), (b, 0), quantum_plane)
            assert c == q ** (a * b)
            assert tail.is_zero()


def test_monomial_product_flags_inconsistency():
    # c non-unit: t in Q[t]; the product engine cannot produce a unit leader
    ring = PolyRing(QQ, ("t",))
    t = ring.generator("t")
    P = Presentation(ring, ("u", "v"), c={(0, 1): t})
    with pytest.raises(InconsistentPresentationError):
        monomial_product((0, 1), (1, 0), P)


def test_ring_axioms_randomized(catalog_entries):
    for name, P in catalog_entries:
        stream = Stream(89).split(name)
        for _ in range(20):
            f = random_poly(P, stream, 3)
            g = random_poly(P, stream, 3)
            h = random_poly(P, stream, 3)
            assert star(star(f, g), h) == star(f, star(g, h))
            assert star(f + g, h) == star(f, h) + star(g, h)
            assert star(f, g + h) == star(f, g) + star(f, h)


def test_oracle_equivalence_randomized(catalog_entries):
    from .genutil import qdiff_presentation

    entries = list(catalog_entries) + [("qdiff", qdiff_presentation())]
    for name, P in entries:
        stream = Stream(97).split(name)
        for _ in range(25):
            f = random_poly(P, stream, 4)
            g = random_poly(P, stream, 4)
            assert star(f, g) == star_oracle(f, g)


def test_degree_subadditivity(catalog_entries):
    for name, P in catalog_entries:
        stream = Stream(103).split(name)
        for _ in range(25):
            f = random_poly(P, stream, 3)
            g = random_poly(P, stream, 3)
            prod = star(f, g)
            if f.is_zero() or g.is_zero():
                assert prod.is_zero()
                continue
            assert prod.deg() <= f.deg() + g.deg()
            # catalog coefficients are domains: degrees are exactly additive
            assert prod.deg() == f.deg() + g.deg()


def test_leading_term_contracts_randomized(catalog_entries):
    for name, P in catalog_entries:
        stream = Stream(107).split(name)
        for _ in range(30):
            alpha = tuple(stream.below(3) for _ in range(P.n))
            r = random_nonzero(P.ring, stream, 1)
            r_alpha, tail = decompose_var_coeff(alpha, r, P)
            assert r_alpha == sigma_pow(alpha, r, P)
            assert tail.is_zero() or tail.deg() < sum(alpha)
            if r.is_unit():
                assert r_alpha.is_unit()
            beta = tuple(stream.below(3) for _ in range(P.n))
            c, tail2 = monomial_product(alpha, beta, P)
            assert c.is_unit()
            assert tail2.is_zero() or tail2.deg() < sum(alpha) + sum(beta)


def test_left_module_compatibility(catalog_entries):
    for name, P in catalog_entries:
        stream = Stream(109).split(name)
        for _ in range(15):
            f = random_poly(P, stream, 2)
            g = random_poly(P, stream, 2)
            r = random_elem(P.ring, stream, 1)
            assert star(f.scale(r), g) == star(f, g).scale(r)
            s = random_elem(P.ring, stream, 1)
            assert f.scale(r).scale(s) == f.scale(r * s)
            # scalars enter products from the left
            assert star(Poly.const(P, r), Poly.monomial(P, tuple(1 for _ in range(P.n)))) == Poly.monomial(
                P, tuple(1 for _ in range(P.n))
            ).scale(r)


def test_presentation_mismatch(weyl1, quantum_plane):
    f = Poly.one(weyl1)
    g = Poly.one(quantum_plane)
    with pytest.raises(ValueError):
        star(f, g)


def test_poly_pow_and_scalar_ops(weyl1):
    x2 = Poly.variable(weyl1, 1)
    assert x2**0 == Poly.one(weyl1)
    assert x2**3 == star(x2, star(x2, x2))
    f = random_poly(weyl1, Stream(5), 2)
    assert f + (-1) * f == Poly.zero(weyl1)


def test_pow_by_squaring_matches_repeated_products(catalog_entries):
    for name, P in catalog_entries:
        stream = Stream(97).split(name)
        for _ in range(4):
            f = random_poly(P, stream, 2)
            out = Poly.one(P)
            for k in range(6):
                assert f**k == out, (name, k)
                out = star(out, f)


# -- closed forms, computed without the engine ------------------------------


def test_weyl_closed_form_large_coefficients():
    # x2^a x1^b = sum_k k! C(a,k) C(b,k) x1^(b-k) x2^(a-k)  when [x2, x1] = 1
    W = catalog.get("weyl", 1)
    a = b = 48
    x1, x2 = Poly.variable(W, 0), Poly.variable(W, 1)
    expected = Poly(
        W,
        {
            (b - k, a - k): W.ring.from_int(math.factorial(k) * math.comb(a, k) * math.comb(b, k))
            for k in range(min(a, b) + 1)
        },
    )
    assert star(x2**a, x1**b) == expected


def test_quantum_plane_closed_form():
    # x2^a x1^b = q^(ab) x1^b x2^a  when x2 x1 = q x1 x2
    P = catalog.get("quantum_plane")
    a = b = 32
    q = P.ring.generator("q")
    x1, x2 = Poly.variable(P, 0), Poly.variable(P, 1)
    assert star(x2**a, x1**b) == Poly.monomial(P, (b, a), q ** (a * b))


@pytest.mark.parametrize("name", ["diffusion2", "quantum_matrices2"])
def test_signed_cubes_match_oracle_over_towers(name):
    # diffusion2: Q[q^+-1] coefficients, c = q and linear terms;
    # quantum_matrices2: Q[q^+-1][b, c], non-identity twists and d != 0
    P = catalog.get(name)
    x1, x2 = Poly.variable(P, 0), Poly.variable(P, 1)
    for lam in (1, -1):
        for mu in (1, -1):
            f, g = (lam * x2) ** 3, (mu * x1) ** 3
            assert star(f, g) == star_oracle(f, g)


def test_quantum_matrices_multiterm_coefficients_match_oracle():
    # random_poly coefficients on quantum_matrices2 are multiples of b, so
    # each factor is scaled by a second draw to bring c and b^2 in
    P = catalog.get("quantum_matrices2")
    ring = P.ring
    stream = Stream(67)
    covered = 0
    for _ in range(6):
        f, g = (
            Poly(P, {a: c * random_nonzero(ring, stream, 2) for a, c in h.terms.items()})
            for h in (random_poly(P, stream, 2, 3), random_poly(P, stream, 2, 3))
        )
        for c in f.terms.values():
            summands = list(_summands(ring, c.value))
            covered += (
                len(summands) > 1
                and any(type(s) is Fraction for s, _ in summands)
                and {"b", "c"} <= {name for _, p in summands for name, e in p.items() if e}
            )
        assert star(f, g) == star_oracle(f, g)
    assert covered >= 3


def test_exponent_cap(weyl1, quantum_plane):
    from skewpbw.algebra import EXPONENT_CAP, ExponentCapError

    with pytest.raises(ExponentCapError):
        Poly(weyl1, {(EXPONENT_CAP, 0): weyl1.ring.one()})
    # one below the cap constructs fine; bumping it in a product fails loudly
    f = Poly.monomial(weyl1, (EXPONENT_CAP - 1, 0))
    with pytest.raises(ExponentCapError):
        star(Poly.variable(weyl1, 0), f)
    # x2 x1 x2^(cap-1) = (x2 x1) x2^(cap-1) lands on x2^cap
    for P in (weyl1, quantum_plane):
        g = Poly.monomial(P, (1, EXPONENT_CAP - 1))
        with pytest.raises(ExponentCapError):
            star(Poly.variable(P, 1), g)


def _ore(ring, twist_images, derivation_images):
    sigma = RingMap.from_images(ring, twist_images)
    delta = SigmaDerivation.from_images(ring, sigma, derivation_images)
    return Presentation(ring, ("u",), sigma=[sigma], delta=[delta])


def _twisted_derivation():
    # Q[q^+-1][t][u; sigma(t) = q t, delta(t) = 1]
    ring = PolyRing(LaurentRing(QQ, "q"), ("t",))
    q, t = ring.generator("q"), ring.generator("t")
    return _ore(ring, {"t": q * t}, {"t": ring.one()})


def _d_dt():
    # Q[t][u; d/dt]
    ring = PolyRing(QQ, ("t",))
    return _ore(ring, {}, {"t": ring.one()})


def _laurent_twist():
    # Q[q^+-1][u; sigma(q) = 2q, delta(q) = q]
    ring = LaurentRing(QQ, "q")
    q = ring.generator("q")
    return _ore(ring, {"q": 2 * q}, {"q": q})


_FRESH = {name: (lambda name=name: catalog.get(name)) for name, _ in catalog.all_presentations()}
_FRESH.update(twisted_derivation=_twisted_derivation, d_dt=_d_dt, laurent_twist=_laurent_twist)


def _times_last_power(g: Poly, e: int) -> Poly:
    """g x_n^e, written down directly: x^beta x_n^e is standard."""
    return Poly(g.pres, {a[:-1] + (a[-1] + e,): c for a, c in g.terms.items()})


@pytest.mark.parametrize("name", sorted(_FRESH))
def test_last_variable_powers_match_oracle_cold_and_warm(name):
    # the variable push factors x_n^e out of the right factor and memoizes
    # the shifted result under the full key: a fresh memo and one warmed by
    # other products must both agree with the word-level route
    cold, warm = _FRESH[name](), _FRESH[name]()
    stream = Stream(89).split(name)
    cases = []
    for e in (1, 2, 3):
        for _ in range(2):
            f = random_poly(cold, stream, 3, 3)
            g = _times_last_power(random_poly(cold, stream, 2, 2), e)
            cases.append((f, g, star_oracle(f, g)))
    for _ in range(4):
        star(random_poly(warm, stream, 2, 2), random_poly(warm, stream, 4, 3))
    for f, g, expected in cases:
        assert star(f, g) == expected
    for f, g, expected in reversed(cases):
        got = star(Poly(warm, f.terms), Poly(warm, g.terms))
        assert got.terms == expected.terms


# ---------------------------------------------------------------------------
# the fraction-free kernel: star multiplies D*f and E*g, then divides by D*E


def _integral(f: Poly) -> Poly:
    """f with each coefficient multiplied by its own denominator."""
    ring = f.pres.ring
    return Poly(f.pres, {a: c * ring._denominator(c.value) for a, c in f.terms.items()})


def _fractional(f: Poly, stream: Stream) -> Poly:
    """f with each coefficient divided by a drawn k in 2..9."""
    return Poly(f.pres, {a: c * Fraction(1, stream.int_between(2, 9)) for a, c in f.terms.items()})


def _fraction_cases(P, stream: Stream, draws: int = 5):
    """Operand pairs with only f, only g, or both fractional, and a zero
    operand on either side."""
    zero = Poly.zero(P)
    for _ in range(draws):
        f, g = (_integral(random_poly(P, stream, 3, 3)) for _ in range(2))
        ff, gf = _fractional(f, stream), _fractional(g, stream)
        yield from ((ff, g), (f, gf), (ff, gf), (zero, gf), (ff, zero))


def _non_integral_presentations():
    """Consistent presentations whose own parameters are not all integral,
    and one over a prime field."""
    so3 = {(0, 1): [0, 0, -1], (0, 2): [0, 1, 0], (1, 2): [-1, 0, 0]}
    half_so3 = StructureConstants.build(
        QQ, 3, {ij: [QQ.from_fraction(Fraction(v, 2)) for v in vec] for ij, vec in so3.items()}
    )
    f11 = PrimeField(11)
    sl2_f11 = StructureConstants.build(
        f11, 3, {(0, 1): [0, 0, -1], (0, 2): [2, 0, 0], (1, 2): [0, -2, 0]}
    )
    laurent = LaurentRing(QQ, "q")
    two_thirds, fifth = QQ.from_fraction(Fraction(2, 3)), QQ.from_fraction(Fraction(1, 5))
    return [
        ("half_so3", lie_presentation(half_so3)),
        ("c=2/3", Presentation(QQ, ("x1", "x2"), c={(0, 1): two_thirds}, d={(0, 1): fifth})),
        ("c=q/2", Presentation(laurent, ("x1", "x2"), c={(0, 1): laurent.generator("q") * Fraction(1, 2)})),
        ("sl2/F11", lie_presentation(sl2_f11)),
    ]


def test_fractional_operands_match_oracle(catalog_entries):
    for name, P in catalog_entries:
        stream = Stream(131).split(name)
        fractional = 0
        for f, g in _fraction_cases(P, stream):
            fractional += any(P.ring._denominator(c.value) > 1 for c in f.terms.values())
            assert star(f, g) == star_oracle(f, g), name
        assert fractional >= 5, name


def test_fractional_operands_over_non_integral_parameters():
    for name, P in _non_integral_presentations():
        assert check_all(P).overall, name
        stream = Stream(137).split(name)
        for f, g in _fraction_cases(P, stream):
            assert star(f, g) == star_oracle(f, g), name


def test_thirty_distinct_prime_denominators():
    P = catalog.get("weyl", 2)
    stream = Stream(139)
    primes = [p for p in range(2, 130) if all(p % d for d in range(2, p))][:30]
    monomials = [a for a in itertools.product(range(3), repeat=4) if sum(a) <= 3][:30]
    f = Poly(
        P,
        {a: QQ.from_fraction(Fraction(stream.int_between(1, 9), p)) for a, p in zip(monomials, primes)},
    )
    assert len(f.terms) == 30
    for _ in range(3):
        g = _fractional(_integral(random_poly(P, stream, 3, 3)), stream)
        assert star(f, g) == star_oracle(f, g)
        assert star(g, f) == star_oracle(g, f)


def test_denominators_are_cleared_before_the_kernel(weyl1, monkeypatch):
    # the only Fraction operands of Rationals._mul inside star are the
    # scalings of the fractional input coefficients by D and by E
    f = eval_str("1/2*x2^3 + 1/3*x2 + 4", weyl1)
    g = eval_str("2/3*x1^2 + 5/7*x1 + 1/4", weyl1)
    expected = star_oracle(f, g)
    calls = []
    mul = Rationals._mul

    def counting(self, a, b):
        calls.append(type(a) is Fraction or type(b) is Fraction)
        return mul(self, a, b)

    monkeypatch.setattr(Rationals, "_mul", counting)
    assert star(f, g) == expected
    assert len(calls) > 20 and sum(calls) == 2 + 3


def test_clearing_denominators_changes_no_product(monkeypatch):
    # rational scalars are central because every twist fixes and every
    # derivation kills the prime field, which holds by construction, so
    # clearing is exact also over presentations that fail the checks
    stream = Stream(149)
    pres = [perturbed_presentation(stream.split(k)) for k in range(12)]
    pres += [P for _, P in _non_integral_presentations()]
    assert sum(not check_all(P).overall for P in pres) >= 3
    cases = [case for P in pres for case in _fraction_cases(P, stream, 2)]
    cleared = [star(f, g) for f, g in cases]
    monkeypatch.setattr(Rationals, "_denominator", lambda self, a: 1)
    for (f, g), got in zip(cases, cleared):
        plain = star(f, g)
        assert got.terms == plain.terms and str(got) == str(plain)
