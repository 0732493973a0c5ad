"""Parameter systems, derived mirror parameters, and the existence checker."""

import time
from fractions import Fraction

import pytest

from skewpbw import presentation
from skewpbw.catalog import StructureConstants, jacobiator, lie_presentation
from skewpbw.expr import coeff_from_str
from skewpbw.presentation import (
    MAX_KERNEL_WORK,
    Presentation,
    PresentationError,
    check_all,
    check_condition2,
    check_condition3,
    derived_params,
    validate_structure,
)
from skewpbw.rings import (
    LaurentRing,
    PolyRing,
    PrimeField,
    QQ,
    RingMap,
    SigmaDerivation,
)
from skewpbw.rng import Stream

from .genutil import random_elem, random_nonzero


def test_construction_validation():
    with pytest.raises(PresentationError):
        Presentation(QQ, ("u", "u"))  # duplicate names
    with pytest.raises(PresentationError):
        Presentation(QQ, ("x2", "x1"))  # positional names out of slot
    ring = LaurentRing(QQ, "q")
    with pytest.raises(PresentationError):
        Presentation(ring, ("q", "v"))  # collides with generator
    Presentation(QQ, ("x1", "x2"))  # positional names in slot are fine
    for kw in (  # a key is checked even when its value is the default
        {"c": {(1, 0): 1}},
        {"c": {(0, 0): QQ.one()}},
        {"d": {(0, 2): 0}},
        {"a": {(0, 1, 2): 0}},
        {"a": {(1, 0, 0): QQ.zero()}},
    ):
        with pytest.raises(PresentationError):
            Presentation(QQ, ("u", "v"), **kw)


def test_derived_params_quantum(quantum_plane):
    q = quantum_plane.ring.generator("q")
    c_ji, d_ji, a_ji = derived_params(quantum_plane, 1, 0)
    assert c_ji == q.inverse()
    assert not d_ji
    assert all(not x for x in a_ji)


def test_derived_params_weyl_pair(weyl1):
    c_ji, d_ji, a_ji = derived_params(weyl1, 1, 0)
    assert c_ji == weyl1.ring.one()
    assert d_ji == -weyl1.ring.one()
    assert all(not x for x in a_ji)


def test_derived_params_round_trip(catalog_entries):
    for name, P in catalog_entries:
        for i in range(P.n):
            for j in range(i + 1, P.n):
                c_ji, d_ji, a_ji = derived_params(P, j, i)
                # apply the mirror identities once more
                c_back = c_ji.inverse()
                d_back = -c_back * d_ji
                a_back = tuple(-c_back * x for x in a_ji)
                assert c_back == P.c_of(i, j)
                assert d_back == P.d_of(i, j)
                assert a_back == P.a_vector(i, j)


def test_validate_structure_catalog_passes(catalog_entries):
    for name, P in catalog_entries:
        rep = validate_structure(P, samples=8, seed=5)
        assert all(item.ok for item in rep.condition1), name
        assert all(item.ok for item in rep.c_units), name


def test_validate_structure_non_unit_c():
    ring = PolyRing(QQ, ("t",))
    P = Presentation(ring, ("u", "v"), c={(0, 1): ring.generator("t")})
    rep = validate_structure(P, samples=4, seed=1)
    bad = [item for item in rep.c_units if not item.ok]
    assert len(bad) == 1 and (bad[0].i, bad[0].j) == (0, 1)


class _BrokenDerivation:
    """Duck-typed stand-in whose apply ignores the Leibniz law."""

    def __init__(self, ring, twist):
        self.ring = ring
        self.twist = twist
        self.images = ()

    def apply(self, r):
        return self.ring.one() if r else self.ring.zero()  # not even additive


def test_validate_structure_detects_broken_leibniz():
    ring = PolyRing(QQ, ("t",))
    ident = RingMap.identity(ring)
    P = Presentation(
        ring,
        ("u",),
        sigma=[ident],
        delta=[SigmaDerivation.zero(ring, ident)],
    )
    P.delta = ( _BrokenDerivation(ring, ident), )
    rep = validate_structure(P, samples=8, seed=2)
    item = rep.condition1[0]
    assert not item.derivation_ok
    assert item.witness is not None


def test_injectivity_labels():
    ring = LaurentRing(QQ, "q")
    q = ring.generator("q")
    ident = RingMap.identity(ring)
    P1 = Presentation(ring, ("u",), sigma=[ident])
    rep = validate_structure(P1, samples=4, seed=3)
    assert rep.condition1[0].injectivity == "injective"
    assert rep.condition1[0].injectivity_mode == "structural"

    squared = RingMap.from_images(ring, {"q": q * q})
    P2 = Presentation(ring, ("u",), sigma=[squared])
    rep = validate_structure(P2, samples=4, seed=3)
    assert rep.condition1[0].injectivity == "injective"
    assert rep.condition1[0].injectivity_mode == "structural"

    mixed = PolyRing(LaurentRing(QQ, "q"), ("t",))
    qt = mixed.generator("q") * mixed.generator("t")
    P3 = Presentation(mixed, ("u",), sigma=[RingMap.from_images(mixed, {"t": qt})])
    rep = validate_structure(P3, samples=8, seed=3)
    assert rep.condition1[0].injectivity == "injective"
    assert rep.condition1[0].injectivity_mode == "structural"


def _one_twist(ring, images):
    return Presentation(ring, ("x",), sigma=[RingMap.from_images(ring, images)])


def test_constant_images_and_zero_jacobians_fail_condition_1():
    qt = PolyRing(QQ, ("t",))
    laurent_t = PolyRing(LaurentRing(QQ, "q"), ("t",))
    qst = PolyRing(QQ, ("s", "t"))
    t = qst.generator("t")
    cases = [
        (_one_twist(qt, {"t": qt.one()}), "sigma1(t - 1) = 0"),
        (_one_twist(laurent_t, {"t": laurent_t.generator("q")}), "zero Jacobian"),
        (_one_twist(qst, {"s": t, "t": t}), "zero Jacobian"),
    ]
    for P, witness in cases:
        for seed in range(4):
            rep = check_all(P, seed=seed)
            item = rep.condition1[0]
            assert (item.injectivity, item.injectivity_mode) == ("not injective", "structural")
            assert not item.nonzero_ok and not item.ok and not rep.overall
            assert witness in item.witness
            assert rep.failures() == [f"condition 1 fails at x1: {item.witness}"]


def test_laws_are_checked_by_type():
    ring = PolyRing(QQ, ("t",))
    sigma = RingMap.from_images(ring, {"t": 2 * ring.generator("t")})
    P = Presentation(ring, ("u",), sigma=[sigma])
    P.delta = (SigmaDerivation.zero(ring),)  # twisted by the identity, not by sigma
    item = validate_structure(P).condition1[0]
    assert item.endomorphism_ok and not item.derivation_ok and item.nonzero_ok
    assert item.witness == "delta1 is not a SigmaDerivation twisted by sigma1"
    P.sigma = (_BrokenDerivation(ring, sigma),)  # anything that is not a RingMap
    item = validate_structure(P).condition1[0]
    assert not item.endomorphism_ok and not item.ok
    assert (item.injectivity, item.injectivity_mode) == ("not decided", "skipped")
    assert item.witness == "sigma1 is not a RingMap"


def test_injectivity_is_structural_on_known_presentations(catalog_entries):
    from .genutil import qdiff_presentation

    for name, P in catalog_entries + [("qdiff", qdiff_presentation())]:
        for it in check_all(P).condition1:
            verdict = (it.injectivity, it.injectivity_mode, it.ok)
            assert verdict == ("injective", "structural", True), name


def test_injectivity_over_prime_fields():
    f5 = PolyRing(PrimeField(5), ("t",))
    item = validate_structure(_one_twist(f5, {"t": f5.generator("t") ** 5})).condition1[0]
    assert (item.injectivity, item.injectivity_mode) == ("injective", "structural")
    f7 = PolyRing(PrimeField(7), ("t", "u"))
    t, u = f7.generator("t"), f7.generator("u")
    laurent = PolyRing(LaurentRing(PrimeField(7), "q"), ("t",))
    q = laurent.generator("q")
    f5abc = PolyRing(PrimeField(5), ("a", "b", "c"))
    frobenius = {g: f5abc.generator(g) ** 5 for g in "abc"}
    # zero Jacobians, decided by the kernel search below Perron's bound
    cases = [
        (_one_twist(f7, {"t": t**7}), "injective", None),
        (_one_twist(f7, {"t": u}), "not injective", "sigma1(t - u) = 0"),
        (_one_twist(f5abc, frobenius), "injective", None),
        (
            _one_twist(laurent, {"q": q**7, "t": q**14 + q.inverse() ** 7}),
            "not injective",
            "sigma1(-q*t + q^3 + 1) = 0",
        ),
        # sigma(tq) = 1 with no constant generator image
        (_one_twist(laurent, {"q": q, "t": q.inverse()}), "not injective", "sigma1(-q*t + 1) = 0"),
    ]
    for P, verdict, witness in cases:
        item = validate_structure(P).condition1[0]
        assert (item.injectivity, item.injectivity_mode, item.witness) == (
            verdict,
            "structural",
            witness,
        )
        assert item.nonzero_ok == (verdict == "injective")
    # a nonzero Jacobian decides over F_p too
    item = validate_structure(_one_twist(f7, {"t": u, "u": t + u**7})).condition1[0]
    assert (item.injectivity, item.injectivity_mode) == ("injective", "structural")


def test_kernel_search_over_the_cap_is_undecided_and_bounded(monkeypatch):
    ring = PolyRing(PrimeField(7), ("s", "t"))
    s, t = ring.generator("s"), ring.generator("t")
    # Frobenius twists of dense images: the second has 703-term images, so
    # the product of two of them would pass the cap by itself
    frobenius = RingMap.from_images(ring, {"s": s**7, "t": t**7})
    dense = [
        sum(((i + 2 * j + c) % 7 or 1) * s**i * t**j for i in range(37) for j in range(37 - i))
        for c in (1, 3)
    ]
    twists = [
        {"s": (s + t + 1) ** 42, "t": (s - t + 2) ** 42},
        {"s": frobenius.apply(dense[0]), "t": frobenius.apply(dense[1])},
    ]
    products = []
    mul = PolyRing._mul

    def recording_mul(self, a, b):
        products.append(len(a) * len(b))
        return mul(self, a, b)

    monkeypatch.setattr(PolyRing, "_mul", recording_mul)
    for images in twists:
        start = time.perf_counter()
        rep = check_all(_one_twist(ring, images))
        assert time.perf_counter() - start < 5.0
        item = rep.condition1[0]
        assert (item.injectivity, item.injectivity_mode) == ("not decided", "over cap")
        witness = f"kernel search for sigma1 passed MAX_KERNEL_WORK = {MAX_KERNEL_WORK}"
        assert item.witness == witness
        assert item.nonzero_ok and item.ok
        assert "injectivity: not decided (over cap)" in rep.summary()
    # a product is formed only when its cost fits under the cap
    assert max(products) <= MAX_KERNEL_WORK


def _prime_field_presentations():
    f7 = PolyRing(PrimeField(7), ("t", "u"))
    t, u = f7.generator("t"), f7.generator("u")
    laurent = PolyRing(LaurentRing(PrimeField(3), "q"), ("t",))
    q = laurent.generator("q")
    return [
        _one_twist(f7, {"t": t**7}),
        _one_twist(f7, {"t": u}),
        _one_twist(f7, {"t": u, "u": t + u**7}),
        _one_twist(laurent, {"q": q**3, "t": laurent.generator("t") ** 3 + q.inverse()}),
    ]


def test_samples_and_seed_change_no_verdict(catalog_entries, monkeypatch):
    from .genutil import dense_presentation, qdiff_presentation

    draws = []

    def counting_next(self, _next=Stream.next_u64):
        draws.append(1)
        return _next(self)

    monkeypatch.setattr(Stream, "next_u64", counting_next)
    presentations = [P for _, P in catalog_entries] + [qdiff_presentation(), dense_presentation()]
    qst = PolyRing(QQ, ("s", "t"))
    presentations.append(_one_twist(qst, {"s": qst.generator("t")}))
    presentations += _prime_field_presentations()
    for P in presentations:
        default = check_all(P).to_dict()
        for samples, seed in ((0, 0), (1024, 5), (5000, 9), (-1, -2)):
            assert check_all(P, samples=samples, seed=seed).to_dict() == default
            again = validate_structure(P, samples, seed).to_dict()
            assert again == validate_structure(P).to_dict()
    assert draws == []  # no verdict path draws a random number


def test_check_all_accepts_any_samples(u_sl2):
    for P in [u_sl2] + _prime_field_presentations():
        default = check_all(P).summary()
        for samples in (32, 0, 1024, 1025, -1):
            assert check_all(P, samples=samples, seed=samples).summary() == default


def _twist_with_known_kernel(ring, stream):
    """A twist of Q[s, t] or Q[q^+-1][t] drawn from shapes whose kernel is
    known by construction: (sigma, a nonzero kernel element or None)."""
    choice = stream.choice
    units = [1, -1, 2, -3]
    if ring.generator_names() == ("s", "t"):
        s, t = ring.generator("s"), ring.generator("t")
        polys_t = [ring.zero(), ring.one(), t, t * t - 2, 3 * t**3 + t]
        hs = [t, s + t, s * t - 1, 2 * s + 1, s * s + t]
        a, c, e, f = choice(units), choice(units), choice(units), choice(polys_t)
        kind = stream.below(5)
        if kind == 0:  # triangular automorphism
            return RingMap.from_images(ring, {"s": a * s + f, "t": c * t + e}), None
        if kind == 1:  # triangular after the swap: Jacobian determinant -ac
            return RingMap.from_images(ring, {"s": a * t + e, "t": c * s + f}), None
        if kind == 2:  # monomial images: Jacobian determinant a c m k s^(m-1) t^(n+k-1)
            m, n, k = 1 + stream.below(2), stream.below(3), 1 + stream.below(3)
            return RingMap.from_images(ring, {"s": a * s**m * t**n, "t": c * t**k}), None
        if kind == 3:  # sigma(s) = sigma(f(t)) puts s - f(t) in the kernel
            sigma_t = c * t + e
            f_at = RingMap.from_images(ring, {"t": sigma_t}).apply(f)
            return RingMap.from_images(ring, {"s": f_at, "t": sigma_t}), s - f
        # two powers of one h: c^pa s^pb - t^pa is in the kernel
        h, pa, pb = choice(hs), 1 + stream.below(3), 1 + stream.below(3)
        return RingMap.from_images(ring, {"s": h**pa, "t": c * h**pb}), c**pa * s**pb - t**pa
    q, t = ring.generator("q"), ring.generator("t")
    u, k = choice(units), choice([1, -1, 2, -2])
    laurents = [ring.one(), q + 1, q.inverse(), 3 * q * q - q, -2 * ring.one()]
    g = choice(laurents)
    kind = stream.below(4)
    if kind < 2:  # Jacobian determinant k u q^(k-1) a m t^(m-1) q^j
        m, j = 1 + stream.below(2), choice([-1, 0, 1])
        image = choice(units) * t**m * q**j + g
        return RingMap.from_images(ring, {"q": u * q**k, "t": image}), None
    if kind == 2:  # sigma(t) = sigma(g(q)) puts t - g(q) in the kernel
        sigma = RingMap.from_images(ring, {"q": u * q**k})
        return RingMap.from_images(ring, {"q": u * q**k, "t": sigma.apply(g)}), t - g
    # a constant image of q puts q - u in the kernel
    return RingMap.from_images(ring, {"q": u * ring.one(), "t": choice(units) * t + g}), q - u


def test_injectivity_cross_check_family():
    """The exact verdict against kernels known by construction; every
    injective verdict is also checked at seeded nonzero coefficients."""
    stream = Stream(47)
    rings = [PolyRing(QQ, ("s", "t")), PolyRing(LaurentRing(QQ, "q"), ("t",))]
    verdicts = {}
    for k in range(120):
        ring = rings[k % 2]
        sigma, kernel = _twist_with_known_kernel(ring, stream.split(k))
        item = validate_structure(Presentation(ring, ("x",), sigma=[sigma])).condition1[0]
        assert item.injectivity_mode == "structural", (k, sigma)
        assert (item.injectivity == "not injective") == (kernel is not None), (k, sigma)
        if kernel is not None:
            assert kernel and not sigma.apply(kernel), (k, sigma, kernel)
        else:
            draws = Stream(53).split(k)
            rs = [random_nonzero(ring, draws, 2) for _ in range(8)]
            rs += [r * draws.choice(rs) for r in rs]
            assert all(sigma.apply(r) for r in rs), (k, sigma)
        key = (ring.describe(), item.injectivity)
        verdicts[key] = verdicts.get(key, 0) + 1
    for ring in rings:
        for verdict in ("injective", "not injective"):
            assert verdicts.get((ring.describe(), verdict), 0) >= 20, verdicts


def _prime_twist_with_known_kernel(ring, stream):
    """A twist of F_p[s, t] or F_p[q^+-1][t] with a zero Jacobian, drawn
    from shapes whose kernel is known by construction: (sigma, a nonzero
    kernel element or None)."""
    choice, p = stream.choice, ring.prime_ring().p
    units = [x for x in (1, -1, 2) if x % p]
    a, c, e = choice(units), choice(units), choice(units)
    kind = stream.below(4)
    if ring.generator_names() == ("s", "t"):
        s, t = ring.generator("s"), ring.generator("t")
        f = choice([ring.zero(), ring.one(), t, t * t - 2, t**3 + t])
        if kind == 0:  # a Frobenius after a triangular automorphism
            return RingMap.from_images(ring, {"s": (a * s + f) ** p, "t": (c * t + e) ** p}), None
        if kind == 1:  # monomial images with exponent determinant p*m*k
            m, n, k = 1 + stream.below(2), stream.below(3), 1 + stream.below(2)
            return RingMap.from_images(ring, {"s": a * s ** (p * m) * t**n, "t": c * t**k}), None
        if kind == 2:  # sigma(s) = sigma(f(t)) puts s - f(t) in the kernel
            sigma_t = (c * t + e) ** p
            f_at = RingMap.from_images(ring, {"t": sigma_t}).apply(f)
            return RingMap.from_images(ring, {"s": f_at, "t": sigma_t}), s - f
        # two powers of one h: c^pa s^pb - t^pa is in the kernel
        h = choice([t, s + t, s * t - 1, s * s + t]) ** choice([1, p])
        pa, pb = 1 + stream.below(2), 1 + stream.below(2)
        return RingMap.from_images(ring, {"s": h**pa, "t": c * h**pb}), c**pa * s**pb - t**pa
    q, t = ring.generator("q"), ring.generator("t")
    sigma_q = a * q ** (p * choice([1, -1, 2]))
    g = choice([ring.one(), q + 1, q.inverse(), 2 * q * q - q])
    if kind == 0:  # a Frobenius after q -> a q^+-1, t -> c t + g(q)
        return RingMap.from_images(ring, {"q": sigma_q, "t": (c * t + g) ** p}), None
    if kind == 1:  # monomial images with exponent determinant k p j
        image = c * t ** (1 + stream.below(2)) * q ** choice([-1, 0, 1])
        return RingMap.from_images(ring, {"q": sigma_q, "t": image}), None
    # sigma(t) = sigma(g(q)) puts t - g(q) in the kernel
    sigma_g = RingMap.from_images(ring, {"q": sigma_q}).apply(g)
    return RingMap.from_images(ring, {"q": sigma_q, "t": sigma_g}), t - g


def test_prime_field_injectivity_cross_check_family():
    """The kernel search against kernels known by construction: every
    witness is parsed back, nonzero and killed by sigma, and every injective
    verdict is checked at seeded nonzero coefficients."""
    stream = Stream(59)
    rings = []
    for p in (2, 3, 5):
        rings.append(PolyRing(LaurentRing(PrimeField(p), "q"), ("t",)))
        rings.append(PolyRing(PrimeField(p), ("s", "t")))
    verdicts = {}
    for k in range(120):
        ring = rings[k % len(rings)]
        sigma, kernel = _prime_twist_with_known_kernel(ring, stream.split(k))
        item = validate_structure(Presentation(ring, ("x",), sigma=[sigma])).condition1[0]
        assert item.injectivity_mode == "structural", (k, sigma, item)
        assert (item.injectivity == "not injective") == (kernel is not None), (k, sigma)
        if kernel is not None:
            assert kernel and not sigma.apply(kernel), (k, sigma, kernel)
            assert item.witness.startswith("sigma1(") and item.witness.endswith(") = 0")
            r = coeff_from_str(item.witness[len("sigma1(") : -len(") = 0")], ring)
            assert r and not sigma.apply(r), (k, sigma, item.witness)
        else:
            draws = Stream(61).split(k)
            rs = [random_nonzero(ring, draws, 2) for _ in range(8)]
            rs += [r * draws.choice(rs) for r in rs]
            assert all(sigma.apply(r) for r in rs), (k, sigma)
        key = (ring.describe().count("q"), item.injectivity)
        verdicts[key] = verdicts.get(key, 0) + 1
    for laurent in (0, 1):
        for verdict in ("injective", "not injective"):
            assert verdicts.get((laurent, verdict), 0) >= 15, verdicts


def test_condition2_r_one_always_passes(catalog_entries):
    for name, P in catalog_entries:
        for i in range(P.n):
            for j in range(i + 1, P.n):
                assert check_condition2(P, i, j, P.ring.one()).ok


def test_condition2_lie_closed_form(u_sl2):
    """For identity twists both sides equal r x_i x_j + r [x_j, x_i]."""
    from skewpbw.algebra import Poly

    r = QQ.from_int(5)
    for i in range(3):
        for j in range(i + 1, 3):
            item = check_condition2(u_sl2, i, j, r)
            assert item.ok
            mono = [0, 0, 0]
            mono[i] += 1
            mono[j] += 1
            expected = Poly(u_sl2, {tuple(mono): r})
            for k in range(3):
                a = u_sl2.a_vector(i, j)[k]
                if a:
                    ek = [0, 0, 0]
                    ek[k] = 1
                    expected = expected + Poly(u_sl2, {tuple(ek): r * a})
            assert item.lhs == expected


def test_condition2_weyl_with_polynomial_coefficient():
    """A Weyl pair over Q[t]: central polynomial coefficients pass."""
    ring = PolyRing(QQ, ("t",))
    t = ring.generator("t")
    P = Presentation(ring, ("u", "v"), d={(0, 1): 1})
    item = check_condition2(P, 0, 1, t)
    assert item.ok
    item = check_condition2(P, 0, 1, t * t + 2)
    assert item.ok


def test_condition2_additivity(catalog_entries):
    """Both sides of the overlap identity are additive in the coefficient."""
    from skewpbw.reduction import h_word, normalize_h, reduce_p
    from skewpbw.words import FreeElem, Scalar, Var

    for name, P in catalog_entries:
        if P.n < 2:
            continue
        stream = Stream(211).split(name)
        i, j = 0, 1
        for _ in range(10):
            r = random_elem(P.ring, stream, 2)
            s = random_elem(P.ring, stream, 2)
            lhs_r = h_word((Var(j), Var(i), Scalar(r)), P)
            lhs_s = h_word((Var(j), Var(i), Scalar(s)), P)
            lhs_rs = h_word((Var(j), Var(i), Scalar(r + s)), P)
            assert lhs_rs == lhs_r + lhs_s
            pe = reduce_p((Var(j), Var(i)), P)
            rhs = lambda x: normalize_h(pe.concat(FreeElem.from_word((Scalar(x),))), P)
            assert rhs(r + s) == rhs(r) + rhs(s)


def test_condition3_sl2_passes(u_sl2):
    assert check_condition3(u_sl2, 0, 1, 2).ok


def test_condition3_flags_non_jacobi():
    sc = StructureConstants.build(
        QQ, 3, {(0, 1): [0, 0, -1], (0, 2): [-1, 0, 0], (1, 2): [0, -1, 0]}
    )
    assert any(jacobiator(sc, 0, 1, 2))
    P = lie_presentation(sc)
    item = check_condition3(P, 0, 1, 2)
    assert not item.ok
    assert item.lhs != item.rhs  # witness carries the disagreeing values


def test_check_all_catalog(catalog_entries):
    for name, P in catalog_entries:
        rep = check_all(P, samples=12, seed=7)
        assert rep.overall, (name, rep.failures())
        assert rep.condition2_mode == "structural"
        if P.n == 2:
            assert rep.condition3 == []  # no triple exists: vacuous pass


def test_check_all_reports_failing_triples():
    sc = StructureConstants.build(
        QQ, 3, {(0, 1): [0, 0, -1], (0, 2): [-1, 0, 0], (1, 2): [0, -1, 0]}
    )
    rep = check_all(lie_presentation(sc), samples=4, seed=9)
    assert not rep.overall
    failing = [(it.i, it.j, it.k) for it in rep.condition3 if not it.ok]
    assert failing == [(0, 1, 2)]
    assert any("condition 3" in line for line in rep.failures())


def test_weyl_modified_constant_still_consistent():
    """Replacing the Weyl pairing constant by a polynomial keeps the overlap
    conditions satisfied (evaluated, not prejudged)."""
    ring = PolyRing(QQ, ("t",))
    t = ring.generator("t")
    P = Presentation(ring, ("u", "v"), d={(0, 1): t})
    rep = check_all(P, samples=12, seed=11)
    assert rep.overall


def test_qdiff_presentation_consistent():
    """Nontrivial twist and derivation on the same slot pass the checks."""
    from .genutil import qdiff_presentation

    rep = check_all(qdiff_presentation(), samples=12, seed=3)
    assert rep.overall
    assert rep.condition2_mode == "structural"


def _sampled_condition2_ok(P, i, j, stream, samples=8) -> bool:
    """Condition 2 for the pair (i, j) at seeded random coefficients, at
    products of two generators, and at each random coefficient times a
    generator, none of them chosen to be 1 or a generator.  The last kind
    reaches odd degrees over one generator, where g*g is always g^2: a
    defect that vanishes on even polynomials shows there."""
    ring = P.ring
    gens = [ring.generator(g) for g in ring.generator_names()]
    draws = [random_elem(ring, stream, 2) for _ in range(samples)]
    rs = draws + [stream.choice(gens) * stream.choice(gens) for _ in range(samples if gens else 0)]
    rs += [stream.choice(gens) * r for r in draws if gens]
    return all(check_condition2(P, i, j, r).ok for r in rs)


def _condition2_verdicts(P, stream) -> list[bool]:
    """check_all's condition-2 verdict per pair, each asserted to rest on 1
    and the generators only and to agree with the sampled verdict."""
    rep = check_all(P, samples=4)
    assert rep.condition2_mode == "structural"
    verdicts = []
    for i in range(P.n):
        for j in range(i + 1, P.n):
            items = [it for it in rep.condition2 if (it.i, it.j) == (i, j)]
            assert [str(it.r) for it in items] == ["1", *P.ring.generator_names()]
            exact = all(it.ok for it in items)
            assert exact == _sampled_condition2_ok(P, i, j, stream.split((i, j))), (P, i, j)
            verdicts.append(exact)
    return verdicts


def test_condition2_generators_decide_known_presentations(catalog_entries):
    from .genutil import dense_presentation, qdiff_presentation

    stream = Stream(41)
    for name, P in catalog_entries:
        assert all(_condition2_verdicts(P, stream.split(name))), name
    assert _condition2_verdicts(qdiff_presentation(), stream.split("qdiff")) == [True]
    # dense_presentation's derivation d/dt does not match c = 2 at r = t
    assert _condition2_verdicts(dense_presentation(), stream.split("dense")) == [False]


def test_condition2_generators_decide_perturbed_family():
    from .genutil import perturbed_presentation

    stream = Stream(43)
    verdicts = {}
    for k in range(200):
        P = perturbed_presentation(stream.split(k))
        (ok,) = _condition2_verdicts(P, stream.split(("sample", k)))
        key = (P.ring.describe(), ok)
        verdicts[key] = verdicts.get(key, 0) + 1
    # both verdicts occur often, over both rings: the agreement is not vacuous
    assert sum(v for (_, ok), v in verdicts.items() if ok) >= 20, verdicts
    assert sum(v for (_, ok), v in verdicts.items() if not ok) >= 20, verdicts
    for ring in ("Q[t]", "Q[q^+-1]"):
        assert verdicts.get((ring, True), 0) >= 5 and verdicts.get((ring, False), 0) >= 5, verdicts


def _params(P, explicit: bool) -> dict:
    """Constructor arguments that rebuild P; ``explicit`` writes out every
    default c = 1, d = 0 and a = 0, otherwise only the other values."""
    pairs = [(i, j) for i in range(P.n) for j in range(i + 1, P.n)]
    c = {p: P.c_of(*p) for p in pairs if explicit or P.c_of(*p) != P.ring.one()}
    d = {p: P.d_of(*p) for p in pairs if explicit or P.d_of(*p)}
    a = {
        (i, j, k): v
        for i, j in pairs
        for k, v in enumerate(P.a_vector(i, j))
        if explicit or v
    }
    return dict(sigma=list(P.sigma), delta=list(P.delta), c=c, d=d, a=a)


def _perturbations(P):
    """(field, presentation) pairs that differ from P in one parameter;
    a field is left out where the changed map would be rejected."""
    ring, one = P.ring, P.ring.one()
    out = []

    def rebuild(field, var_names=P.var_names, **changes):
        out.append((field, Presentation(ring, var_names, **{**_params(P, False), **changes})))

    if P.n >= 2:
        kw = _params(P, explicit=False)
        rebuild("c", c={**kw["c"], (0, 1): P.c_of(0, 1) + one})
        rebuild("d", d={**kw["d"], (0, 1): P.d_of(0, 1) + one})
        rebuild("a", a={**kw["a"], (0, 1, 0): P.a_vector(0, 1)[0] + one})
    rebuild("var name", var_names=P.var_names[:-1] + ("pert",))
    if ring.generator_names():
        g = ring.generator_names()[0]
        if P.delta[0].is_zero_map():
            images = {**dict(P.sigma[0].images), g: 2 * P.sigma[0].image(g)}
            twist = RingMap.from_images(ring, images)
            delta0 = SigmaDerivation.zero(ring, twist)
            rebuild("sigma", sigma=[twist, *P.sigma[1:]], delta=[delta0, *P.delta[1:]])
        images = {**dict(P.delta[0].images), g: P.delta[0].image(g) + one}
        try:
            delta0 = SigmaDerivation.from_images(ring, P.sigma[0], images)
        except ValueError:  # incompatible with another generator's image
            pass
        else:
            rebuild("delta", delta=[delta0, *P.delta[1:]])
    if ring == QQ:
        F = PrimeField(101)
        kw = {
            key: {k: F.from_fraction(Fraction(v.value)) for k, v in vals.items()}
            for key, vals in _params(P, explicit=False).items()
            if key in ("c", "d", "a")
        }
        out.append(("ring", Presentation(F, P.var_names, **kw)))
    return out


def test_fingerprint_stability(catalog_entries):
    """P == Q exactly when their digests agree, and equal presentations hash
    alike: over the catalog, the generated families, JSON round trips,
    explicit against omitted defaults, and one-field perturbations."""
    from skewpbw import catalog as cat
    from skewpbw.jsonio import presentation_from_json, presentation_to_json

    from .genutil import dense_presentation, perturbed_presentation, qdiff_presentation

    for name, P in catalog_entries:
        fresh = dict(cat.all_presentations())[name]
        assert fresh.fingerprint == P.fingerprint
        assert fresh == P
    bases = [P for _, P in catalog_entries] + [P for _, P in cat.all_presentations()]
    bases += [dense_presentation(), qdiff_presentation(), Presentation(QQ, ("u", "v"))]
    stream = Stream(11)
    bases += [perturbed_presentation(stream.split(k)) for k in range(12)]
    pool = []
    fields = set()
    for P in bases:
        pool.append(P)
        pool.append(presentation_from_json(presentation_to_json(P)))
        for explicit in (True, False):
            pool.append(Presentation(P.ring, P.var_names, **_params(P, explicit)))
            assert pool[-1] == P and pool[-1].fingerprint == P.fingerprint
        for field, Q in _perturbations(P):
            assert Q != P and Q.fingerprint != P.fingerprint, field
            fields.add(field)
            pool.append(Q)
    assert fields == {"c", "d", "a", "var name", "sigma", "delta", "ring"}
    equal_pairs = 0
    for P in pool:
        for Q in pool:
            assert (P == Q) == (P.fingerprint == Q.fingerprint), (P, Q)
            assert (P != Q) == (P.fingerprint != Q.fingerprint), (P, Q)
            if P == Q:
                assert hash(P) == hash(Q)
                equal_pairs += P is not Q
    assert equal_pairs > len(pool)  # equality across distinct instances is exercised
