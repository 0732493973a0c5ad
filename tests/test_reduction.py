"""Straightening, collapse, section, normalization, and their identities."""

from fractions import Fraction

import pytest

from skewpbw import catalog
from skewpbw.algebra import Poly, star
from skewpbw.catalog import StructureConstants, lie_presentation
from skewpbw.expr import eval_str
from skewpbw.presentation import Presentation
from skewpbw.reduction import (
    WordLengthError,
    collapse_q,
    h_word,
    normalize_h,
    reduce_elem,
    reduce_p,
    rewrite_step,
    section_t,
    star_oracle,
)
from skewpbw.rings import QQ, LaurentRing, PolyRing, PrimeField, RingMap, SigmaDerivation
from skewpbw.rng import Stream
from skewpbw.words import FreeElem, Scalar, Var, is_standard, rightmost_violation

from .genutil import (
    dense_presentation,
    qdiff_presentation,
    random_poly,
    random_standard_word,
    random_word,
    scalar_pool,
)


def fe(*letters):
    return FreeElem.from_word(tuple(letters))


def test_standard_word_is_fixed():
    P = dense_presentation()
    t = P.ring.generator("t")
    w = (Scalar(t), Var(0), Var(1))
    assert reduce_p(w, P) == FreeElem.from_word(w)


def test_variable_past_scalar_case():
    # u t -> sigma(t) u + delta(t), with sigma = id and delta = d/dt
    P = dense_presentation()
    t = P.ring.generator("t")
    out = reduce_p((Var(0), Scalar(t)), P)
    expected = FreeElem.from_word((Scalar(t), Var(0))) + FreeElem.from_word(
        (Scalar(P.ring.one()),)
    )
    assert out == expected


def test_variable_swap_case_literal():
    # v u -> c u v + a1 u + a2 v + d, all four children present and nonzero
    P = dense_presentation()
    ring = P.ring
    t = ring.generator("t")
    out = reduce_p((Var(1), Var(0)), P)
    expected = (
        fe(Scalar(ring.from_int(2)), Var(0), Var(1))
        + fe(Scalar(t), Var(0))
        + fe(Scalar(ring.from_int(5)), Var(1))
        + fe(Scalar(ring.from_int(3)))
    )
    assert out == expected


def test_reduce_output_in_zt(catalog_entries):
    for name, P in catalog_entries:
        stream = Stream(101).split(name)
        pool = scalar_pool(P, stream)
        for _ in range(60):
            w = random_word(P, stream, 8, pool)
            out = reduce_p(w, P, check_descent=True)
            for word, mult in out:
                assert is_standard(word)
                assert mult != 0


def test_word_length_cap():
    P = dense_presentation()
    w = tuple(Var(0) for _ in range(17))
    with pytest.raises(WordLengthError):
        reduce_p(w, P)
    reduce_p(w[:16], P)  # at the cap is fine


def test_foreign_letters_rejected(weyl1):
    from skewpbw.rings import PrimeField

    with pytest.raises(ValueError):
        reduce_p((Var(5),), weyl1)
    with pytest.raises(ValueError):
        normalize_h(fe(Var(0), Scalar(PrimeField(5).one())), weyl1)


def test_collapse_q_examples(weyl1):
    ring = weyl1.ring
    r = ring.from_int(3)
    s = ring.from_int(5)
    e = fe(Scalar(r), Scalar(s), Var(0), Var(1))
    assert collapse_q(e, weyl1) == Poly(weyl1, {(1, 1): ring.from_int(15)})
    # empty scalar prefix: coefficient 1
    assert collapse_q(fe(Var(0)), weyl1) == Poly.variable(weyl1, 0)
    # bilinearity and collection
    e2 = FreeElem.from_word((Scalar(r), Var(0)), 2) + FreeElem.from_word((Scalar(r), Var(0)), 3)
    assert collapse_q(e2, weyl1) == Poly(weyl1, {(1, 0): ring.from_int(15)})


def test_collapse_q_rejects_nonstandard(weyl1):
    with pytest.raises(ValueError):
        collapse_q(fe(Var(0), Scalar(weyl1.ring.one())), weyl1)
    with pytest.raises(ValueError):
        collapse_q(fe(Var(1), Var(0)), weyl1)


def test_section_t(weyl1):
    ring = weyl1.ring
    f = Poly(weyl1, {(1, 2): ring.from_int(5)})
    out = section_t(f)
    assert out == fe(Scalar(ring.from_int(5)), Var(0), Var(1), Var(1))
    assert section_t(Poly.zero(weyl1)).is_zero()
    g = Poly(weyl1, {(1, 0): ring.one(), (0, 0): ring.from_int(2)})
    assert len(section_t(g)) == 2
    # the coefficient letter is kept even when it is 1
    assert section_t(Poly.variable(weyl1, 0)) == fe(Scalar(ring.one()), Var(0))


def test_h_examples(weyl1):
    # one twist-and-derive step over the dense presentation
    P = dense_presentation()
    t = P.ring.generator("t")
    assert h_word((Var(0), Scalar(t)), P) == Poly(
        P, {(1, 0): t, (0, 0): P.ring.one()}
    )
    # Weyl defining relation through the word level
    assert h_word((Var(1), Var(0)), weyl1) == Poly(
        weyl1, {(1, 1): weyl1.ring.one(), (0, 0): weyl1.ring.one()}
    )
    # h agrees with plain collapse on standard words
    r = weyl1.ring.from_int(7)
    w = (Scalar(r), Var(0), Var(1))
    assert h_word(w, weyl1) == collapse_q(fe(*w), weyl1)


def test_fast_h_equals_literal_route(catalog_entries):
    # the extra entries exercise nontrivial twist and derivation together,
    # and the dense inconsistent system where nothing is pruned
    entries = list(catalog_entries) + [
        ("qdiff", qdiff_presentation()),
        ("dense", dense_presentation()),
    ]
    for name, P in entries:
        stream = Stream(311).split(name)
        pool = scalar_pool(P, stream)
        for _ in range(40):
            w = random_word(P, stream, 7, pool)
            e = FreeElem.from_word(w)
            assert normalize_h(e, P) == collapse_q(reduce_elem(e, P), P)


def _fp_presentation():
    """Two variables over F_5[t]: the first passes t by the twist t -> 2t
    with a unit derivation term, and the relation has c = 3, a = (t, 4),
    d = 1.  Not required to be consistent; multiplicities that are
    multiples of 5 vanish in the coefficients."""
    ring = PolyRing(PrimeField(5), ("t",))
    t = ring.generator("t")
    double = RingMap.from_images(ring, {"t": t * 2})
    return Presentation(
        ring,
        ("u", "v"),
        sigma=[double, RingMap.identity(ring)],
        delta=[SigmaDerivation.from_images(ring, double, {"t": ring.one()}), SigmaDerivation.zero(ring)],
        c={(0, 1): ring.from_int(3)},
        d={(0, 1): ring.one()},
        a={(0, 1, 0): t, (0, 1, 1): ring.from_int(4)},
    )


def _literal_straighten(w, P) -> dict:
    """Straightening by its definition: recurse on rewrite_step with no
    memo, and add up the children's values."""
    children = rewrite_step(w, P)
    if children is None:
        return {w: 1}
    out: dict = {}
    for child in children:
        for sw, m in _literal_straighten(child, P).items():
            out[sw] = out.get(sw, 0) + m
    return out


def _prefixed_words(P, stream, count):
    """(leading scalars, body) pairs: 0-3 scalar letters in front of a body
    that starts with a variable."""
    pool = scalar_pool(P, stream)
    for k in range(count):
        prefix = tuple(Scalar(stream.choice(pool)) for _ in range(k % 4))
        body = (Var(stream.below(P.n)),) + random_word(P, stream, 5, pool)
        yield prefix, body


def _leading_scalar_entries(catalog_entries):
    return list(catalog_entries) + [
        ("qdiff", qdiff_presentation()),
        ("dense", dense_presentation()),
        ("F_5[t]", _fp_presentation()),
    ]


def test_memo_straightening_matches_literal_recursion(catalog_entries):
    """reduce_p, whose memo is keyed on words without leading scalars,
    equals the memo-free recursion on words with 0-3 leading scalars; and
    normalize_h equals collapse_q of reduce_elem on the same words, also
    inside a combination with multiplicities."""
    for name, P in _leading_scalar_entries(catalog_entries):
        stream = Stream(457).split(name)
        for prefix, body in _prefixed_words(P, stream, 24):
            w = prefix + body
            assert reduce_p(w, P, check_descent=True) == FreeElem(_literal_straighten(w, P)), name
            e = FreeElem.from_word(w, 2) + FreeElem.from_word(body, -5)
            assert normalize_h(e, P) == collapse_q(reduce_elem(e, P), P), name
            assert normalize_h(FreeElem.from_word(w), P) == collapse_q(reduce_p(w, P), P), name


def test_leading_scalars_factor_out(catalog_entries):
    """reduce_p(p.w) is p concatenated in front of reduce_p(w), and
    h(r.w) = r.h(w), whichever of the two words is straightened first."""
    for name, P in _leading_scalar_entries(catalog_entries):
        stream = Stream(461).split(name)
        for k, (prefix, body) in enumerate(_prefixed_words(P, stream, 24)):
            if not prefix:
                continue
            order = (prefix + body, body) if k % 2 else (body, prefix + body)
            values = {w: reduce_p(w, P) for w in order}
            expected = FreeElem({prefix + sw: m for sw, m in values[body]})
            assert values[prefix + body] == expected, name
            r = P.ring.one()
            for letter in prefix:
                r = r * letter.value
            assert h_word(prefix + body, P) == h_word(body, P).scale(r), name


def test_descent_check_catches_a_move_that_does_not_descend(monkeypatch):
    """check_descent raises when a rewrite move returns a child that is not
    smaller, on words with and without leading scalars, and for a bad child
    with and without a leading scalar of its own."""
    from skewpbw import reduction

    real = reduction.rewrite_step
    t = Scalar(dense_presentation().ring.generator("t"))
    calls = []

    def bad_move(child_of):
        def step(w, P):
            calls.append(w)
            if len(calls) > 1000:  # a descent check that no longer fires
                raise RuntimeError("straightening did not stop")
            children = real(w, P)
            return None if children is None else children + [child_of(w)]

        return step

    for child_of in (lambda w: w, lambda w: (t,) + w):
        monkeypatch.setattr(reduction, "rewrite_step", bad_move(child_of))
        for word in [(Var(1), Var(0)), (t, Var(1), Var(0)), (t, t, Var(0), t)]:
            with pytest.raises(AssertionError, match="complexity did not drop"):
                reduce_p(word, dense_presentation(), check_descent=True)
    monkeypatch.undo()
    for word in [(Var(1), Var(0)), (t, t, Var(0), t)]:
        reduce_p(word, dense_presentation(), check_descent=True)


# ---------------------------------------------------------------------------
# normalization identities


def test_scalar_letter_identities(catalog_entries):
    """h kills zero letters, is additive and sign-linear in a letter, drops
    unit letters, and merges products of adjacent letters.  These identities
    only need the structure-map laws, so the dense inconsistent system and
    the q-difference one are included."""
    entries = list(catalog_entries) + [
        ("qdiff", qdiff_presentation()),
        ("dense", dense_presentation()),
    ]
    for name, P in entries:
        ring = P.ring
        stream = Stream(401).split(name)
        pool = scalar_pool(P, stream)
        for _ in range(40):
            a = random_word(P, stream, 3, pool)
            b = random_word(P, stream, 3, pool)
            r = stream.choice(pool)
            s = stream.choice(pool)
            mid = lambda letters: normalize_h(FreeElem.from_word(a + letters + b), P)
            assert mid((Scalar(ring.zero()),)).is_zero()
            assert mid((Scalar(-r),)) == -mid((Scalar(r),))
            assert mid((Scalar(r + s),)) == mid((Scalar(r),)) + mid((Scalar(s),))
            assert mid((Scalar(ring.one()),)) == normalize_h(FreeElem.from_word(a + b), P)
            assert mid((Scalar(r * s),)) == mid((Scalar(r), Scalar(s)))


def test_section_collapse_identity(catalog_entries):
    """Replacing a standard combination by its section-of-collapse does not
    change any normalization it is embedded into."""
    for name, P in catalog_entries:
        stream = Stream(419).split(name)
        pool = scalar_pool(P, stream)
        for _ in range(30):
            y = random_word(P, stream, 3, pool)
            z = random_word(P, stream, 3, pool)
            a = FreeElem.from_word(random_standard_word(P, stream, 3, pool))
            a = a + FreeElem.from_word(random_standard_word(P, stream, 3, pool), -1)
            lhs = normalize_h(FreeElem.from_word(y).concat(a).concat(FreeElem.from_word(z)), P)
            tq = section_t(collapse_q(a, P))
            rhs = normalize_h(FreeElem.from_word(y).concat(tq).concat(FreeElem.from_word(z)), P)
            assert lhs == rhs


def test_straightening_invariance_inside_h(catalog_entries):
    """h(x p(y) z) = h(x y z) over presentations that pass the checks."""
    for name, P in catalog_entries:
        stream = Stream(433).split(name)
        pool = scalar_pool(P, stream)
        for _ in range(30):
            x = random_word(P, stream, 3, pool)
            y = random_word(P, stream, 4, pool)
            z = random_word(P, stream, 3, pool)
            py = reduce_p(y, P)
            lhs = normalize_h(FreeElem.from_word(x).concat(py).concat(FreeElem.from_word(z)), P)
            rhs = normalize_h(FreeElem.from_word(x + y + z), P)
            assert lhs == rhs


def test_h_is_multiplicative(catalog_entries):
    """h(ab) = h(a) * h(b) with the product defined through section words."""
    for name, P in catalog_entries:
        stream = Stream(439).split(name)
        pool = scalar_pool(P, stream)
        for _ in range(25):
            a = random_word(P, stream, 4, pool)
            b = random_word(P, stream, 4, pool)
            lhs = normalize_h(FreeElem.from_word(a + b), P)
            rhs = star_oracle(h_word(a, P), h_word(b, P))
            assert lhs == rhs


def _half_integer_lie():
    """A three-dimensional Lie algebra over Q with half-integer structure
    constants: [x2, x1] = 1/2 x3, [x3, x1] = -3/2 x1, [x3, x2] = 3/2 x2."""
    half = lambda k: QQ.from_fraction(Fraction(k, 2))
    sc = StructureConstants.build(
        QQ, 3, {(0, 1): [0, 0, half(1)], (0, 2): [half(-3), 0, 0], (1, 2): [0, half(3), 0]}
    )
    return lie_presentation(sc)


def test_star_oracle_clears_denominators_exactly(catalog_entries):
    """star_oracle, which normalizes the section words of D*f and E*g and
    scales by 1/(D*E), equals the normalization of the uncleared section
    words on seeded fractional pairs, also over fractional parameters."""
    entries = _leading_scalar_entries(catalog_entries) + [("half-lie", _half_integer_lie())]
    for name, P in entries:
        stream = Stream(467).split(name)
        cleared = 0
        for _ in range(12):
            f = random_poly(P, stream, 2)
            g = random_poly(P, stream, 2)
            expected = normalize_h(section_t(f).concat(section_t(g)), P)
            assert star_oracle(f, g) == expected, name
            denominators = (P.ring._denominator(v) for h in (f, g) for v in h._terms.values())
            cleared += any(d != 1 for d in denominators)
        assert cleared or isinstance(P.ring.prime_ring(), PrimeField), name


def test_star_oracle_straightens_integral_words():
    """On a fresh diffusion2, a fractional product leaves no fractional
    scalar letter in any key of the normalization memo."""
    P = catalog.get("diffusion2")
    f = eval_str("7/8*q*x2^4", P)
    g = eval_str("(-1/7*q + 3/2 - 1/2*q^-1)*x1^4 + (-7/8*q - 8/5)*x1^2*x2", P)
    assert star_oracle(f, g) == star(f, g)
    letters = [x for key in P._h_cache for x in key if isinstance(x, Scalar)]
    assert letters
    assert all(P.ring._denominator(x.value.value) == 1 for x in letters)


def test_reduce_elem_sums_in_one_pass(monkeypatch):
    """reduce_elem adds no FreeElem values, and it still equals the sum of
    reduce_p(w).scale(m) on seeded words with multiplicities."""
    P = catalog.get("weyl", 2)
    stream = Stream(479)
    # few letters, so that the words' straightenings share standard words
    letters = [Var(i) for i in range(P.n)] + [Scalar(P.ring.from_int(2))]
    cases = []
    for _ in range(6):
        words = (tuple(stream.choice(letters) for _ in range(4)) for _ in range(8))
        e = FreeElem({w: stream.int_between(-3, 3) for w in words})
        expected = FreeElem()
        for w, m in e:
            expected = expected + reduce_p(w, P).scale(m)
        cases.append((e, expected))

    def refuse(self, other):
        raise AssertionError("FreeElem addition")

    monkeypatch.setattr(FreeElem, "__add__", refuse)
    for e, expected in cases:
        assert reduce_elem(e, P) == expected


def test_weyl_var_swap_through_h(weyl1):
    out = normalize_h(fe(Var(1), Var(0)), weyl1)
    assert out == Poly(weyl1, {(1, 1): weyl1.ring.one(), (0, 0): weyl1.ring.one()})


def test_memo_is_observably_pure(weyl1):
    stream = Stream(443)
    pool = scalar_pool(weyl1, stream)
    words = [random_word(weyl1, stream, 6, pool) for _ in range(30)]
    first = [reduce_p(w, weyl1) for w in words]
    second = [reduce_p(w, weyl1) for w in words]  # all memo hits
    assert first == second


def _laurent_tower():
    """Three variables over F_7[q^+-1][t]: the first and last pass
    coefficients by q -> 2q, t -> q t, the first with the inner derivation
    sigma - id, which differentiates q^-1 too; c, a and d nonzero on
    several pairs.  Not required to be consistent."""
    ring = PolyRing(LaurentRing(PrimeField(7), "q"), ("t",))
    q, t = ring.generator("q"), ring.generator("t")
    twist = RingMap.from_images(ring, {"q": 2 * q, "t": q * t})
    inner = SigmaDerivation.from_images(ring, twist, {"q": q, "t": q * t - t})
    return Presentation(
        ring,
        ("u", "v", "w"),
        sigma=[twist, RingMap.identity(ring), twist],
        delta=[inner, SigmaDerivation.zero(ring), SigmaDerivation.zero(ring, twist)],
        c={(0, 1): q, (1, 2): ring.from_int(3)},
        a={(0, 1, 2): t, (1, 2, 0): -q},
        d={(0, 2): q**-1 + t},
    )


def _rederived_children(w, P):
    """The children of one move, derived from the structure maps and the
    relation parameters of P with no table: the rewrite step's contract."""
    s = rightmost_violation(w)
    if s is None:
        return None
    head, tail = w[:s], w[s + 2 :]
    segments = []
    if isinstance(w[s + 1], Scalar):
        i, r = w[s].index, w[s + 1].value
        segments.append((Scalar(P.sigma[i].apply(r)), Var(i)))
        segments.append((Scalar(P.delta[i].apply(r)),))
    else:
        j, i = w[s].index, w[s + 1].index
        segments.append((Scalar(P.c_of(i, j)), Var(i), Var(j)))
        segments.extend((Scalar(a), Var(k)) for k, a in P.linear_terms(i, j))
        segments.append((Scalar(P.d_of(i, j)),))
    return [head + seg + tail for seg in segments if seg[0].value]


def test_rule_table_gives_the_rederived_children():
    """rewrite_step's children, in order, are those of the structure maps
    and parameters, on a fresh table and again from the filled one; the
    table starts empty and stays within n^2 + n * (scalar letters) entries."""
    entries = catalog.all_presentations() + [
        ("dense", dense_presentation()),
        ("qdiff", qdiff_presentation()),
        ("F_5[t]", _fp_presentation()),
        ("F_7[q^+-1][t]", _laurent_tower()),
    ]
    for name, P in entries:
        assert P._rules == {}, name
        stream = Stream(467).split(name)
        pool = scalar_pool(P, stream)
        words = [(Var(stream.below(P.n)),) + random_word(P, stream, 7, pool) for _ in range(60)]
        moves = 0
        for w in words:
            expected = _rederived_children(w, P)
            assert rewrite_step(w, P) == expected, (name, w)
            assert rewrite_step(w, P) == expected, (name, w)
            moves += expected is not None
        assert moves >= 30, name
        letters = {letter for key in P._rules for letter in key if isinstance(letter, Scalar)}
        assert 0 < len(P._rules) <= P.n**2 + P.n * len(letters), name


def test_rule_tables_are_per_presentation():
    """Two Lie algebras with the pair (x2, x1) but different brackets get
    their own children, whichever is straightened first."""
    one = lie_presentation(StructureConstants.build(QQ, 2, {(0, 1): [1, 0]}))
    two = lie_presentation(StructureConstants.build(QQ, 2, {(0, 1): [0, 2]}))
    w = (Var(1), Var(0))
    unit = Scalar(QQ.one())
    assert rewrite_step(w, one) == [(unit, Var(0), Var(1)), (unit, Var(0))]
    assert rewrite_step(w, two) == [(unit, Var(0), Var(1)), (Scalar(QQ.from_int(2)), Var(1))]
    assert rewrite_step(w, one) == _rederived_children(w, one)
    assert one._rules.keys() == two._rules.keys() == {w}
    assert one._rules[w] != two._rules[w]


def _same_work_inputs(P):
    """Fixed words with variable and coefficient inversions, and fixed
    products for the word-level oracle."""
    ring = P.ring
    if ring.generator_names():  # Q[q^+-1]
        q = ring.generator("q")
        r, s = Scalar(q), Scalar(q**-1 + Fraction(2, 3))
    else:
        r, s = Scalar(ring.from_fraction(Fraction(1, 2))), Scalar(ring.from_int(3))
    x = [Var(i) for i in range(P.n)]
    last, first = x[-1], x[0]
    words = [
        (last, first),
        tuple(reversed(x)),
        (last, last, first, x[1], first),
        (x[1], r, first, last, s),
        (last, first, last, first, x[1], x[1]),
        (r, last, s, first, first, last, r),
    ]
    top = f"x{P.n}"
    products = [
        (f"{top}^2 + x1", "x2*x1"),
        (f"{top}^3*x1", "x1^2 + x2"),
        (f"(x1 + {top})^2", f"(x1 - {top})^2"),
    ]
    return words, products


@pytest.mark.parametrize(
    "name, reduce_entries, h_entries, old_reduce, old_h",
    # the old pins were measured while the memo keys kept leading scalars
    [("u_sl2", 152, 172, 256, 218), ("diffusion2", 110, 243, 246, 601)],
)
def test_straightening_work_is_pinned(name, reduce_entries, h_entries, old_reduce, old_h):
    """A fresh presentation straightens the same words into memo tables of
    the same, pinned sizes: a cheaper lookup leaves the rewriting alone.
    Keying the memo on words without leading scalars only shrinks them."""
    P = catalog.get(name)
    words, products = _same_work_inputs(P)
    for w in words:
        assert all(is_standard(sw) for sw, _ in reduce_p(w, P))
    for a, b in products:
        f, g = eval_str(a, P), eval_str(b, P)
        assert star_oracle(f, g) == star(f, g)
    assert (len(P._reduce_cache), len(P._h_cache)) == (reduce_entries, h_entries)
    assert reduce_entries <= old_reduce and h_entries <= old_h


def test_capped_straightening_leaves_a_pure_memo(monkeypatch):
    """A call stopped by the cap on new memo entries keeps only fully
    reduced entries, so the same memo later gives a fresh memo's values."""
    from skewpbw import reduction

    word = (Var(1),) * 3 + (Var(0),) * 3
    P, fresh = dense_presentation(), dense_presentation()
    Q, fresh_q = catalog.get("diffusion2"), catalog.get("diffusion2")
    f, g = eval_str("x2^3", Q), eval_str("x1^3", Q)
    monkeypatch.setattr(reduction, "MAX_NEW_PAIRS", 40)
    with pytest.raises(reduction.StraighteningCapError):
        reduce_p(word, P)
    with pytest.raises(reduction.StraighteningCapError):
        star_oracle(f, g)
    assert 0 < len(P._reduce_cache) <= 40 and 0 < len(Q._h_cache) <= 40
    monkeypatch.undo()
    assert reduce_p(word, P) == reduce_p(word, fresh)
    assert star_oracle(f, g) == star_oracle(Poly(fresh_q, f.terms), Poly(fresh_q, g.terms))


@pytest.mark.parametrize(
    "build, error, message",
    [
        pytest.param(
            lambda W: normalize_h(FreeElem.from_word((Var(0),) * 65), W), WordLengthError,
            "word of length 65 exceeds cap 64", id="normalize-h",
        ),
        pytest.param(
            lambda W: reduce_p((Var(1),) * 17, W), WordLengthError,
            "word of length 17 exceeds cap 16", id="reduce-p",
        ),
        pytest.param(
            lambda W: star_oracle(Poly.variable(W, 0) ** 32, Poly.variable(W, 1) ** 32),
            WordLengthError, "word of length 66 exceeds cap 64", id="star-oracle",
        ),
        pytest.param(
            lambda W: h_word((Var(2),), W), ValueError,
            "variable index 2 out of range for 2 variables", id="variable",
        ),
        pytest.param(
            lambda W: h_word((Scalar(PrimeField(5).one()), Var(0)), W), ValueError,
            "scalar letter 1 lies in F_5, not in Q", id="scalar",
        ),
    ],
)
def test_word_refusals(weyl1, build, error, message):
    with pytest.raises(error) as info:
        build(weyl1)
    assert info.value.args == (message,)
