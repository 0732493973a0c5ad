"""Straightening, collapse, section, normalization, and their identities."""

from fractions import Fraction

import pytest

from skewpbw import catalog
from skewpbw.algebra import Poly, star
from skewpbw.expr import eval_str
from skewpbw.reduction import (
    WordLengthError,
    collapse_q,
    h_word,
    normalize_h,
    reduce_elem,
    reduce_p,
    section_t,
    star_oracle,
)
from skewpbw.rng import Stream
from skewpbw.words import FreeElem, Scalar, Var, is_standard

from .genutil import (
    dense_presentation,
    qdiff_presentation,
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
    "name, reduce_entries, h_entries",
    # sizes measured while letters still hashed by content, field by field
    [("u_sl2", 256, 218), ("diffusion2", 246, 601)],
)
def test_straightening_work_is_pinned(name, reduce_entries, h_entries):
    """A fresh presentation straightens the same words into memo tables of
    the same, pinned sizes: a cheaper lookup leaves the rewriting alone."""
    P = catalog.get(name)
    words, products = _same_work_inputs(P)
    for w in words:
        assert all(is_standard(sw) for sw, _ in reduce_p(w, P))
    for a, b in products:
        f, g = eval_str(a, P), eval_str(b, P)
        assert star_oracle(f, g) == star(f, g)
    assert (len(P._reduce_cache), len(P._h_cache)) == (reduce_entries, h_entries)


def test_capped_straightening_leaves_a_pure_memo(monkeypatch):
    """A call stopped by the cap on new memo entries keeps only fully
    reduced entries, so the same memo later gives a fresh memo's values."""
    from skewpbw import reduction

    word = (Var(1),) * 3 + (Var(0),) * 3
    P, fresh = dense_presentation(), dense_presentation()
    Q, fresh_q = catalog.get("diffusion2"), catalog.get("diffusion2")
    f, g = eval_str("x2^3", Q), eval_str("x1^3", Q)
    monkeypatch.setattr(reduction, "MAX_NEW_ENTRIES", 40)
    with pytest.raises(reduction.StraighteningCapError):
        reduce_p(word, P)
    with pytest.raises(reduction.StraighteningCapError):
        star_oracle(f, g)
    assert 0 < len(P._reduce_cache) <= 40 and 0 < len(Q._h_cache) <= 40
    monkeypatch.undo()
    assert reduce_p(word, P) == reduce_p(word, fresh)
    assert star_oracle(f, g) == star_oracle(Poly(fresh_q, f.terms), Poly(fresh_q, g.terms))
