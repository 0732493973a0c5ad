"""Words, complexity, violations, and the free ring operations."""

import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from skewpbw.expr import coeff_from_str
from skewpbw.rings import QQ, LaurentRing, PolyRing, PrimeField
from skewpbw.rng import Stream
from skewpbw.words import (
    FreeElem,
    Scalar,
    Var,
    complexity,
    is_standard,
    rightmost_violation,
    word_str,
)
from skewpbw.reduction import rewrite_step

from .genutil import dense_presentation, random_elem, random_word

R = QQ.from_int(3)
S = QQ.from_int(5)


def test_complexity_examples():
    assert complexity((Scalar(R), Scalar(S), Var(0))) == (1, 0, 0)
    assert complexity((Var(1), Var(0))) == (2, 1, 0)
    assert complexity((Var(0), Scalar(R))) == (1, 0, 1)
    assert complexity(()) == (0, 0, 0)


def test_complexity_counts_all_pairs():
    # x3 x2 x1: three pairwise inversions
    assert complexity((Var(2), Var(1), Var(0))) == (3, 3, 0)
    # variable before two scalars: two (x, r) inversions
    assert complexity((Var(0), Scalar(R), Scalar(S))) == (1, 0, 2)


def test_is_standard():
    assert is_standard((Scalar(R), Var(0), Var(0), Var(2)))
    assert not is_standard((Var(0), Scalar(R)))
    assert is_standard(())
    assert not is_standard((Var(1), Var(0)))
    assert is_standard((Scalar(R), Scalar(S)))


def test_rightmost_violation_cases():
    v = rightmost_violation((Var(0), Scalar(R), Var(1)))
    assert v is not None and v.pos == 0 and v.kind == "scalar"
    v = rightmost_violation((Var(1), Var(0), Var(2)))
    assert v is not None and v.pos == 0 and v.kind == "vars"
    assert rightmost_violation((Scalar(R), Var(0), Var(1))) is None


def test_violation_iff_standard_randomized():
    P = dense_presentation()
    stream = Stream(17)
    for _ in range(300):
        w = random_word(P, stream, 8)
        assert is_standard(w) == (rightmost_violation(w) is None)


def test_violation_right_context_standard():
    P = dense_presentation()
    stream = Stream(19)
    for _ in range(300):
        w = random_word(P, stream, 8)
        v = rightmost_violation(w)
        if v is not None:
            assert is_standard(w[v.pos + 1 :])


def test_scalar_prefix_invariance():
    stream = Stream(23)
    P = dense_presentation()
    for _ in range(100):
        w = random_word(P, stream, 6)
        a, b, c = complexity(w)
        w2 = (Scalar(R),) + w
        assert complexity(w2) == (a, b, c)


def test_rewrite_moves_decrease_complexity():
    P = dense_presentation()
    stream = Stream(29)
    checked = 0
    for _ in range(400):
        w = random_word(P, stream, 7)
        children = rewrite_step(w, P)
        if children is None:
            continue
        cw = complexity(w)
        for child in children:
            assert complexity(child) < cw
        checked += 1
    assert checked > 100


def test_free_elem_ops():
    w = (Scalar(R), Var(0))
    u = (Var(1),)
    assert (FreeElem.from_word(w) + FreeElem.from_word(w, -1)).is_zero()
    prod = FreeElem.from_word(w).concat(FreeElem.from_word(u))
    assert prod == FreeElem.from_word(w + u)
    big = FreeElem.from_word(w, 2).concat(FreeElem.from_word(u, 3))
    assert big == FreeElem.from_word(w + u, 6)


def test_word_str():
    assert word_str((Scalar(R), Var(0), Var(1))) == "3·x1·x2"


def test_var_letters_are_shared_frozen_instances():
    assert Var(0) is Var(0)
    assert Var(index=2) is Var(2)
    assert Var(0) is not Var(1) and Var(0) != Var(1)
    assert hash(Var(1)) == hash(Var(1))
    with pytest.raises(FrozenInstanceError):
        Var(0).index = 1
    assert Var(0).index == 0
    assert repr(Var(3)) == "Var(index=3)"
    word = (Var(1), Scalar(R), Var(0))
    for clone in (copy.copy(word), copy.deepcopy(word), pickle.loads(pickle.dumps(word))):
        assert clone == word and clone[0] is Var(1) and clone[2] is Var(0)


def test_scalar_repr_and_frozen():
    assert repr(Scalar(R)) == "Scalar(value=<3 in Q>)"
    with pytest.raises(FrozenInstanceError):
        Scalar(R).value = S
    assert pickle.loads(pickle.dumps(Scalar(R))) == Scalar(R)


def test_scalar_letters_hash_as_their_coefficient(catalog_entries):
    """Two Scalars built independently (by arithmetic and by parsing the
    printed coefficient) are equal and hash alike, and a Scalar hashes as
    its coefficient, over every catalog ring and the towers."""
    f5 = PrimeField(5)
    rings = [P.ring for _, P in catalog_entries] + [
        f5,
        LaurentRing(f5, "q"),
        PolyRing(QQ, ("t",)),
        PolyRing(LaurentRing(f5, "q"), ("t",)),
        PolyRing(PrimeField(7), ("t", "u")),
    ]
    stream = Stream(31)
    fractions = 0
    for ring in rings:
        third = ring.from_fraction(Fraction(-7, 3))
        for k in range(12):
            r = random_elem(ring, stream, 3)
            if k % 2:
                r = r * third
            a, b = Scalar(r), Scalar(coeff_from_str(str(r), ring))
            assert a == b and hash(a) == hash(b), (ring.describe(), r)
            assert hash(a) == hash(r), (ring.describe(), r)
            assert {a: 1}[b] == 1
            fractions += "/" in str(r)
    assert fractions >= 10
