"""Catalog entries, the bracket oracle, and the basis witness."""

from fractions import Fraction

import pytest

from skewpbw.algebra import Poly, star
from skewpbw.catalog import (
    StructureConstants,
    get,
    jacobiator,
    lie_presentation,
    names,
)
from skewpbw.presentation import check_all, check_condition3
from skewpbw.rings import QQ
from skewpbw.rng import Stream

from .genutil import random_poly


def test_names_and_get():
    assert "weyl" in names()
    assert get("weyl", 1).n == 2
    assert get("weyl2").n == 4
    with pytest.raises(ValueError):
        get("weyl")
    with pytest.raises(KeyError):
        get("nonexistent")
    with pytest.raises(ValueError):
        get("u_sl2", 3)


def test_weyl_relation():
    W = get("weyl", 1)
    x1 = Poly.variable(W, 0)
    x2 = Poly.variable(W, 1)
    assert star(x2, x1) == x1 * x2 + 1


def test_weyl2_cross_pairs_commute():
    W = get("weyl", 2)
    t1 = Poly.variable(W, 0)
    d2 = Poly.variable(W, 3)
    assert star(d2, t1) == star(t1, d2)
    d1 = Poly.variable(W, 2)
    assert star(d1, t1) == star(t1, d1) + 1


def test_quantum_plane_relation():
    QP = get("quantum_plane")
    q = QP.ring.generator("q")
    x1 = Poly.variable(QP, 0)
    x2 = Poly.variable(QP, 1)
    assert star(x2, x1) == star(x1, x2).scale(q)


def test_diffusion_relation():
    D = get("diffusion2")
    q = D.ring.generator("q")
    x1 = Poly.variable(D, 0)
    x2 = Poly.variable(D, 1)
    assert star(x2, x1) == star(x1, x2).scale(q) + x1 - x2


def test_quantum_matrices_relations():
    M = get("quantum_matrices2")
    ring = M.ring
    q = ring.generator("q")
    b = ring.generator("b")
    c = ring.generator("c")
    a_var = Poly.variable(M, 0)
    d_var = Poly.variable(M, 1)
    # a b = q^-1 b a (as coefficients: a . b means the variable passes b)
    assert star(a_var, Poly.const(M, b)) == a_var.scale(q.inverse() * b)
    assert star(d_var, Poly.const(M, c)) == d_var.scale(q * c)
    # d a = a d + (q - q^-1) b c
    assert star(d_var, a_var) == star(a_var, d_var) + Poly.const(
        M, (q - q.inverse()) * b * c
    )


def test_abelian_lie_is_commutative_polynomial_ring():
    sc = StructureConstants.build(QQ, 3, {})
    P = lie_presentation(sc)
    stream = Stream(3)
    for _ in range(10):
        f = random_poly(P, stream, 2)
        g = random_poly(P, stream, 2)
        assert star(f, g) == star(g, f)
    assert check_all(P, samples=4, seed=1).overall


def test_jacobiator_sl2_zero():
    # sl2 bracket table: [f,e] = -h, [h,e] = 2e, [h,f] = -2f
    sc = StructureConstants.build(
        QQ, 3, {(0, 1): [0, 0, -1], (0, 2): [2, 0, 0], (1, 2): [0, -2, 0]}
    )
    assert all(not x for x in jacobiator(sc, 0, 1, 2))


def test_jacobiator_abelian_zero():
    sc = StructureConstants.build(QQ, 4, {})
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(j + 1, 4):
                assert all(not x for x in jacobiator(sc, i, j, k))


def test_jacobiator_euclidean_type_zero():
    # [x1,x2] = x3, [x1,x3] = 0, [x2,x3] = x1: a Lie algebra (motion-group
    # type), so the cyclic sum vanishes
    sc = StructureConstants.build(QQ, 3, {(0, 1): [0, 0, -1], (1, 2): [-1, 0, 0]})
    assert all(not x for x in jacobiator(sc, 0, 1, 2))
    assert check_condition3(lie_presentation(sc), 0, 1, 2).ok


def test_jacobiator_nonzero_example():
    # [x1,x2] = x3, [x1,x3] = x1, [x2,x3] = x2 fails Jacobi
    sc = StructureConstants.build(
        QQ, 3, {(0, 1): [0, 0, -1], (0, 2): [-1, 0, 0], (1, 2): [0, -1, 0]}
    )
    vec = jacobiator(sc, 0, 1, 2)
    assert any(vec)
    assert vec == (QQ.zero(), QQ.zero(), QQ.from_int(2))


def test_checker_agrees_with_jacobiator_on_random_tables():
    for seed in range(10):
        stream = Stream(seed)
        table = {
            pair: [stream.int_between(-2, 2) for _ in range(3)]
            for pair in [(0, 1), (0, 2), (1, 2)]
        }
        sc = StructureConstants.build(QQ, 3, table)
        zero = all(not x for x in jacobiator(sc, 0, 1, 2))
        assert check_condition3(lie_presentation(sc), 0, 1, 2).ok == zero


def test_catalog_passes_checker(catalog_entries):
    for name, P in catalog_entries:
        assert check_all(P, samples=8, seed=13).overall, name


# ---------------------------------------------------------------------------
# basis witness: brute-force straightening with only the bracket relations


def _free_straighten(word: tuple, sc: StructureConstants) -> dict:
    """Normal form of a variable word in the enveloping algebra, computed in
    the free algebra over Q with the rewriting y_j y_i -> y_i y_j + [y_j, y_i]
    alone.  Independent of the engine's word/reduction machinery."""
    out: dict[tuple, Fraction] = {}
    work = [(word, Fraction(1))]
    while work:
        w, coeff = work.pop()
        for pos in range(len(w) - 1):
            if w[pos] > w[pos + 1]:
                i, j = w[pos + 1], w[pos]
                work.append((w[:pos] + (i, j) + w[pos + 2 :], coeff))
                for k, ck in enumerate(sc.bracket_lower(i, j)):
                    if ck:
                        work.append((w[:pos] + (k,) + w[pos + 2 :], coeff * ck.value))
                break
        else:
            out[w] = out.get(w, Fraction(0)) + coeff
    return {w: c for w, c in out.items() if c}


def _word_of(alpha: tuple) -> tuple:
    out = []
    for idx, e in enumerate(alpha):
        out.extend([idx] * e)
    return tuple(out)


def test_pbw_products_match_free_straightening():
    tables = {
        "sl2": {(0, 1): [0, 0, -1], (0, 2): [2, 0, 0], (1, 2): [0, -2, 0]},
        "heis": {(0, 1): [0, 0, -1]},
        "so3": {(0, 1): [0, 0, -1], (0, 2): [0, 1, 0], (1, 2): [-1, 0, 0]},
    }
    monos = [
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (1, 1, 0), (0, 1, 1), (2, 0, 0), (1, 0, 1),
    ]
    for label, table in tables.items():
        sc = StructureConstants.build(QQ, 3, table)
        P = lie_presentation(sc)
        for alpha in monos:
            for beta in monos:
                if sum(alpha) + sum(beta) > 3:
                    continue
                engine = star(Poly.monomial(P, alpha), Poly.monomial(P, beta))
                expected = _free_straighten(_word_of(alpha) + _word_of(beta), sc)
                got = {}
                for mono, cf in engine.terms.items():
                    got[_word_of(mono)] = cf.value
                assert got == expected, (label, alpha, beta)
