"""Expression grammar, evaluation, and parse/print round trips."""

from fractions import Fraction

import pytest

from skewpbw.algebra import Poly
from skewpbw.expr import ExprError, coeff_from_str, eval_str, parse
from skewpbw.rings import LaurentRing, PolyRing, QQ
from skewpbw.rng import Stream

from .genutil import random_elem, random_poly


def test_parse_product(weyl1):
    out = eval_str("x2*x1", weyl1)
    assert out == Poly(weyl1, {(1, 1): weyl1.ring.one(), (0, 0): weyl1.ring.one()})


def test_parse_sum_with_fraction(quantum_plane):
    out = eval_str("(1/2)*x1^3 + q*x2", quantum_plane)
    q = quantum_plane.ring.generator("q")
    assert out == Poly(
        quantum_plane,
        {(3, 0): quantum_plane.ring.from_fraction(Fraction(1, 2)), (0, 1): q},
    )


def test_no_juxtaposition(weyl1):
    with pytest.raises(ExprError) as exc:
        eval_str("x1 x2", weyl1)
    assert "col 4" in str(exc.value)


def test_unknown_identifier(weyl1):
    with pytest.raises(ExprError):
        parse("x1*y", weyl1)


def test_variable_aliases(weyl1):
    # weyl names its variables t1, d1; positional aliases hit the same slots
    assert eval_str("t1", weyl1) == eval_str("x1", weyl1)
    assert eval_str("d1", weyl1) == eval_str("x2", weyl1)


def test_precedence(weyl1):
    # '^' over '*' over unary minus over '+'
    assert eval_str("-x1*x2", weyl1) == -eval_str("x1*x2", weyl1)
    assert eval_str("x1^2*x2", weyl1) == eval_str("(x1^2)*x2", weyl1)
    assert eval_str("1 - x1 + x1", weyl1) == Poly.one(weyl1)
    assert eval_str("2*x1^0", weyl1) == Poly.const(weyl1, 2)


def test_eval_weyl_relation(weyl1):
    assert str(eval_str("x2*x1", weyl1)) == "x1*x2 + 1"


def test_eval_quantum_power(quantum_plane):
    assert str(eval_str("x2^2*x1", quantum_plane)) == "q^2*x1*x2^2"


def test_zero_times(weyl1):
    assert eval_str("0*x1", weyl1).is_zero()


def test_negative_exponent_on_units(quantum_plane):
    q = quantum_plane.ring.generator("q")
    assert eval_str("q^-2*x1", quantum_plane) == Poly(
        quantum_plane, {(1, 0): (q ** -2)}
    )
    with pytest.raises(ExprError):
        eval_str("x1^-1", quantum_plane)
    with pytest.raises(ExprError):
        eval_str("(1 + q)^-1 + x1 - x1", quantum_plane)  # non-unit constant


def test_parse_defers_evaluation(weyl1, quantum_plane):
    value = parse("x2*x1", weyl1)
    assert value() == eval_str("x1*x2 + 1", weyl1)
    # errors that need values surface only when the thunk is called
    value = parse("x1^70000 + (1 + q)^-1", quantum_plane)
    with pytest.raises(ExprError, match="col 3: exponent 70000"):
        value()


def test_coeff_parsing():
    ring = PolyRing(LaurentRing(QQ, "q"), ("b", "c"))
    val = coeff_from_str("(q - q^-1)*b*c", ring)
    q = ring.generator("q")
    b = ring.generator("b")
    c = ring.generator("c")
    assert val == (q - q.inverse()) * b * c
    with pytest.raises(ExprError):
        coeff_from_str("x1", ring)


def test_fraction_literal_rules(weyl1):
    assert eval_str("3/4", weyl1) == Poly.const(weyl1, Fraction(3, 4))
    with pytest.raises(ExprError):
        eval_str("x1/2", weyl1)  # slash only inside numeric literals
    with pytest.raises(ExprError):
        eval_str("1/0", weyl1)


def test_print_parse_round_trip(catalog_entries):
    for name, P in catalog_entries:
        stream = Stream(59).split(name)
        for _ in range(30):
            f = random_poly(P, stream, 3)
            assert eval_str(str(f), P) == f, (name, str(f))


def test_round_trip_coefficient_texts():
    from skewpbw.rings import PrimeField

    rings = [
        PolyRing(LaurentRing(QQ, "q"), ("b", "c")),
        PolyRing(PrimeField(7), ("t", "u")),
        LaurentRing(PrimeField(5), "q"),
        PolyRing(QQ, ("t",)),
    ]
    stream = Stream(61)
    for ring in rings:
        for _ in range(50):
            x = random_elem(ring, stream, 2)
            assert coeff_from_str(str(x), ring) == x, (ring.describe(), str(x))
