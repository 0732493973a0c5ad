"""The value and record classes: equality, hashing, repr, immutability, and
copy and pickle round trips, pinned class by class."""

import copy
import pickle
from fractions import Fraction

import pytest

from skewpbw import catalog
from skewpbw.algebra import Poly
from skewpbw.catalog import StructureConstants
from skewpbw.expr import Token
from skewpbw.presentation import (
    Condition1Item,
    Condition2Item,
    Condition3Item,
    ConsistencyReport,
    UnitItem,
)
from skewpbw.rings import (
    QQ,
    LaurentRing,
    PolyRing,
    PrimeField,
    Rationals,
    RingMap,
    SigmaDerivation,
    _Triangular,
)
from skewpbw.universal import HomConditionItem, HomReport, HomSpec, extend_hom
from skewpbw.words import Scalar, Var

LQ = LaurentRing(QQ, "q")
MIXED = PolyRing(LQ, ("t",))
QT = PolyRing(QQ, ("t",))
Q, T = MIXED.generator("q"), MIXED.generator("t")
TWIST = RingMap.from_images(QT, {"t": 2 * QT.generator("t")})
W = catalog.get("weyl1")
X1 = Poly.variable(W, 0)
QP = catalog.get("quantum_plane")


def _seed():
    q = Poly.const(QP, QP.ring.generator("q"))
    return HomSpec(QP, QP, {"q": q}, [Poly.variable(QP, 0), Poly.variable(QP, 1)])


_MAP = "RingMap(ring=PolyRing(base=Rationals(), vars=('t',)), images=(('t', <2*t in Q[t]>),), "
_MAP += "target=PolyRing(base=Rationals(), vars=('t',)), _identity=False)"
_QP = "Presentation(Q[q^+-1]; vars x1, x2; df0a9386c561)"

# (make, compared fields, fields that take no part in equality, repr, probe):
# make() builds a fresh instance; probe(x) is what a copy must give as well
VALUES = [
    (lambda: QQ.from_int(3), ("ring", "value"), (), "<3 in Q>", lambda e: (e * e, e + 1)),
    (Rationals, (), (), "Rationals()", lambda r: r.from_fraction(Fraction(4, 6)).value),
    (lambda: PrimeField(5), ("p",), (), "PrimeField(p=5)", lambda k: k.from_int(7).value),
    (
        lambda: LaurentRing(PrimeField(7), "q"), ("base", "var"), (),
        "LaurentRing(base=PrimeField(p=7), var='q')", lambda r: (r.generator("q") ** -2).value,
    ),
    (
        lambda: PolyRing(LQ, ("t", "u")), ("base", "vars"), (),
        "PolyRing(base=LaurentRing(base=Rationals(), var='q'), vars=('t', 'u'))",
        lambda r: str(r.generator("q") * r.generator("u")),
    ),
    (
        lambda: _Triangular(QQ), ("base",), (), "_Triangular(base=Rationals())",
        lambda r: r._mul((1, 2, 3), (4, 5, 6)),
    ),
    (
        lambda: RingMap.from_images(QT, {"t": 2 * QT.generator("t")}),
        ("ring", "images", "target"), ("_identity", "_coeff"), _MAP,
        lambda m: (m.apply(QT.generator("t") ** 2), m.is_identity()),
    ),
    (
        # a map that moves the coefficient layer has a _coeff map
        lambda: RingMap.from_images(MIXED, {"q": Q.inverse(), "t": Q * T}),
        ("ring", "images", "target"), ("_identity", "_coeff"),
        "RingMap(ring=PolyRing(base=LaurentRing(base=Rationals(), var='q'), vars=('t',)), "
        "images=(('q', <q^-1 in Q[q^+-1][t]>), ('t', <q*t in Q[q^+-1][t]>)), "
        "target=PolyRing(base=LaurentRing(base=Rationals(), var='q'), vars=('t',)), "
        "_identity=False)",
        lambda m: (m.apply(Q**2 * T + 3), m.is_identity()),
    ),
    (
        lambda: RingMap.identity(QT), ("ring", "images", "target"), ("_identity", "_coeff"),
        _MAP.replace("2*t", "t").replace("False", "True"),
        lambda m: (m.apply(QT.generator("t") + 1), m.is_identity()),
    ),
    (
        # a twisted derivation is evaluated through its _matrix map
        lambda: SigmaDerivation.from_images(QT, TWIST, {"t": QT.one()}),
        ("ring", "twist", "images"), ("_matrix",),
        f"SigmaDerivation(ring=PolyRing(base=Rationals(), vars=('t',)), twist={_MAP}, "
        "images=(('t', <1 in Q[t]>),))",
        lambda d: (d.apply(QT.generator("t") ** 2), d.is_zero_map()),
    ),
    (
        lambda: Scalar(QQ.from_int(3)), ("value",), ("_hash",), "Scalar(value=<3 in Q>)", hash,
    ),
    (
        lambda: StructureConstants.build(QQ, 2, {(0, 1): [1, 0]}), ("ring", "n", "lower"), (),
        "StructureConstants(ring=Rationals(), n=2, lower=(((0, 1), (<1 in Q>, <0 in Q>)),))",
        lambda sc: sc.lower,
    ),
    (
        lambda: Token("INT", "3", 1, 2), ("kind", "text", "line", "col"), (),
        "Token(kind='INT', text='3', line=1, col=2)", lambda t: (t.kind, t.text, t.line, t.col),
    ),
]

RECORDS = [
    (
        lambda: Condition1Item(0, True, True, False, "not injective", "structural", "w"),
        ("i", "endomorphism_ok", "derivation_ok", "nonzero_ok", "injectivity",
         "injectivity_mode", "witness"),
        (),
        "Condition1Item(i=0, endomorphism_ok=True, derivation_ok=True, nonzero_ok=False, "
        "injectivity='not injective', injectivity_mode='structural', witness='w')",
        lambda it: it.ok,
    ),
    (
        lambda: UnitItem(0, 1, True, QQ.one()), ("i", "j", "ok", "value"), (),
        "UnitItem(i=0, j=1, ok=True, value=<1 in Q>)", lambda it: it.ok,
    ),
    (
        lambda: Condition2Item(0, 1, QQ.one(), True, X1, X1), ("i", "j", "r", "ok", "lhs", "rhs"),
        (), "Condition2Item(i=0, j=1, r=<1 in Q>, ok=True, lhs=Poly(x1), rhs=Poly(x1))",
        lambda it: it.lhs,
    ),
    (
        lambda: Condition3Item(0, 1, 2, False, X1, -X1), ("i", "j", "k", "ok", "lhs", "rhs"), (),
        "Condition3Item(i=0, j=1, k=2, ok=False, lhs=Poly(x1), rhs=Poly(-x1))", lambda it: it.rhs,
    ),
    (
        lambda: ConsistencyReport("abc"),
        ("fingerprint", "condition1", "c_units", "condition2", "condition2_mode", "condition3"),
        (),
        "ConsistencyReport(fingerprint='abc', condition1=[], c_units=[], condition2=[], "
        "condition2_mode='skipped', condition3=[])",
        lambda r: r.summary(),
    ),
    (
        _seed, ("source", "target", "phi", "y"), ("_phi_map", "_ypow_cache"),
        f"HomSpec(source={_QP}, target={_QP}, phi={{'q': Poly(q)}}, y=(Poly(x1), Poly(x2)))",
        lambda s: extend_hom(s, Poly.variable(QP, 1) ** 2 * Poly.const(QP, QP.ring.generator("q"))),
    ),
    (
        lambda: HomConditionItem("(i)", True, X1, X1), ("label", "ok", "lhs", "rhs"), (),
        "HomConditionItem(label='(i)', ok=True, lhs=Poly(x1), rhs=Poly(x1))", lambda it: it.ok,
    ),
    (
        HomReport, ("condition_i", "condition_ii"), (),
        "HomReport(condition_i=[], condition_ii=[])", lambda r: r.summary(),
    ),
]


def _id(row):
    return type(row[0]()).__name__


class _Other:
    """Equal to nothing but itself."""


@pytest.mark.parametrize("row", VALUES + RECORDS, ids=[_id(r) for r in VALUES + RECORDS])
def test_value_and_record_classes_keep_their_behaviour(row):
    make, compared, ignored, text, probe = row
    frozen = row in VALUES
    a, b = make(), make()
    assert repr(a) == text
    assert a == b and not a != b and a is not b
    for name in compared + ignored:
        # one field changed on a fresh instance, past any frozen guard
        other = make()
        object.__setattr__(other, name, _Other())
        assert (a == other) is (name in ignored) and (other == a) is (name in ignored), name
    assert a != _Other() and a != text
    if frozen:
        assert hash(a) == hash(b)
        with pytest.raises(AttributeError):
            a.extra = 1
        for name in compared:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(b, name))
            with pytest.raises(AttributeError):
                delattr(a, name)
    else:
        with pytest.raises(TypeError):
            hash(a)
        setattr(b, compared[0], _Other())
        assert a != b
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(clone) is type(a) and clone == a and repr(clone) == text
        assert probe(clone) == probe(a)
        if frozen:
            assert hash(clone) == hash(a)


def test_letters_and_derivations_keep_their_identity_rules():
    """A Var is the shared instance of its index, equal to no other, and a
    derivation built without its matrix map equals one built with it."""
    assert Var(3) is Var(3) and Var(3) != Var(4) and repr(Var(3)) == "Var(index=3)"
    for clone in (copy.copy(Var(3)), copy.deepcopy(Var(3)), pickle.loads(pickle.dumps(Var(3)))):
        assert clone is Var(3)
    with pytest.raises(AttributeError):
        Var(3).index = 4
    d = SigmaDerivation.from_images(QT, TWIST, {"t": QT.one()})
    bare = SigmaDerivation(d.ring, d.twist, d.images)
    assert bare == d and hash(bare) == hash(d) and bare.is_zero_map() and not d.is_zero_map()
    assert pickle.loads(pickle.dumps(bare)).is_zero_map()
