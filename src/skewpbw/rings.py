"""Exact coefficient rings and their structure maps.

Four ring kinds are supported, each with a canonical, hashable element
representation so that element equality is semantic ring equality:

  Rationals        value is an int when the number is integral, otherwise
                   a reduced Fraction with denominator > 1.  The two
                   agree on ==, hash and str, so the choice never shows.
  PrimeField(p)    value is an int residue in [0, p); p < PRIME_CAP.
  LaurentRing      one generator with integer exponents over Rationals or a
                   prime field; value is a sorted tuple of (exponent, coeff).
  PolyRing         multivariate polynomials over Rationals, a prime field,
                   or one Laurent layer; value is a sorted tuple of
                   (exponent-vector, coeff).

Tower depth is capped at one Laurent layer under one polynomial layer, which
covers mixed ground rings like Q[q^-1, q][t].  Zero coefficients are never
stored, so the zero element of the structured kinds is the empty tuple.

Maps fixed by generator images have one evaluator, RingMap.apply, which
extends the images additively and multiplicatively, one tower layer at a
time (with a bounded memo of image powers).  The twists are RingMaps of a ring into itself, and the
coefficient map of a homomorphism seed is a RingMap into the target's ring.
A twisted derivation (SigmaDerivation) d is the corner entry of the RingMap
r |-> [[twist(r), d(r)], [0, r]] into upper-triangular matrices, which is
multiplicative exactly when d obeys the twisted Leibniz rule.  The
endomorphism and twisted-Leibniz laws therefore hold by construction, and
the existence checker accepts these two types and no others.
"""

from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping


class RingMismatchError(ValueError):
    """Operands belong to different coefficient rings."""


class NotAUnitError(ArithmeticError):
    """Inverse requested for a non-invertible element."""


class CoefficientTooLargeError(ValueError):
    """A coefficient has too many decimal digits to be printed."""


MAX_PRINT_DIGITS = 4300  # Python's default cap on int -> str conversion
_PRINT_BOUND = 10**MAX_PRINT_DIGITS


IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
NAME_RE = re.compile(rf"^{IDENT}$")


def _check_name(name: str) -> str:
    if not NAME_RE.match(name):
        raise ValueError(f"invalid generator name {name!r}")
    return name


# ---------------------------------------------------------------------------
# elements


@dataclass(frozen=True, slots=True, eq=False)
class CoeffElem:
    """An exact element of a coefficient ring, in canonical form.

    Instances are immutable and hashable; two elements compare equal exactly
    when they are the same ring element.  The hash is the raw value's: equal
    elements share a ring, and elements of different rings with the same
    raw value collide but stay unequal.  Arithmetic coerces plain ints and
    Fractions on either side.
    """

    ring: "CoeffRing"
    value: Any

    def _coerce(self, other):
        if isinstance(other, CoeffElem):
            if other.ring != self.ring:
                raise RingMismatchError(
                    f"mixed rings: {self.ring.describe()} vs {other.ring.describe()}"
                )
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        if isinstance(other, Fraction):
            return self.ring.from_fraction(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CoeffElem(self.ring, self.ring._add(self.value, o.value))

    __radd__ = __add__

    def __neg__(self):
        return CoeffElem(self.ring, self.ring._neg(self.value))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CoeffElem(self.ring, self.ring._add(self.value, self.ring._neg(o.value)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CoeffElem(self.ring, self.ring._add(o.value, self.ring._neg(self.value)))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CoeffElem(self.ring, self.ring._mul(self.value, o.value))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        return CoeffElem(self.ring, _raw_pow(self.ring, self.value, k))

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, CoeffElem) else other
        if o is None:
            return NotImplemented
        if isinstance(o, CoeffElem) and o.ring != self.ring:
            return False
        return self.value == o.value

    def __hash__(self):
        return hash(self.value)

    def __bool__(self):
        return not self.ring._is_zero(self.value)

    def is_zero(self) -> bool:
        return self.ring._is_zero(self.value)

    def is_unit(self) -> bool:
        return self.ring._is_unit(self.value)

    def inverse(self) -> "CoeffElem":
        return CoeffElem(self.ring, self.ring._inverse(self.value))

    def is_constant(self) -> bool:
        """True when no named generator occurs (element of the prime field)."""
        return self.ring._is_constant(self.value)

    def __str__(self):
        return self.ring._format(self.value)

    def __repr__(self):
        return f"<{self} in {self.ring.describe()}>"


# ---------------------------------------------------------------------------
# rings


class CoeffRing:
    """Common interface of the four ring kinds.

    Subclasses are frozen dataclasses, so rings compare and hash by content.
    The ``_``-prefixed methods operate on raw canonical values; user code
    goes through CoeffElem arithmetic.  Besides the methods below, each kind
    implements _zero, _one, _add, _neg, _mul, _is_zero, _is_unit, _inverse,
    _is_constant, _format and describe.
    """

    # -- element constructors ------------------------------------------------

    def elem(self, value) -> CoeffElem:
        return CoeffElem(self, value)

    def zero(self) -> CoeffElem:
        return self.elem(self._zero())

    def one(self) -> CoeffElem:
        return self.elem(self._one())

    def from_int(self, k: int) -> CoeffElem:
        return self.elem(self._from_fraction(k))

    def from_fraction(self, q: Fraction) -> CoeffElem:
        return self.elem(self._from_fraction(q))

    def generator_names(self) -> tuple[str, ...]:
        return ()

    def inverted_generator_names(self) -> tuple[str, ...]:
        """Generators that are invertible in the ring (Laurent layers)."""
        return ()

    def generator(self, name: str) -> CoeffElem:
        raise KeyError(f"{self.describe()} has no generator {name!r}")

    # -- raw value protocol --------------------------------------------------

    def _from_fraction(self, q):
        """Raw value of a prime scalar: an int or a Fraction."""
        raise NotImplementedError

    def _sum(self, values):
        """Raw value of the sum of an iterable of raw values."""
        out = self._zero()
        for v in values:
            out = self._add(out, v)
        return out

    def _denominator(self, a) -> int:
        """The least positive int n with n*a free of denominators: the lcm
        of the denominators of a's rational coefficients."""
        raise NotImplementedError

    def _div_int(self, a, n: int):
        """Raw value of a/n for a positive int n (a unit of the prime ring)."""
        raise NotImplementedError

    def _term_count(self, a) -> int:
        return 1

    def prime_ring(self) -> "CoeffRing":
        return self


def _rational(x):
    """The raw value of a rational number: ``x`` as an int when it is
    integral, else the reduced Fraction ``x``."""
    if type(x) is int or x.denominator != 1:
        return x
    return x.numerator


@dataclass(frozen=True, slots=True)
class Rationals(CoeffRing):
    def _zero(self):
        return 0

    def _one(self):
        return 1

    def _from_fraction(self, q):
        return _rational(q)

    def _add(self, a, b):
        s = a + b
        return s if type(s) is int else _rational(s)

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        p = a * b
        return p if type(p) is int else _rational(p)

    def _is_zero(self, a):
        return a == 0

    def _is_unit(self, a):
        return a != 0

    def _inverse(self, a):
        if a == 0:
            raise NotAUnitError("0 has no inverse")
        return _rational(Fraction(1, a))

    def _is_constant(self, a):
        return True

    def _denominator(self, a):
        return 1 if type(a) is int else a.denominator

    def _div_int(self, a, n):
        if type(a) is int:
            q, r = divmod(a, n)
            return q if r == 0 else Fraction(a, n)
        return _rational(a / n)

    def _format(self, a):
        if max(abs(a.numerator), a.denominator) >= _PRINT_BOUND:
            raise CoefficientTooLargeError(
                f"a coefficient has more than {MAX_PRINT_DIGITS} decimal digits "
                "and is not printed"
            )
        return str(a)

    def describe(self):
        return "Q"


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below PRIME_CAP, the least strong pseudoprime to all 13 bases; a prime
# field's modulus must stay below it.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_CAP = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Exact for p < PRIME_CAP: deterministic Miller-Rabin."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, slots=True)
class PrimeField(CoeffRing):
    p: int

    def __post_init__(self):
        if self.p >= PRIME_CAP:
            raise ValueError(f"prime field p must be below {PRIME_CAP}, got {self.p}")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def _zero(self):
        return 0

    def _one(self):
        return 1

    def _from_fraction(self, q):
        if isinstance(q, int):
            return q % self.p
        den = q.denominator % self.p
        if den == 0:
            raise ZeroDivisionError(f"denominator divisible by {self.p}")
        return (q.numerator * pow(den, self.p - 2, self.p)) % self.p

    def _add(self, a, b):
        return (a + b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _is_zero(self, a):
        return a == 0

    def _is_unit(self, a):
        return a != 0

    def _inverse(self, a):
        if a == 0:
            raise NotAUnitError("0 has no inverse")
        return pow(a, self.p - 2, self.p)

    def _is_constant(self, a):
        return True

    def _denominator(self, a):
        return 1

    def _div_int(self, a, n):
        return (a * pow(n, -1, self.p)) % self.p

    def _format(self, a):
        return str(a)

    def describe(self):
        return f"F_{self.p}"


def add_terms(acc: dict, items) -> dict:
    """Add (key, coefficient) pairs into a term map, dropping every key whose
    coefficient sums to zero; returns ``acc``."""
    for key, c in items:
        s = acc.get(key)
        s = c if s is None else s + c
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)
    return acc


def deglex_key(exps: tuple[int, ...]):
    """Sort key: total degree descending, then lexicographic descending."""
    return (-sum(exps), tuple(-e for e in exps))


def _mono_str(names, exps) -> str:
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)


def format_terms(ring: CoeffRing, names, terms) -> str:
    """Print (exponent vector, raw coefficient in ``ring``) pairs as a signed
    sum in deglex order.  Coefficients are compared as ring elements, so in
    F_5 a coefficient of 4 prints as a leading minus."""
    one = ring._one()
    minus_one = ring._neg(one)
    out = ""
    for exps, c in sorted(terms, key=lambda t: deglex_key(t[0])):
        mono = _mono_str(names, exps)
        if not mono:
            part = ring._format(c)
        elif c == one:
            part = mono
        elif c == minus_one:
            part = "-" + mono
        elif ring._term_count(c) > 1:
            part = f"({ring._format(c)})*{mono}"
        else:
            part = f"{ring._format(c)}*{mono}"
        if not out:
            out = part
        elif part.startswith("-"):
            out += " - " + part[1:]
        else:
            out += " + " + part
    return out or "0"


class _TermRing(CoeffRing):
    """Raw values shared by LaurentRing and PolyRing: sorted tuples of
    (exponent key, nonzero base value) pairs."""

    def _zero(self):
        return ()

    def _canon(self, d: dict):
        """The value of a term dict: zero coefficients dropped, keys sorted.
        A raw zero of every base kind (0 or ()) is falsy, and no other raw
        value is."""
        return tuple(sorted(t for t in d.items() if t[1]))

    def _add(self, a, b):
        return self._sum((a, b))

    def _sum(self, values):
        # one term dict for all summands, zeros dropped and sorted once
        values = iter(values)
        d = dict(next(values, ()))
        get, add = d.get, self.base._add
        for v in values:
            for e, c in v:
                s = get(e)
                d[e] = c if s is None else add(s, c)
        return self._canon(d)

    def _neg(self, a):
        return tuple((e, self.base._neg(c)) for e, c in a)

    def _is_zero(self, a):
        return not a

    def _denominator(self, a):
        den = self.base._denominator
        d = 1
        for _, c in a:
            k = den(c)
            if k != 1:
                d = math.lcm(d, k)
        return d

    def _div_int(self, a, n):
        # n is a unit: no quotient is zero, and the order is kept
        div = self.base._div_int
        return tuple((e, div(c, n)) for e, c in a)

    def _term_count(self, a):
        return len(a)


@dataclass(frozen=True, slots=True)
class LaurentRing(_TermRing):
    """base[var, var^-1] with base a field kind.  Values map int exponents to
    nonzero base values, stored as a sorted tuple."""

    base: CoeffRing
    var: str

    def __post_init__(self):
        if not isinstance(self.base, (Rationals, PrimeField)):
            raise ValueError("Laurent base must be Rationals or a prime field")
        _check_name(self.var)

    def _one(self):
        return ((0, self.base._one()),)

    def _from_fraction(self, q):
        v = self.base._from_fraction(q)
        return () if self.base._is_zero(v) else ((0, v),)

    def generator_names(self):
        return (self.var,)

    def inverted_generator_names(self):
        return (self.var,)

    def generator(self, name):
        if name != self.var:
            raise KeyError(f"{self.describe()} has no generator {name!r}")
        return self.elem(((1, self.base._one()),))

    def _mul(self, a, b):
        mul = self.base._mul
        if len(a) == 1 == len(b):  # the base is a field: no zero product
            (e1, c1), (e2, c2) = a[0], b[0]
            return ((e1 + e2, mul(c1, c2)),)
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:  # a shift of b: no zero product, order kept
            e1, c1 = a[0]
            return tuple((e1 + e2, mul(c1, c2)) for e2, c2 in b)
        d: dict = {}
        get, add = d.get, self.base._add
        for e1, c1 in a:
            for e2, c2 in b:
                e, p = e1 + e2, mul(c1, c2)
                s = get(e)
                d[e] = p if s is None else add(s, p)
        return self._canon(d)

    def _is_unit(self, a):
        return len(a) == 1 and self.base._is_unit(a[0][1])

    def _inverse(self, a):
        if not self._is_unit(a):
            raise NotAUnitError(f"{self._format(a)} is not a unit of {self.describe()}")
        e, c = a[0]
        return ((-e, self.base._inverse(c)),)

    def _is_constant(self, a):
        return all(e == 0 for e, _ in a)

    def _format(self, a):
        return format_terms(self.base, (self.var,), (((e,), c) for e, c in a))

    def prime_ring(self):
        return self.base

    def describe(self):
        return f"{self.base.describe()}[{self.var}^+-1]"


@dataclass(frozen=True, slots=True)
class PolyRing(_TermRing):
    """base[vars...] with base Rationals, a prime field, or one Laurent layer.
    Values map exponent tuples to nonzero base values."""

    base: CoeffRing
    vars: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.base, (Rationals, PrimeField, LaurentRing)):
            raise ValueError("PolyRing base must be Rationals, a prime field, or a Laurent ring")
        if not self.vars:
            raise ValueError("PolyRing needs at least one generator")
        names = [_check_name(v) for v in self.vars]
        if len(set(names)) != len(names):
            raise ValueError("duplicate polynomial generators")
        if set(names) & set(self.base.generator_names()):
            raise ValueError("polynomial generators collide with base generators")

    def _one(self):
        return (((0,) * len(self.vars), self.base._one()),)

    def _from_fraction(self, q):
        v = self.base._from_fraction(q)
        zero = (0,) * len(self.vars)
        return () if self.base._is_zero(v) else ((zero, v),)

    def generator_names(self):
        return self.base.generator_names() + self.vars

    def inverted_generator_names(self):
        return self.base.inverted_generator_names()

    def generator(self, name):
        if name in self.vars:
            exps = tuple(1 if v == name else 0 for v in self.vars)
            return self.elem(((exps, self.base._one()),))
        inner = self.base.generator(name)  # raises KeyError when unknown
        zero = (0,) * len(self.vars)
        return self.elem(((zero, inner.value),))

    def _mul(self, a, b):
        if len(a) == 1 == len(b):  # the base is a domain: no zero product
            (e1, c1), (e2, c2) = a[0], b[0]
            return ((tuple(x + y for x, y in zip(e1, e2)), self.base._mul(c1, c2)),)
        d: dict = {}
        get, mul, add = d.get, self.base._mul, self.base._add
        for e1, c1 in a:
            for e2, c2 in b:
                key, p = tuple(x + y for x, y in zip(e1, e2)), mul(c1, c2)
                s = get(key)
                d[key] = p if s is None else add(s, p)
        return self._canon(d)

    def _is_unit(self, a):
        return (
            len(a) == 1
            and all(e == 0 for e in a[0][0])
            and self.base._is_unit(a[0][1])
        )

    def _inverse(self, a):
        if not self._is_unit(a):
            raise NotAUnitError(f"{self._format(a)} is not a unit of {self.describe()}")
        exps, c = a[0]
        return ((exps, self.base._inverse(c)),)

    def _is_constant(self, a):
        return all(
            all(e == 0 for e in exps) and self.base._is_constant(c) for exps, c in a
        )

    def _term_count(self, a):
        # a lone constant term prints as its base value, itself maybe a sum
        if len(a) == 1 and not any(a[0][0]):
            return self.base._term_count(a[0][1])
        return len(a)

    def _format(self, a):
        return format_terms(self.base, self.vars, a)

    def prime_ring(self):
        return self.base.prime_ring()

    def describe(self):
        return f"{self.base.describe()}[{', '.join(self.vars)}]"


def flat_terms(ring: CoeffRing, v) -> list:
    """The terms of the raw value v as (exponent vector over
    ring.generator_names(), raw prime-field coefficient) pairs."""
    if isinstance(ring, LaurentRing):
        return [((e,), c) for e, c in v]
    if isinstance(ring, PolyRing):
        return [(inner + exps, c) for exps, b in v for inner, c in flat_terms(ring.base, b)]
    return [((), v)] if v else []


# ---------------------------------------------------------------------------
# structure maps


def _raw_pow(ring: CoeffRing, v, e: int):
    """Raw value of v**e in ``ring``, by square and multiply; a negative e
    inverts v first (NotAUnitError when v is not a unit)."""
    if e < 0:
        v = ring._inverse(v)
        e = -e
    out = ring._one()
    while e:
        if e & 1:
            out = ring._mul(out, v)
        e >>= 1
        if e:
            v = ring._mul(v, v)
    return out


@dataclass(frozen=True, slots=True)
class _Triangular(CoeffRing):
    """Upper-triangular matrices [[a, b], [0, c]] over ``base``, as raw
    values (a, b, c), with just what RingMap needs to map into them.  The
    map of a twisted derivation lands here (see SigmaDerivation)."""

    base: CoeffRing

    def _one(self):
        one = self.base._one()
        return (one, self.base._zero(), one)

    def _from_fraction(self, q):
        v = self.base._from_fraction(q)
        return (v, self.base._zero(), v)

    def _mul(self, x, y):
        mul = self.base._mul
        return (mul(x[0], y[0]), self.base._add(mul(x[0], y[1]), mul(x[1], y[2])), mul(x[2], y[2]))

    def _is_unit(self, x):
        return self.base._is_unit(x[0]) and self.base._is_unit(x[2])

    def _inverse(self, x):
        a, c = self.base._inverse(x[0]), self.base._inverse(x[2])
        mul = self.base._mul
        return (a, self.base._neg(mul(mul(a, x[1]), c)), c)

    def _sum(self, values):
        return tuple(map(self.base._sum, zip(*values))) or (self.base._zero(),) * 3

    def describe(self):
        return f"upper-triangular 2x2 matrices over {self.base.describe()}"


def _generator_images(ring: CoeffRing, target: CoeffRing, images: Mapping, default, what: str):
    """(generator, image) for every generator of ``ring`` in order, a
    missing image being default(generator); each image must lie in
    ``target``."""
    names = ring.generator_names()
    unknown = set(images) - set(names)
    if unknown:
        raise ValueError(f"unknown generators in {what}: {sorted(unknown)}")
    full = tuple((g, images[g] if g in images else default(g)) for g in names)
    if any(img.ring != target for _, img in full):
        raise RingMismatchError(f"a {what} image lies in a different ring")
    return full


@dataclass(frozen=True, slots=True)
class RingMap:
    """A ring homomorphism from ``ring`` into ``target`` given by generator
    images: the one evaluator of maps fixed by where generators go.  The
    twists are RingMaps of a ring into itself, a homomorphism seed's
    coefficient map is one into the target's coefficients, and a twisted
    derivation is evaluated as a corner of one into triangular matrices.

    A missing image is the generator itself, which must then lie in the
    target.  Images of Laurent generators must be units, otherwise the
    extension is not defined on negative powers.  Generator-free rings
    (Q, F_p) admit only the canonical map, which is forced.

    ``_ladder`` memoises raw image powers image(g)**(sign * 2**k), at most
    one per generator, sign and bit; it takes no part in equality, hashing
    or printing.  ``_coeff`` is the map restricted to the coefficient layer
    ``ring.base``.  It lands in ``target.base`` when the base generators go
    to constants of a polynomial target, else in ``target`` itself, and it
    shares the ladder, whose generator names are distinct across layers.
    """

    ring: CoeffRing
    images: tuple[tuple[str, CoeffElem], ...]
    target: CoeffRing
    _identity: bool = field(compare=False, default=False)
    _ladder: dict = field(compare=False, repr=False, default_factory=dict)
    _coeff: "RingMap | None" = field(compare=False, repr=False, default=None)

    def __post_init__(self):
        ring, target = self.ring, self.target
        if self._identity or not ring.generator_names():
            return
        below = ring.base.generator_names()
        images = {g: img for g, img in self.images if g in below}
        layer = target
        if isinstance(target, PolyRing) and all(
            len(img.value) == 1 and not any(img.value[0][0]) for img in images.values()
        ):
            layer = target.base
            images = {g: layer.elem(img.value[0][1]) for g, img in images.items()}
        fixed = all(img == ring.base.generator(g) for g, img in images.items())
        identity = layer == ring.base and fixed
        coeff = RingMap(ring.base, tuple(images.items()), layer, identity, self._ladder)
        object.__setattr__(self, "_coeff", coeff)

    @classmethod
    def identity(cls, ring: CoeffRing) -> "RingMap":
        images = tuple((g, ring.generator(g)) for g in ring.generator_names())
        return cls(ring, images, ring, True)

    @classmethod
    def from_images(
        cls, ring: CoeffRing, images: Mapping[str, CoeffElem], target: CoeffRing | None = None
    ) -> "RingMap":
        """The map with the given generator images, into ``target`` (by
        default ``ring`` itself)."""
        target = ring if target is None else target
        full = _generator_images(ring, target, images, ring.generator, "map")
        for g in ring.inverted_generator_names():
            img = dict(full)[g]
            if not img.is_unit():
                raise NotAUnitError(
                    f"image of invertible generator {g} must be a unit, got {img}"
                )
        identity = target == ring and all(img == ring.generator(g) for g, img in full)
        return cls(ring, full, target, identity)

    def image(self, name: str) -> CoeffElem:
        for g, img in self.images:
            if g == name:
                return img
        raise KeyError(name)

    def is_identity(self) -> bool:
        return self._identity

    def _power(self, name: str, e: int):
        """Raw value of image(name)**e: the product of the ladder entries
        image(name)**(sign * 2**k) over the set bits k of |e|, each entry
        squared from the one below it the first time it is needed."""
        target = self.target
        ladder = self._ladder
        sign = -1 if e < 0 else 1
        e = abs(e)
        out = rung = None
        k = 0
        while e:
            key = (name, sign, k)
            nxt = ladder.get(key)
            if nxt is None:
                if k:
                    nxt = target._mul(rung, rung)
                else:
                    nxt = self.image(name).value
                    if sign < 0:
                        nxt = target._inverse(nxt)
                ladder[key] = nxt
            rung = nxt
            if e & 1:
                out = rung if out is None else target._mul(out, rung)
            e >>= 1
            k += 1
        return target._one() if out is None else out

    def apply(self, r: CoeffElem) -> CoeffElem:
        """The image of r in the target."""
        ring = self.ring
        if r.ring is not ring and r.ring != ring:
            raise RingMismatchError("element belongs to a different ring")
        if self._identity:
            return r
        return CoeffElem(self.target, self._eval(r.value))

    def _eval(self, v):
        """Raw image of the raw value v, one tower layer at a time: the map
        sends sum c_a y^a to sum coeff(c_a) * image(y)^a, so a coefficient
        layer that the map fixes costs no work at all."""
        if self._identity:
            return v
        ring, target, coeff = self.ring, self.target, self._coeff
        if coeff is None:  # a prime field: the canonical map
            return target._from_fraction(v)
        mul, power, layer = target._mul, self._power, coeff.target
        lifted = layer is not target  # coeff lands in target.base
        laurent = isinstance(ring, LaurentRing)
        names = (ring.var,) if laurent else ring.vars
        zero = (0,) * len(target.vars) if lifted else None
        out = []
        for key, c in v:
            a = coeff._eval(c)
            if lifted:
                if layer._is_zero(a):
                    continue
                a = ((zero, a),)
            p = None
            for g, e in zip(names, (key,) if laurent else key):
                if e:
                    f = power(g, e)
                    p = f if p is None else mul(p, f)
            out.append(a if p is None else mul(p, a))
        return target._sum(out)


@dataclass(frozen=True, slots=True)
class SigmaDerivation:
    """A twisted derivation: additive, with d(ab) = twist(a) d(b) + d(a) b.

    Determined by its values on generators; d vanishes on the prime field.
    r |-> M(r) = [[twist(r), d(r)], [0, r]] is a ring map into triangular
    matrices exactly when d is a twist-derivation, so d is evaluated as the
    corner entry of the RingMap ``_matrix`` with M(g) = [[twist(g), d(g)],
    [0, g]]; on Laurent generators this gives d(g^-1) = -twist(g)^-1 d(g)
    g^-1.  Because the rings here are commutative, the generator matrices
    must commute, which reads

        twist(g) d(h) + d(g) h  ==  twist(h) d(g) + d(h) g,

    otherwise d(gh) and d(hg) would disagree; the constructor rejects
    incompatible data, and with it in place the twisted Leibniz law holds by
    construction on the whole ring.  The zero derivation has no matrix map.
    """

    ring: CoeffRing
    twist: RingMap
    images: tuple[tuple[str, CoeffElem], ...]
    _matrix: RingMap | None = field(compare=False, repr=False, default=None)

    @classmethod
    def zero(cls, ring: CoeffRing, twist: RingMap | None = None) -> "SigmaDerivation":
        if twist is None:
            twist = RingMap.identity(ring)
        return cls(ring, twist, tuple((g, ring.zero()) for g in ring.generator_names()))

    @classmethod
    def from_images(
        cls,
        ring: CoeffRing,
        twist: RingMap,
        images: Mapping[str, CoeffElem],
    ) -> "SigmaDerivation":
        if twist.ring != ring or twist.target != ring:
            raise RingMismatchError("twist acts on a different ring")
        full = _generator_images(ring, ring, images, lambda g: ring.zero(), "derivation")
        if not any(img for _, img in full):
            return cls(ring, twist, full)
        tri = _Triangular(ring)
        matrices = [
            (g, tri.elem((twist.image(g).value, dg.value, ring.generator(g).value)))
            for g, dg in full
        ]
        for idx, (g, mg) in enumerate(matrices):
            for h, mh in matrices[idx + 1 :]:
                if mg * mh != mh * mg:
                    raise ValueError(
                        f"derivation images on {g!r} and {h!r} are incompatible "
                        "with the twist (d(gh) and d(hg) would disagree)"
                    )
        return cls(ring, twist, full, RingMap.from_images(ring, dict(matrices), tri))

    image = RingMap.image

    def is_zero_map(self) -> bool:
        return self._matrix is None

    def apply(self, r: CoeffElem) -> CoeffElem:
        if self._matrix is None:
            if r.ring is not self.ring and r.ring != self.ring:
                raise RingMismatchError("element belongs to a different ring")
            return self.ring.zero()
        return CoeffElem(self.ring, self._matrix.apply(r).value[1])


# ---------------------------------------------------------------------------
# linear algebra


def weighted_monomials(weights, bound: int):
    """Exponent vectors b with sum b_i * weights[i] <= bound (weights >= 1),
    by increasing weighted degree, lexicographically descending within one;
    each is pushed once, from b minus one in its last nonzero slot."""
    n = len(weights)
    heap = [(0, (0,) * n, 0)]  # (weighted degree, negated vector, first slot to raise)
    while heap:
        deg, neg, start = heapq.heappop(heap)
        yield tuple(-x for x in neg)
        for i in range(start, n):
            if deg + weights[i] <= bound:
                child = neg[:i] + (neg[i] - 1,) + neg[i + 1 :]
                heapq.heappush(heap, (deg + weights[i], child, i))


def _add_scaled(acc: dict, items, r, ring: CoeffRing) -> None:
    """acc += r * items over raw values of ``ring``, dropping zeros."""
    mul, add, is_zero = ring._mul, ring._add, ring._is_zero
    for alpha, c in items:
        v = mul(r, c)
        if is_zero(v):
            continue
        s = acc.get(alpha)
        if s is not None:
            v = add(s, v)
            if is_zero(v):
                del acc[alpha]
                continue
        acc[alpha] = v


def _dependency(rows, ring: CoeffRing, charge=None):
    """Fraction-free elimination of ``rows`` (column -> nonzero raw value of
    the integral domain ``ring``) in order, up to the first row in the span
    of those before it: then {row index k: c_k} with sum c_k * rows[k] = 0
    and c_k != 0 at that row, else None (independent over the fraction
    field, equivalently over ``ring``).  ``charge``, if given, is called
    with the entries each step reads and each stored row holds."""
    pivots: dict = {}  # least column of a stored row -> (row, its combination)
    for k, row in enumerate(rows):
        combo = {k: ring._one()}
        while True:
            # a stored row has no column below its pivot, so clearing the
            # least pivot column first never brings back a cleared one
            hits = [col for col in row if col in pivots]
            if not hits:
                break
            col = min(hits)
            prow, pcombo = pivots[col]
            if charge:
                charge(len(row) + len(prow) + len(pcombo))
            s, t = prow[col], ring._neg(row[col])  # row <- s*row + t*prow clears col
            row = {key: ring._mul(s, c) for key, c in row.items()}
            combo = {key: ring._mul(s, c) for key, c in combo.items()}
            _add_scaled(row, prow.items(), t, ring)
            _add_scaled(combo, pcombo.items(), t, ring)
        if not row:
            return combo
        if charge:
            charge(len(row) + len(combo))
        pivots[min(row)] = (row, combo)
    return None


QQ = Rationals()
