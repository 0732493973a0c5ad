"""Parameter systems for skew PBW extensions and the existence checker.

A presentation packages the commutation data over a coefficient ring R:
one twist endomorphism and one twisted derivation per variable (how each
variable passes coefficients), and for every variable pair i < j the unit
c_ij, the linear terms a_ij^(k), and the constant d_ij of

    x_j x_i  =  c_ij x_i x_j + a_ij^(1) x_1 + ... + a_ij^(n) x_n + d_ij.

Whether these data actually define a ring on the standard monomials is
decided by an overlap check: every variable-variable-coefficient word and
every decreasing variable triple must normalize to the same value along both
reduction orders.  Condition 1 below covers the laws and the injectivity
of the maps, condition 2 the (x_j, x_i, r) overlaps, condition 3 the
(x_k, x_j, x_i) overlaps.  Condition 3 is exhaustive (finitely many
triples).  Condition 2 quantifies over all of R, but its defect E(r) is
additive and obeys E(rs) = sigma_j sigma_i(r) E(s) + E(r) s, so checking it
at 1 and at each generator of R decides it exactly.  Condition 1's laws hold
by construction for RingMap and SigmaDerivation, and injectivity is decided
by constant images, the Jacobian criterion and, over F_p with a zero
Jacobian, a kernel search by linear algebra below Perron's degree bound
(docs/exactness.md).  Nothing here draws a random number.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields

from .algebra import Poly
from .reduction import h_word, normalize_h, reduce_p
from .rings import (
    NAME_RE,
    QQ,
    CoeffElem,
    CoeffRing,
    LaurentRing,
    PolyRing,
    RingMap,
    RingMismatchError,
    SigmaDerivation,
    _dependency,
    flat_terms,
    weighted_monomials,
)
from .words import FreeElem, Scalar, Var

POSITIONAL_RE = re.compile(r"^x([0-9]+)$")
MAX_KERNEL_WORK = 400_000  # unknowns and row entries of condition 1's kernel search over F_p
MAX_VARS = 1000  # variables per presentation: bounds check's O(n^3) triples and dense a lists


class PresentationError(ValueError):
    """Structurally malformed parameter system."""


def _check_var_names(names: tuple[str, ...], ring: CoeffRing) -> None:
    if len(set(names)) != len(names):
        raise PresentationError("variable names must be distinct")
    gens = set(ring.generator_names())
    for pos, name in enumerate(names):
        if not NAME_RE.match(name):
            raise PresentationError(f"invalid variable name {name!r}")
        if name in gens:
            raise PresentationError(f"variable {name!r} collides with a coefficient generator")
        m = POSITIONAL_RE.match(name)
        if m and int(m.group(1)) != pos + 1:
            raise PresentationError(
                f"positional name {name!r} must sit at slot {m.group(1)}"
            )
    for g in gens:
        if POSITIONAL_RE.match(g):
            raise PresentationError(
                f"coefficient generator {g!r} would shadow positional variable names"
            )


class Presentation:
    """Immutable parameter system; validation here is structural only.

    Whether the parameters satisfy the existence conditions is a separate
    question answered by check_all: construction must accept e.g. a non-unit
    c_ij so the checker can report it.
    """

    __slots__ = (
        "ring",
        "var_names",
        "sigma",
        "delta",
        "_one",
        "_zero",
        "_c",
        "_d",
        "_lin",
        "_fingerprint",
        "_reduce_cache",
        "_vtm_cache",
        "_h_cache",
    )

    def __init__(
        self,
        ring: CoeffRing,
        var_names,
        sigma=None,
        delta=None,
        c=None,
        d=None,
        a=None,
    ):
        self.ring = ring
        self.var_names = tuple(var_names)
        if len(self.var_names) > MAX_VARS:
            raise PresentationError(
                f"{len(self.var_names)} variables exceed the cap of {MAX_VARS}"
            )
        _check_var_names(self.var_names, ring)
        n = len(self.var_names)

        if sigma is None:
            sigma = [RingMap.identity(ring)] * n
        self.sigma = tuple(sigma)
        if len(self.sigma) != n:
            raise PresentationError(f"need {n} twist maps, got {len(self.sigma)}")
        for s in self.sigma:
            if s.ring != ring:
                raise RingMismatchError("twist map over a different ring")

        if delta is None:
            delta = [SigmaDerivation.zero(ring, s) for s in self.sigma]
        self.delta = tuple(delta)
        if len(self.delta) != n:
            raise PresentationError(f"need {n} derivations, got {len(self.delta)}")
        for i, dv in enumerate(self.delta):
            if dv.ring != ring:
                raise RingMismatchError("derivation over a different ring")
            if dv.twist != self.sigma[i]:
                raise PresentationError(f"derivation {i} is not twisted by twist {i}")

        # only the parameters that differ from the defaults c = 1, a = d = 0
        self._one = ring.one()
        self._zero = ring.zero()
        self._c = {}
        self._d = {}
        for key, val in dict(c or {}).items():
            pair, v = self._pair(key), self._elem(val)
            if v != self._one:
                self._c[pair] = v
        for key, val in dict(d or {}).items():
            pair, v = self._pair(key), self._elem(val)
            if v:
                self._d[pair] = v
        lin: dict = {}
        for key, val in dict(a or {}).items():
            i, j, k = key
            if not (0 <= i < j < n and 0 <= k < n):
                raise PresentationError(f"bad linear-term index {key}")
            v = self._elem(val)
            if v:
                lin.setdefault((i, j), []).append((k, v))
        # each k occurs once per pair, so sorting never compares two values
        self._lin = {pair: tuple(sorted(terms)) for pair, terms in lin.items()}

        self._fingerprint = None
        self._reduce_cache = {}
        self._vtm_cache = {}
        self._h_cache = {}

    def _pair(self, key) -> tuple[int, int]:
        i, j = key
        if not (0 <= i < j < self.n):
            raise PresentationError(f"relation pair {key} must have 0 <= i < j < n")
        return (i, j)

    def _elem(self, val) -> CoeffElem:
        if isinstance(val, int):
            return self.ring.from_int(val)
        if not isinstance(val, CoeffElem):
            raise PresentationError(f"parameter {val!r} is not a ring element")
        if val.ring != self.ring:
            raise RingMismatchError("parameter from a different ring")
        return val

    @property
    def n(self) -> int:
        return len(self.var_names)

    def c_of(self, i: int, j: int) -> CoeffElem:
        return self._c.get((i, j), self._one)

    def d_of(self, i: int, j: int) -> CoeffElem:
        return self._d.get((i, j), self._zero)

    def a_vector(self, i: int, j: int) -> tuple[CoeffElem, ...]:
        row = [self._zero] * self.n
        for k, a in self.linear_terms(i, j):
            row[k] = a
        return tuple(row)

    def linear_terms(self, i: int, j: int) -> tuple[tuple[int, CoeffElem], ...]:
        """The nonzero (k, a_ijk) of the pair, in ascending k."""
        return self._lin.get((i, j), ())

    @property
    def fingerprint(self) -> str:
        """sha256 of a listing of all parameters, for printing only: __eq__
        compares the stored parameters."""
        if self._fingerprint is None:
            lines = [self.ring.describe(), " ".join(self.var_names)]
            for i in range(self.n):
                imgs = " ".join(f"{g}->{img}" for g, img in self.sigma[i].images)
                lines.append(f"sigma{i}: {imgs}")
                imgs = " ".join(f"{g}->{img}" for g, img in self.delta[i].images)
                lines.append(f"delta{i}: {imgs}")
            for i in range(self.n):
                for j in range(i + 1, self.n):
                    avec = ", ".join(str(x) for x in self.a_vector(i, j))
                    lines.append(f"rel {i} {j}: c={self.c_of(i, j)} d={self.d_of(i, j)} a=({avec})")
            # imported here: hashlib loads OpenSSL, about 3.6 MB resident,
            # and only a printed header needs the digest
            import hashlib

            digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
            self._fingerprint = digest
        return self._fingerprint

    def _params(self) -> tuple:
        return (self.ring, self.var_names, self.sigma, self.delta, self._c, self._d, self._lin)

    def __eq__(self, other):
        if not isinstance(other, Presentation):
            return NotImplemented
        return self is other or self._params() == other._params()

    def __hash__(self):
        return hash((self.ring, self.var_names))

    def __repr__(self):
        return (
            f"Presentation({self.ring.describe()}; vars {', '.join(self.var_names)}; "
            f"{self.fingerprint[:12]})"
        )


def derived_params(P: Presentation, j: int, i: int):
    """Parameters of the mirrored pair: from x_j x_i = c_ij x_i x_j + ...
    with i < j, solve for x_i x_j.  Needs c_ij invertible."""
    if not 0 <= i < j < P.n:
        raise ValueError("derived_params expects j > i")
    c_ji = P.c_of(i, j).inverse()
    d_ji = -c_ji * P.d_of(i, j)
    a_ji = tuple(-c_ji * a for a in P.a_vector(i, j))
    return c_ji, d_ji, a_ji


# ---------------------------------------------------------------------------
# consistency reports


@dataclass
class Condition1Item:
    i: int
    endomorphism_ok: bool
    derivation_ok: bool
    nonzero_ok: bool  # no nonzero r with sigma_i(r) = 0 is known
    injectivity: str  # "injective" | "not injective" | "not decided"
    injectivity_mode: str  # "structural" | "over cap" | "skipped"
    witness: str | None = None

    @property
    def ok(self) -> bool:
        return self.endomorphism_ok and self.derivation_ok and self.nonzero_ok


@dataclass
class UnitItem:
    i: int
    j: int
    ok: bool
    value: CoeffElem


@dataclass
class Condition2Item:
    i: int
    j: int
    r: CoeffElem
    ok: bool
    lhs: Poly
    rhs: Poly


@dataclass
class Condition3Item:
    i: int
    j: int
    k: int
    ok: bool
    lhs: Poly
    rhs: Poly


@dataclass
class ConsistencyReport:
    fingerprint: str
    condition1: list[Condition1Item] = field(default_factory=list)
    c_units: list[UnitItem] = field(default_factory=list)
    condition2: list[Condition2Item] = field(default_factory=list)
    condition2_mode: str = "skipped"
    condition3: list[Condition3Item] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        parts = (self.condition1, self.c_units, self.condition2, self.condition3)
        return all(it.ok for items in parts for it in items)

    def failures(self) -> list[str]:
        out = []
        for it in self.condition1:
            if not it.ok:
                out.append(f"condition 1 fails at x{it.i + 1}: {it.witness}")
        for it in self.c_units:
            if not it.ok:
                out.append(f"c({it.i + 1},{it.j + 1}) = {it.value} is not a unit")
        for it in self.condition2:
            if not it.ok:
                out.append(
                    f"condition 2 fails at (i,j)=({it.i + 1},{it.j + 1}), r={it.r}: "
                    f"lhs={it.lhs} rhs={it.rhs}"
                )
        for it in self.condition3:
            if not it.ok:
                out.append(
                    f"condition 3 fails at (i,j,k)=({it.i + 1},{it.j + 1},{it.k + 1}): "
                    f"lhs={it.lhs} rhs={it.rhs}"
                )
        return out

    def summary(self) -> str:
        lines = [f"presentation {self.fingerprint[:12]}"]
        for it in self.condition1:
            lines.append(
                f"condition 1, x{it.i + 1}: endomorphism {'ok' if it.endomorphism_ok else 'FAIL'}; "
                f"derivation {'ok' if it.derivation_ok else 'FAIL'}; "
                f"nonzero {'ok' if it.nonzero_ok else 'FAIL'}; "
                f"injectivity: {it.injectivity} ({it.injectivity_mode})"
            )
        bad_units = [it for it in self.c_units if not it.ok]
        if bad_units:
            for it in bad_units:
                lines.append(f"c({it.i + 1},{it.j + 1}) = {it.value}: NOT a unit")
        else:
            lines.append(f"units: all {len(self.c_units)} c(i,j) invertible")
        n2_fail = sum(1 for it in self.condition2 if not it.ok)
        lines.append(
            f"condition 2 [{self.condition2_mode}]: {len(self.condition2)} checks, "
            + ("all pass" if n2_fail == 0 else f"{n2_fail} FAIL")
        )
        n3_fail = sum(1 for it in self.condition3 if not it.ok)
        lines.append(
            f"condition 3: {len(self.condition3)} triples, "
            + ("all pass" if n3_fail == 0 else f"{n3_fail} FAIL")
        )
        lines.extend(self.failures())
        lines.append("overall: " + ("PASS" if self.overall else "FAIL"))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "presentation": self.fingerprint,
            "condition1": [_item_dict(it) for it in self.condition1],
            "c_units": [_item_dict(it) for it in self.c_units],
            "condition2_mode": self.condition2_mode,
            "condition2": [_item_dict(it) for it in self.condition2],
            "condition3": [_item_dict(it) for it in self.condition3],
            "overall": self.overall,
        }


def _item_dict(it) -> dict:
    """A report item's fields in order: indices 1-based, flags and text as
    they are, ring elements and polynomials printed."""
    out = {}
    for f in fields(it):
        v = getattr(it, f.name)
        if f.name in ("i", "j", "k"):
            v += 1
        out[f.name] = v if isinstance(v, (int, str, type(None))) else str(v)
    return out


# ---------------------------------------------------------------------------
# condition 1: laws and injectivity of the structure maps


def _injectivity(sigma: RingMap, i: int):
    """(verdict, mode, witness) for the injectivity of the twist of x_{i+1};
    docs/exactness.md proves each step."""
    ring = sigma.ring
    if sigma.is_identity():
        return "injective", "structural", None
    names = ring.generator_names()
    for g in names:
        c = sigma.image(g)
        if c.is_constant():
            return "not injective", "structural", f"sigma{i + 1}({ring.generator(g) - c}) = 0"
    if len(names) == 1:
        # one generator with a non-constant image: it is transcendental
        return "injective", "structural", None
    ident = RingMap.identity(ring)
    partials = {h: SigmaDerivation.from_images(ring, ident, {h: ring.one()}) for h in names}
    jacobian = [
        {h: x.value for h, d in partials.items() if (x := d.apply(sigma.image(g)))}
        for g in names
    ]
    if _dependency(jacobian, ring) is None:
        return "injective", "structural", None
    if ring.prime_ring() == QQ:
        images = ", ".join(f"sigma{i + 1}({g})" for g in names)
        witness = f"{images} are algebraically dependent (zero Jacobian)"
        return "not injective", "structural", witness
    # over F_p a zero Jacobian decides nothing (t -> t^p is injective)
    return _kernel_search(sigma, i)


class _OverCap(Exception):
    pass


def _kernel_search(sigma: RingMap, i: int):
    """Condition 1 over F_p with a zero Jacobian, for sigma on F_p[g] or
    F_p[q^+-1][g] with no generator sent to a constant: a kernel element
    below Perron's bound, by linear algebra (docs/exactness.md, step 6)."""
    ring = sigma.ring
    us = [ring.generator(g) for g in ring.generator_names()]
    if isinstance(ring.base, LaurentRing):
        # sigma(q) = c*q^e with e != 0: u_q = q^sign(e), and u_t = t*u_q^N
        # with the least N that clears negative powers of q from sigma(u_t)
        e = sigma.image(ring.base.var).value[0][1][0][0]
        us[0] = us[0] if e > 0 else us[0].inverse()
        for k in range(1, len(us)):
            low = min(x[0] for x, _ in flat_terms(ring, sigma.apply(us[k]).value))
            us[k] = us[k] * us[0] ** max(0, -(low // abs(e)))
    flat = PolyRing(ring.prime_ring(), ring.generator_names())
    images = [flat._canon(dict(flat_terms(ring, sigma.apply(u).value))) for u in us]
    weights = [max(1, *(sum(x) for x, _ in img)) for img in images]
    work, memo = 0, {}  # memo: b -> sigma(u^b), flat

    def charge(n: int) -> None:
        nonlocal work
        work += n
        if work > MAX_KERNEL_WORK:
            raise _OverCap

    def rows():
        for b in weighted_monomials(weights, math.prod(weights)):
            # sigma(u^b) = sigma(u^(b - e_g)) * sigma(u_g), g the last nonzero slot
            g = max((k for k, x in enumerate(b) if x), default=None)
            if g is None:
                memo[b] = flat._one()
            else:
                parent = memo[b[:g] + (b[g] - 1,) + b[g + 1 :]]
                charge(1 + len(parent) * len(images[g]))  # bounds the row's terms
                memo[b] = flat._mul(parent, images[g])
            yield dict(memo[b])

    try:
        combo = _dependency(rows(), flat.base, charge)
    except _OverCap:
        why = f"kernel search for sigma{i + 1} passed MAX_KERNEL_WORK = {MAX_KERNEL_WORK}"
        return "not decided", "over cap", why
    if combo is None:
        return "injective", "structural", None
    fp, order = flat.base, list(memo)
    scale = fp._neg(fp._inverse(combo[len(order) - 1]))  # -1 on the last row
    r = ring.zero()
    for k, c in combo.items():
        u_b = math.prod((u**x for u, x in zip(us, order[k])), start=ring.one())
        r = r + ring.from_int(fp._mul(scale, c)) * u_b
    return "not injective", "structural", f"sigma{i + 1}({r}) = 0"


def validate_structure(P: Presentation, samples: int = 16, seed: int = 0) -> ConsistencyReport:
    """Condition 1, plus unit checks on the c_ij.  The map laws hold by
    construction for RingMap and SigmaDerivation objects, so they are
    checked by type; injectivity is decided exactly, or reported over the
    kernel search's cap.  ``samples`` and ``seed`` are unused."""
    report = ConsistencyReport(fingerprint=P.fingerprint)
    for i in range(P.n):
        sigma = P.sigma[i]
        delta = P.delta[i]
        endo_ok = isinstance(sigma, RingMap)
        deriv_ok = isinstance(delta, SigmaDerivation) and delta.twist == sigma
        if endo_ok:
            inj, inj_mode, witness = _injectivity(sigma, i)
        else:
            inj, inj_mode, witness = "not decided", "skipped", f"sigma{i + 1} is not a RingMap"
        if not deriv_ok:
            witness = witness or f"delta{i + 1} is not a SigmaDerivation twisted by sigma{i + 1}"
        report.condition1.append(
            Condition1Item(i, endo_ok, deriv_ok, inj != "not injective", inj, inj_mode, witness)
        )
    for i in range(P.n):
        for j in range(i + 1, P.n):
            cij = P.c_of(i, j)
            report.c_units.append(UnitItem(i, j, cij.is_unit(), cij))
    return report


# ---------------------------------------------------------------------------
# conditions 2 and 3: overlap checks


def _two_orders(P: Presentation, head: tuple, last) -> tuple[bool, Poly, Poly]:
    """Normal form of the word head + (last,) along the rightmost-first
    reduction order, against straightening ``head`` first; (equal, lhs, rhs)."""
    lhs = h_word(head + (last,), P)
    rhs = normalize_h(reduce_p(head, P).concat(FreeElem.from_word((last,))), P)
    return lhs == rhs, lhs, rhs


def check_condition2(P: Presentation, i: int, j: int, r: CoeffElem) -> Condition2Item:
    """Compare the two reduction orders of the word x_j x_i r."""
    if not 0 <= i < j < P.n:
        raise ValueError("condition 2 expects i < j")
    return Condition2Item(i, j, r, *_two_orders(P, (Var(j), Var(i)), Scalar(r)))


def check_condition3(P: Presentation, i: int, j: int, k: int) -> Condition3Item:
    """Compare the two reduction orders of the overlap word x_k x_j x_i."""
    if not 0 <= i < j < k < P.n:
        raise ValueError("condition 3 expects i < j < k")
    return Condition3Item(i, j, k, *_two_orders(P, (Var(k), Var(j)), Var(i)))


def decisive_coefficients(ring: CoeffRing) -> list[CoeffElem]:
    """1 and each generator: a twisted-Leibniz defect that vanishes there
    vanishes on all of the ring (docs/exactness.md)."""
    return [ring.one()] + [ring.generator(g) for g in ring.generator_names()]


def check_all(P: Presentation, samples: int = 16, seed: int = 0) -> ConsistencyReport:
    """Run conditions 1-3; overall pass means the parameters define an
    extension.  Condition 2 is checked at 1 and at each coefficient
    generator, which decides it for every r (docs/exactness.md).  Nothing
    is sampled: ``samples`` and ``seed`` are unused."""
    report = validate_structure(P)
    report.condition2_mode = "structural"
    rs = decisive_coefficients(P.ring)
    for i in range(P.n):
        for j in range(i + 1, P.n):
            for r in rs:
                report.condition2.append(check_condition2(P, i, j, r))
    for i in range(P.n):
        for j in range(i + 1, P.n):
            for k in range(j + 1, P.n):
                report.condition3.append(check_condition3(P, i, j, k))
    return report
