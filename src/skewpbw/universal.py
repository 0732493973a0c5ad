"""Extending coefficient maps to ring homomorphisms between extensions.

A homomorphism seed consists of a coefficient map (where each generator of
the source coefficient ring goes, as a constant of the target) together with
one target element per source variable.  The termwise extension

    f :  sum r x^alpha  |->  sum phi(r) y_1^a1 * ... * y_n^an

is a ring homomorphism, the unique one agreeing with the seed, exactly when
f(x_i) f(r) = f(x_i r) for each variable and coefficient (condition (i))
and f(x_j) f(x_i) = f(x_j x_i) for each pair i < j (condition (ii)).  Both
sides come from ``star`` and ``extend_hom``, so only the product engine
reads the relations.  Target rings are restricted to engine-representable extensions; by the basis
argument this loses nothing at the level of checkable content.

Condition (i) is checked at 1 and the source coefficient generators only,
which is exact (docs/exactness.md).  Powers of y are multiplied left to
right, and images equal to 1 are left out.
"""

from __future__ import annotations

from functools import reduce

from .algebra import Poly, star
from .presentation import Presentation, decisive_coefficients
from .rings import (
    CoeffElem,
    NotAUnitError,
    Record,
    RingMap,
    RingMismatchError,
    _dependency,
    combine_terms,
    weighted_monomials,
)


class HomSpecError(ValueError):
    """Malformed homomorphism seed."""


class HomSpec(Record):
    """Seed data: coefficient map phi (generator name -> constant Poly over
    the target) and the variable images y."""

    _fields = ("source", "target", "phi", "y")

    def __init__(self, source: Presentation, target: Presentation, phi: dict, y: tuple):
        self.source, self.target, self.phi, self.y = source, target, phi, y
        self.__post_init__()  # the validation, a hook point of bench/tracer.py

    def __post_init__(self):
        self.y = tuple(self.y)
        src_gens = self.source.ring.generator_names()
        if set(self.phi) != set(src_gens):
            raise HomSpecError(
                f"phi must cover exactly the source generators {sorted(src_gens)}"
            )
        for g, img in self.phi.items():
            if img.pres != self.target:
                raise HomSpecError(f"phi({g}) is not a target polynomial")
            if not img.is_constant():
                raise HomSpecError(f"phi({g}) must be a constant of the target")
        for g in self.source.ring.inverted_generator_names():
            if not self.phi[g].constant_coeff().is_unit():
                raise NotAUnitError(f"phi({g}) must be a unit of the target coefficients")
        if len(self.y) != self.source.n:
            raise HomSpecError(f"need {self.source.n} variable images, got {len(self.y)}")
        for yi in self.y:
            if yi.pres != self.target:
                raise HomSpecError("variable image is not a target polynomial")
        src, tgt = self.source.ring, self.target.ring
        if src.prime_ring() != tgt.prime_ring():
            raise HomSpecError(
                f"bottom fields differ: {src.prime_ring().describe()} vs "
                f"{tgt.prime_ring().describe()}"
            )
        images = {g: img.constant_coeff() for g, img in self.phi.items()}
        self._phi_map = RingMap.from_images(src, images, tgt)
        self._ypow_cache: dict = {}

    def map_coeff(self, r: CoeffElem) -> CoeffElem:
        """phi on an arbitrary source coefficient."""
        if r.ring != self.source.ring:
            raise RingMismatchError("map_coeff expects a source coefficient")
        return self._phi_map.apply(r)

    def y_power(self, alpha: tuple[int, ...]) -> Poly:
        """y_1^a1 * ... * y_n^an, multiplied left to right in the target,
        each factor by squaring; a factor whose image is 1 is skipped."""
        hit = self._ypow_cache.get(alpha)
        if hit is not None:
            return hit
        one = Poly.one(self.target)
        factors = [y**e for y, e in zip(self.y, alpha) if e and y != one]
        out = reduce(star, factors) if factors else one
        self._ypow_cache[alpha] = out
        return out


class HomConditionItem(Record):
    _fields = ("label", "ok", "lhs", "rhs")

    def __init__(self, label: str, ok: bool, lhs: Poly, rhs: Poly):
        self.label, self.ok, self.lhs, self.rhs = label, ok, lhs, rhs


class HomReport(Record):
    _fields = ("condition_i", "condition_ii")

    def __init__(self, condition_i: list | None = None, condition_ii: list | None = None):
        self.condition_i = [] if condition_i is None else condition_i
        self.condition_ii = [] if condition_ii is None else condition_ii

    @property
    def ok(self) -> bool:
        return all(it.ok for it in self.condition_i + self.condition_ii)

    def failures(self) -> list[str]:
        return [
            f"{it.label}: lhs={it.lhs} rhs={it.rhs}"
            for it in self.condition_i + self.condition_ii
            if not it.ok
        ]

    def summary(self) -> str:
        lines = [
            f"condition {name}: {len(items)} checks, "
            + ("all pass" if all(it.ok for it in items) else "FAIL")
            for name, items in (("(i)", self.condition_i), ("(ii)", self.condition_ii))
        ]
        lines.extend(self.failures())
        lines.append("overall: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def check_hom_conditions(spec: HomSpec, samples: int = 16) -> HomReport:
    """Whether the extension f is multiplicative on the defining relations:
    f(x_i) f(r) = f(x_i r) at 1 and at each source coefficient generator r,
    which decides condition (i) for every coefficient (docs/exactness.md),
    and f(x_j) f(x_i) = f(x_j x_i) for every pair i < j.  ``samples`` is
    accepted for compatibility and unused."""
    src, n = spec.source, spec.source.n

    def item(label: str, f: Poly, g: Poly) -> HomConditionItem:
        lhs = star(extend_hom(spec, f), extend_hom(spec, g))
        rhs = extend_hom(spec, star(f, g))
        return HomConditionItem(label, lhs == rhs, lhs, rhs)

    x = [Poly.variable(src, i) for i in range(n)]
    rs = [(r, Poly.const(src, r)) for r in decisive_coefficients(src.ring)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return HomReport(
        [item(f"(i) y{i + 1} past r={r}", x[i], c) for i in range(n) for r, c in rs],
        [item(f"(ii) pair ({i + 1},{j + 1})", x[j], x[i]) for i, j in pairs],
    )


def extend_hom(spec: HomSpec, f: Poly) -> Poly:
    """Termwise image of a source polynomial under the extended map."""
    if f.pres != spec.source:
        raise HomSpecError("extend_hom expects a source polynomial")
    elem, phi = spec.source.ring.elem, spec.map_coeff
    parts = [(phi(elem(r)).value, spec.y_power(a)._terms.items()) for a, r in f._terms.items()]
    return Poly._trusted(spec.target, dict(combine_terms(spec.target.ring, parts)))


def identity_spec(P: Presentation) -> HomSpec:
    phi = {g: Poly.const(P, P.ring.generator(g)) for g in P.ring.generator_names()}
    y = tuple(Poly.variable(P, i) for i in range(P.n))
    return HomSpec(P, P, phi, y)


def verify_mutual_inverse(spec: HomSpec, spec_back: HomSpec) -> bool:
    """Whether the two extended maps are inverse to each other.  Both seeds
    must pass check_hom_conditions, which makes both extensions ring maps;
    their composites are then the identity exactly when they fix every
    variable and coefficient generator (docs/exactness.md)."""
    if spec.source != spec_back.target or spec.target != spec_back.source:
        raise HomSpecError("specs do not point at each other")
    if not (check_hom_conditions(spec).ok and check_hom_conditions(spec_back).ok):
        return False
    for there, back in ((spec, spec_back), (spec_back, spec)):
        P = there.source
        gens = [Poly.variable(P, i) for i in range(P.n)]
        gens += [Poly.const(P, r) for r in decisive_coefficients(P.ring)]
        if any(extend_hom(back, extend_hom(there, f)) != f for f in gens):
            return False
    return True


# ---------------------------------------------------------------------------
# basis images


def basis_images_independent(spec: HomSpec, degree: int = 3) -> bool:
    """Whether the images of the standard monomials up to the given total
    degree stay linearly independent over the coefficients in the target."""
    monomials = weighted_monomials((1,) * spec.source.n, degree)
    return _dependency((spec.y_power(a)._terms for a in monomials), spec.target.ring) is None
