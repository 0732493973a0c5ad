"""Extending coefficient maps to ring homomorphisms between extensions.

A homomorphism seed consists of a coefficient map (where each generator of
the source coefficient ring goes, as a constant of the target) together with
one target element per source variable.  When the seed satisfies the two
compatibility conditions -- each y_i passes mapped coefficients by the mapped
twist-and-derive rule, and each pair y_j y_i satisfies the mapped commutation
relation -- the termwise extension

    sum r x^alpha  |->  sum phi(r) y_1^a1 * ... * y_n^an

is the unique ring homomorphism agreeing with the seed, and the machinery
below evaluates it inside the target engine.  Target rings are restricted to
engine-representable extensions; by the basis argument this loses nothing at
the level of checkable content.

Condition (i) is checked at 1 and the source coefficient generators only,
which is exact (docs/exactness.md).  The constant term of the pair condition
is mapped through phi as well; powers of y are multiplied left to right.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import Poly, star
from .presentation import Presentation, decisive_coefficients
from .rings import (
    CoeffElem,
    NotAUnitError,
    RingMap,
    RingMismatchError,
    _dependency,
    weighted_monomials,
)


class HomSpecError(ValueError):
    """Malformed homomorphism seed."""


@dataclass
class HomSpec:
    """Seed data: coefficient map phi (generator name -> constant Poly over
    the target) and the variable images y."""

    source: Presentation
    target: Presentation
    phi: dict[str, Poly]
    y: tuple[Poly, ...]

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
        each factor by squaring."""
        hit = self._ypow_cache.get(alpha)
        if hit is not None:
            return hit
        out = Poly.one(self.target)
        for i, e in enumerate(alpha):
            if e:
                out = star(out, self.y[i] ** e)
        self._ypow_cache[alpha] = out
        return out


@dataclass
class HomConditionItem:
    label: str
    ok: bool
    lhs: Poly
    rhs: Poly


@dataclass
class HomReport:
    condition_i: list[HomConditionItem] = field(default_factory=list)
    condition_ii: list[HomConditionItem] = field(default_factory=list)

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
            f"condition (i): {len(self.condition_i)} checks, "
            + ("all pass" if all(it.ok for it in self.condition_i) else "FAIL"),
            f"condition (ii): {len(self.condition_ii)} checks, "
            + ("all pass" if all(it.ok for it in self.condition_ii) else "FAIL"),
        ]
        lines.extend(self.failures())
        lines.append("overall: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def check_hom_conditions(spec: HomSpec, samples: int = 16) -> HomReport:
    """Condition (i) at 1 and at each source coefficient generator, which
    decides it for every coefficient (docs/exactness.md); condition (ii)
    exhaustively over variable pairs.  ``samples`` is accepted for
    compatibility and unused."""
    report = HomReport()
    src = spec.source
    rs = decisive_coefficients(src.ring)
    for i in range(src.n):
        yi = spec.y[i]
        for r in rs:
            lhs = star(yi, Poly.const(spec.target, spec.map_coeff(r)))
            rhs = spec.map_coeff(src.sigma[i].apply(r)) * yi + Poly.const(
                spec.target, spec.map_coeff(src.delta[i].apply(r))
            )
            report.condition_i.append(
                HomConditionItem(f"(i) y{i + 1} past r={r}", lhs == rhs, lhs, rhs)
            )
    for i in range(src.n):
        for j in range(i + 1, src.n):
            lhs = star(spec.y[j], spec.y[i])
            rhs = spec.map_coeff(src.c_of(i, j)) * star(spec.y[i], spec.y[j])
            for k, a in src.linear_terms(i, j):
                rhs = rhs + spec.map_coeff(a) * spec.y[k]
            dij = src.d_of(i, j)
            if dij:
                rhs = rhs + Poly.const(spec.target, spec.map_coeff(dij))
            report.condition_ii.append(
                HomConditionItem(f"(ii) pair ({i + 1},{j + 1})", lhs == rhs, lhs, rhs)
            )
    return report


def extend_hom(spec: HomSpec, f: Poly) -> Poly:
    """Termwise image of a source polynomial under the extended map."""
    if f.pres != spec.source:
        raise HomSpecError("extend_hom expects a source polynomial")
    out = Poly.zero(spec.target)
    for alpha, r in f.terms.items():
        out = out + spec.map_coeff(r) * spec.y_power(alpha)
    return out


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
    rows = (
        {a: c.value for a, c in spec.y_power(alpha).terms.items()}
        for alpha in weighted_monomials((1,) * spec.source.n, degree)
    )
    return _dependency(rows, spec.target.ring) is None
