"""Built-in presentations and the Lie-algebra constructor.

The Lie entries go through StructureConstants, which stores, for each pair
i < j, the coefficient vector of the commutator [x_j, x_i]; the induced
presentation has identity twists, zero derivations, all c = 1 and d = 0.
The jacobiator below expands the cyclic bracket sum directly from the
structure constants, independently of the reduction engine, and is the
oracle the overlap checker is compared against: for these presentations the
triple overlap check passes at (i, j, k) exactly when the jacobiator
vanishes there.

The quantum-matrix and diffusion entries are the standard presentations from
the computer-algebra literature (standard form; their defining constants are
conventions, not derived here).  Quantum entries keep q as a symbolic
Laurent generator so q-power identities stay exact.
"""

from __future__ import annotations

import re
from typing import Mapping

from .presentation import MAX_VARS, Presentation, PresentationError, read_index
from .rings import (
    CoeffElem,
    CoeffRing,
    LaurentRing,
    PolyRing,
    PrimeField,
    QQ,
    Rationals,
    RingMap,
    Value,
)


class StructureConstants(Value):
    """Bracket table of a candidate Lie algebra over a field kind.

    ``lower[(i, j)]`` with i < j is the coefficient vector of [x_j, x_i];
    antisymmetry is built in because only one orientation is stored.
    """

    __slots__ = _fields = ("ring", "n", "lower")

    def __init__(self, ring: CoeffRing, n: int, lower: tuple):
        self._set(ring, n, lower)  # lower: ((i, j), vector of n CoeffElems) pairs

    @classmethod
    def build(
        cls, ring: CoeffRing, n: int, lower: Mapping[tuple[int, int], list]
    ) -> "StructureConstants":
        if not isinstance(ring, (Rationals, PrimeField)):
            raise PresentationError("structure constants need a field kind")
        table = []
        for (i, j), vec in sorted(lower.items()):
            if not 0 <= i < j < n:
                raise PresentationError(f"bracket pair {(i, j)} out of range")
            if len(vec) != n:
                raise PresentationError(f"bracket vector for {(i, j)} must have length {n}")
            elems = tuple(
                v if isinstance(v, CoeffElem) else ring.from_int(v) for v in vec
            )
            if any(elems):
                table.append(((i, j), elems))
        return cls(ring, n, tuple(table))

    def bracket_lower(self, i: int, j: int) -> tuple[CoeffElem, ...]:
        """[x_j, x_i] for i < j."""
        for key, vec in self.lower:
            if key == (i, j):
                return vec
        return tuple(self.ring.zero() for _ in range(self.n))

    def bracket(self, u: int, v: int) -> tuple[CoeffElem, ...]:
        """[x_u, x_v] for any pair of basis indices."""
        if u == v:
            return tuple(self.ring.zero() for _ in range(self.n))
        if u > v:
            return self.bracket_lower(v, u)
        return tuple(-x for x in self.bracket_lower(u, v))

    def bracket_vec(self, vec: tuple[CoeffElem, ...], v: int) -> tuple[CoeffElem, ...]:
        """[sum_m vec_m x_m, x_v] by bilinearity."""
        out = [self.ring.zero()] * self.n
        for m, coeff in enumerate(vec):
            if not coeff:
                continue
            inner = self.bracket(m, v)
            for t in range(self.n):
                out[t] = out[t] + coeff * inner[t]
        return tuple(out)


def jacobiator(sc: StructureConstants, i: int, j: int, k: int) -> tuple[CoeffElem, ...]:
    """Coefficient vector of [[x_j,x_i],x_k] + [x_j,[x_k,x_i]] + [[x_k,x_j],x_i].

    Pure structure-constant expansion; zero exactly when the bracket
    satisfies the Jacobi identity on the triple.
    """
    if not 0 <= i < j < k < sc.n:
        raise ValueError("jacobiator expects i < j < k")
    term1 = sc.bracket_vec(sc.bracket(j, i), k)
    term2 = sc.bracket_vec(sc.bracket(k, i), j)  # [[x_k,x_i],x_j] = -[x_j,[x_k,x_i]]
    term3 = sc.bracket_vec(sc.bracket(k, j), i)
    return tuple(term1[t] - term2[t] + term3[t] for t in range(sc.n))


def lie_presentation(sc: StructureConstants) -> Presentation:
    """Identity twists, zero derivations, c = 1, d = 0, linear terms from the
    bracket table: the enveloping-algebra presentation."""
    a = {}
    for (i, j), vec in sc.lower:
        for k, coeff in enumerate(vec):
            if coeff:
                a[(i, j, k)] = coeff
    names = tuple(f"x{i + 1}" for i in range(sc.n))
    return Presentation(sc.ring, names, c=None, d=None, a=a)


# ---------------------------------------------------------------------------
# named entries


def weyl(n: int) -> Presentation:
    """n-th Weyl algebra over Q: variables t_1..t_n then d_1..d_n, with
    d_i t_i = t_i d_i + 1 and all other pairs commuting."""
    if n < 1:
        raise ValueError("weyl(n) needs n >= 1")
    if 2 * n > MAX_VARS:  # before building 2n names
        raise PresentationError(f"{2 * n} variables exceed the cap of {MAX_VARS}")
    names = tuple(f"t{i + 1}" for i in range(n)) + tuple(f"d{i + 1}" for i in range(n))
    d = {(i, n + i): 1 for i in range(n)}
    return Presentation(QQ, names, d=d)


def u_sl2() -> Presentation:
    """Enveloping algebra of sl2 over Q, basis (e, f, h):
    [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
    sc = StructureConstants.build(
        QQ,
        3,
        {
            (0, 1): [0, 0, -1],  # [f, e] = -h
            (0, 2): [2, 0, 0],  # [h, e] = 2e
            (1, 2): [0, -2, 0],  # [h, f] = -2f
        },
    )
    return lie_presentation(sc)


def u_heisenberg() -> Presentation:
    """Enveloping algebra of the Heisenberg algebra, basis (p, q, z):
    [p,q] = z with z central."""
    sc = StructureConstants.build(QQ, 3, {(0, 1): [0, 0, -1]})  # [q, p] = -z
    return lie_presentation(sc)


def u_so3() -> Presentation:
    """Enveloping algebra of so3 over Q:
    [x1,x2] = x3, [x2,x3] = x1, [x3,x1] = x2."""
    sc = StructureConstants.build(
        QQ,
        3,
        {
            (0, 1): [0, 0, -1],  # [x2, x1] = -x3
            (0, 2): [0, 1, 0],  # [x3, x1] = x2
            (1, 2): [-1, 0, 0],  # [x3, x2] = -x1
        },
    )
    return lie_presentation(sc)


def quantum_plane() -> Presentation:
    """x2 x1 = q x1 x2 over the Laurent ring Q[q, q^-1]."""
    ring = LaurentRing(QQ, "q")
    q = ring.generator("q")
    return Presentation(ring, ("x1", "x2"), c={(0, 1): q})


def quantum_matrices2() -> Presentation:
    """Manin 2x2 quantum matrices, standard form.

    The four-generator algebra is a skew extension of the commutative ring
    generated by the off-diagonal entries: coefficients Q[q^-1,q][b,c],
    variables (a, d) with a b = q^-1 b a, a c = q^-1 c a, d b = q b d,
    d c = q c d, and d a = a d + (q - q^-1) b c.
    """
    base = LaurentRing(QQ, "q")
    ring = PolyRing(base, ("b", "c"))
    q = ring.generator("q")
    b = ring.generator("b")
    c = ring.generator("c")
    qi = q.inverse()
    sigma_a = RingMap.from_images(ring, {"b": qi * b, "c": qi * c})
    sigma_d = RingMap.from_images(ring, {"b": q * b, "c": q * c})
    return Presentation(
        ring,
        ("a", "d"),
        sigma=[sigma_a, sigma_d],
        d={(0, 1): (q - qi) * b * c},
    )


def diffusion2() -> Presentation:
    """Two-species diffusion algebra, axial form (standard form):
    x2 x1 = q x1 x2 + x1 - x2 over Q[q, q^-1]."""
    ring = LaurentRing(QQ, "q")
    q = ring.generator("q")
    one = ring.one()
    return Presentation(
        ring,
        ("D1", "D2"),
        c={(0, 1): q},
        a={(0, 1, 0): one, (0, 1, 1): -one},
    )


_FIXED = {
    "u_sl2": u_sl2,
    "u_heisenberg": u_heisenberg,
    "u_so3": u_so3,
    "quantum_plane": quantum_plane,
    "quantum_matrices2": quantum_matrices2,
    "diffusion2": diffusion2,
}


def names() -> list[str]:
    """Catalog names; weyl takes the index parameter."""
    return ["weyl"] + sorted(_FIXED)


def get(name: str, param: int | str | None = None) -> Presentation:
    """Fetch a catalog presentation.  ``weyl`` needs its index, either as the
    param argument or fused into the name (weyl1, weyl2, ...).  A fused
    index is read like a positional alias, by read_index, and so is an index
    given as text, as the command line gives it."""
    if name in _FIXED:
        if param is not None:
            raise ValueError(f"{name} takes no parameter")
        return _FIXED[name]()
    if name == "weyl" and isinstance(param, str):
        name, param = name + param, None
    if name == "weyl":
        if param is None:
            raise ValueError("weyl needs an index parameter, e.g. weyl1")
        return weyl(param)
    m = re.fullmatch("weyl([0-9]+)", name)
    if m:
        if param is not None:
            raise ValueError("index given twice")
        n = read_index(m.group(1))
        if n is None:
            raise PresentationError(
                f"a weyl index of more than {len(str(MAX_VARS))} significant digits "
                f"exceeds the cap of {MAX_VARS} variables"
            )
        return weyl(n)
    raise KeyError(f"unknown catalog entry {name!r}")


def all_presentations() -> list[tuple[str, Presentation]]:
    """Fresh instances of every concrete catalog entry (weyl at 1 and 2)."""
    out = [("weyl1", weyl(1)), ("weyl2", weyl(2))]
    out.extend((name, _FIXED[name]()) for name in sorted(_FIXED))
    return out
