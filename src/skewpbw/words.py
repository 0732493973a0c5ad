"""Words over the alphabet X cup R and the free ring Z<X cup R>.

A word is a tuple of letters; a letter is either a variable slot Var(i)
(0-based index into the presentation's variables) or an opaque coefficient
Scalar(r).  Consecutive scalars are deliberately not merged at the word
level: a word is an element of the free monoid, and collapsing products is
the job of the prefix-collapse map in the reduction engine.

The complexity of a word is the triple

    (number of variable letters,
     number of position pairs s < t holding variables in decreasing index order,
     number of position pairs s < t holding a variable then a scalar)

ordered lexicographically.  Both rewrite moves of the straightening recursion,
made at the position that rightmost_violation returns, strictly decrease
it, which is the termination measure.  Inversions are
counted over all position pairs, not only adjacent ones; any measure the
moves strictly decrease works, and the pair count does.

Words are dictionary keys in the straightening memo tables, and a tuple
re-hashes every letter on each lookup, so each letter hashes once: a
Scalar computes the hash of its coefficient when it is built and keeps it
in a slot, and there is one shared Var object per index, which hashes and
compares by identity, in C.  Both are Values (rings.Value): immutable,
printed by their fields, and copied through their constructors.
"""

from __future__ import annotations

from .rings import QQ, CoeffElem, Value, combine_terms


class Var(Value):
    __slots__ = _fields = ("index",)
    # one shared instance per index: copies and unpickled letters are it
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __new__(cls, index: int):
        var = _VARS.get(index)
        if var is None:
            var = object.__new__(cls)
            object.__setattr__(var, "index", index)
            var = _VARS.setdefault(index, var)
        return var


_VARS: dict[int, Var] = {}


class Scalar(Value):
    __slots__ = ("value", "_hash")
    _fields = ("value",)

    def __init__(self, value: CoeffElem):
        object.__setattr__(self, "value", value)  # not _set: straightening builds many
        object.__setattr__(self, "_hash", hash(value))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):  # every memo hit compares letters: no key call
        if other.__class__ is not Scalar:
            return NotImplemented
        return (self.value,) == (other.value,)


Word = tuple  # tuple[Var | Scalar, ...]


def word_str(w: Word) -> str:
    if not w:
        return "(empty)"
    parts = []
    for letter in w:
        if isinstance(letter, Var):
            parts.append(f"x{letter.index + 1}")
        else:
            parts.append(str(letter.value))
    return "·".join(parts)


def complexity(w: Word) -> tuple[int, int, int]:
    a = 0
    b = 0
    c = 0
    var_positions: list[int] = []  # indices of variables seen so far
    for letter in w:
        if isinstance(letter, Var):
            a += 1
            for earlier in var_positions:
                if earlier > letter.index:
                    b += 1
            var_positions.append(letter.index)
        else:
            c += len(var_positions)
    return (a, b, c)


def rightmost_violation(w: Word) -> int | None:
    """Position s of the rightmost adjacent out-of-order pair (w[s], w[s+1]),
    either (variable, scalar) or (variable j, variable i) with i < j, or None
    iff the word is standard.  Its right context w[s+1:] is standard, since a
    word without a violating adjacency is; the letter w[s+1] names the move."""
    for s in range(len(w) - 2, -1, -1):
        left = w[s]
        if not isinstance(left, Var):
            continue
        right = w[s + 1]
        if isinstance(right, Scalar) or right.index < left.index:
            return s
    return None


def is_standard(w: Word) -> bool:
    """True iff all scalars precede all variables and variable indices are
    nondecreasing, i.e. complexity is (a, 0, 0): no violation is left."""
    return rightmost_violation(w) is None


class FreeElem:
    """An integer-linear combination of words (element of Z<X cup R>)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Word, int] | None = None):
        self.terms = {w: m for w, m in (terms or {}).items() if m}

    @classmethod
    def from_word(cls, w: Word, mult: int = 1) -> "FreeElem":
        return cls({tuple(w): mult})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "FreeElem") -> "FreeElem":
        parts = ((None, self.terms.items()), (None, other.terms.items()))
        return FreeElem(dict(combine_terms(QQ, parts)))

    def scale(self, k: int) -> "FreeElem":
        return FreeElem({w: k * m for w, m in self.terms.items()})

    def concat(self, other: "FreeElem") -> "FreeElem":
        """Bilinear concatenation product of the free ring."""
        pairs = (
            (u + v, mu * mv)
            for u, mu in self.terms.items()
            for v, mv in other.terms.items()
        )
        return FreeElem(dict(combine_terms(QQ, ((None, pairs),))))

    def __eq__(self, other):
        return isinstance(other, FreeElem) and self.terms == other.terms

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms.items())

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w, m in sorted(self.terms.items(), key=lambda t: (len(t[0]), word_str(t[0]))):
            body = word_str(w)
            parts.append(body if m == 1 else f"{m}*({body})")
        return " + ".join(parts)

    def __repr__(self):
        return f"FreeElem({self})"
