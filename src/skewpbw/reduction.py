"""Word straightening and normalization onto the standard-monomial module.

The straightening map sends any word to an integer combination of standard
words by recursing on the rightmost out-of-order adjacent pair:

  * standard word: itself;
  * (x_i, r) pair: the twist-and-derive move, two child words;
  * (x_j, x_i) pair with i < j: the commutation move, n + 2 child words
    (the reordered word with its unit coefficient, one word per linear term,
    one word for the constant term).

Every child word has strictly smaller complexity, so the recursion
terminates; it is evaluated iteratively with an explicit stack and a
per-presentation memo table, which keeps deep reductions cheap and immune to
interpreter recursion limits.  The memo is observably pure: entries are
fully-reduced values of the map, never partial state.

The prefix collapse multiplies out the scalar prefix of each standard word
in the coefficient ring; composed with straightening it gives the
normalization map onto the free module of standard monomials, whose product
is normalize(section(f) . section(g)).  That word-level product is the
trusted oracle for the fast exponent-level product in algebra.star.
"""

from __future__ import annotations

from .algebra import Poly
from .rings import add_terms
from .words import FreeElem, Scalar, Var, Word, complexity, rightmost_violation, word_str

DEFAULT_MAX_WORD_LEN = 16


class WordLengthError(ValueError):
    """Input word longer than the straightening cap."""


def _check_letters(w: Word, P) -> None:
    for letter in w:
        if isinstance(letter, Var):
            if not 0 <= letter.index < P.n:
                raise ValueError(
                    f"variable index {letter.index} out of range for {P.n} variables"
                )
        elif letter.value.ring != P.ring:
            raise ValueError(
                f"scalar letter {letter.value} lies in {letter.value.ring.describe()}, "
                f"not in {P.ring.describe()}"
            )


def rewrite_step(w: Word, P) -> list[Word] | None:
    """One straightening move at the rightmost violation; None if standard.

    A child whose inserted coefficient letter is zero is dropped: every word
    containing a zero letter collapses to zero under the scalar-prefix map,
    so such children contribute nothing to any downstream normalization.
    Over a parameter system whose inserted values are all nonzero this is
    the recursion with nothing pruned; over sparse ones it drops the
    zero-weight branches that otherwise dominate the free-ring blow-up.
    """
    v = rightmost_violation(w)
    if v is None:
        return None
    s = v.pos
    head, tail = w[:s], w[s + 2 :]
    out = []
    if v.kind == "scalar":
        i = w[s].index
        r = w[s + 1].value
        sr = P.sigma[i].apply(r)
        if sr:
            out.append(head + (Scalar(sr), Var(i)) + tail)
        dr = P.delta[i].apply(r)
        if dr:
            out.append(head + (Scalar(dr),) + tail)
        return out
    j = w[s].index
    i = w[s + 1].index
    cij = P.c_of(i, j)
    if cij:
        out.append(head + (Scalar(cij), Var(i), Var(j)) + tail)
    for k, a in P.linear_terms(i, j):
        out.append(head + (Scalar(a), Var(k)) + tail)
    dij = P.d_of(i, j)
    if dij:
        out.append(head + (Scalar(dij),) + tail)
    return out


def _straighten(w: Word, cache: dict, expand, leaf) -> tuple:
    """Memoized straightening of one word with an explicit stack.

    ``expand(word)`` gives the child words of one rewrite move, or None for a
    standard word, whose value is ``leaf(word)``; any other word's value is
    the sum of its children's values.  Values are tuples of (key, coeff)
    pairs, and ``cache`` holds only fully reduced values.
    """
    stack = [w]
    while stack:
        cur = stack[-1]
        if cur in cache:
            stack.pop()
            continue
        children = expand(cur)
        if children is None:
            cache[cur] = leaf(cur)
            stack.pop()
            continue
        missing = [child for child in children if child not in cache]
        if missing:
            stack.extend(missing)
            continue
        acc: dict = {}
        for child in children:
            add_terms(acc, cache[child])
        cache[cur] = tuple(acc.items())
        stack.pop()
    return cache[w]


def reduce_p(w: Word, P, *, check_descent: bool = False) -> FreeElem:
    """Straighten one word into an integer combination of standard words.

    ``check_descent`` re-verifies the termination measure on every expansion
    (each child strictly smaller in the lexicographic complexity order); with
    the shared memo, each distinct word is checked once.
    """
    w = tuple(w)
    if len(w) > DEFAULT_MAX_WORD_LEN:
        raise WordLengthError(f"word of length {len(w)} exceeds cap {DEFAULT_MAX_WORD_LEN}")
    _check_letters(w, P)

    def expand(cur):
        children = rewrite_step(cur, P)
        if check_descent and children is not None:
            cc = complexity(cur)
            for child in children:
                if not complexity(child) < cc:
                    raise AssertionError(
                        f"complexity did not drop: {word_str(cur)} -> {word_str(child)}"
                    )
        return children

    return FreeElem(dict(_straighten(w, P._reduce_cache, expand, lambda cur: ((cur, 1),))))


def reduce_elem(e: FreeElem, P, *, check_descent: bool = False) -> FreeElem:
    """Linear extension of the straightening map."""
    out = FreeElem.zero()
    for w, m in e:
        out = out + reduce_p(w, P, check_descent=check_descent).scale(m)
    return out


def collapse_q(e: FreeElem, P) -> Poly:
    """Multiply out scalar prefixes; defined on combinations of standard
    words only."""
    terms: dict = {}
    ring = P.ring
    for w, m in e:
        coeff = ring.one()
        counts = [0] * P.n
        last = -1
        in_prefix = True
        for letter in w:
            if isinstance(letter, Scalar):
                if not in_prefix:
                    raise ValueError(f"word not standard: {word_str(w)}")
                coeff = coeff * letter.value
            else:
                in_prefix = False
                if letter.index < last:
                    raise ValueError(f"word not standard: {word_str(w)}")
                last = letter.index
                counts[letter.index] += 1
        add_terms(terms, ((tuple(counts), coeff * m),))
    return Poly(P, terms)


def section_t(f: Poly) -> FreeElem:
    """Send each term r x^alpha to the word (r, variables in order); the
    coefficient letter is kept even when it is 1."""
    out: dict[Word, int] = {}
    for alpha, r in f.terms.items():
        letters: list = [Scalar(r)]
        for i, e in enumerate(alpha):
            letters.extend([Var(i)] * e)
        out[tuple(letters)] = out.get(tuple(letters), 0) + 1
    return FreeElem(out)


def _coalesce(w: Word, ring) -> Word | None:
    """Merge adjacent scalar letters into their product; None when a zero
    letter makes the whole word normalize to zero."""
    out: list = []
    for letter in w:
        if isinstance(letter, Scalar):
            if not letter.value:
                return None
            if out and isinstance(out[-1], Scalar):
                v = out[-1].value * letter.value
                if not v:
                    return None
                out[-1] = Scalar(v)
            else:
                out.append(letter)
        else:
            out.append(letter)
    return tuple(out)


def _h_reduce(w: Word, P) -> tuple:
    """Normalization of a single coalesced word, memoized per presentation.

    Identical rewrite moves to reduce_p, but words are kept coalesced, which
    is exact for the normalized value: merging two adjacent coefficient
    letters only uses the endomorphism and twisted-Leibniz laws, which hold
    for the presentation's structure maps by construction.  Working modulo
    coalescing collapses the free-ring blow-up that makes the literal
    straightening expensive on dense parameter systems.
    Returns a tuple of (monomial, coefficient) pairs.
    """

    def expand(cur):
        children = rewrite_step(cur, P)
        if children is None:
            return None
        coalesced = (_coalesce(child, P.ring) for child in children)
        return [cw for cw in coalesced if cw is not None]

    def leaf(cur):
        # coalesced standard word: at most one scalar letter, in front
        coeff = P.ring.one()
        counts = [0] * P.n
        for letter in cur:
            if isinstance(letter, Scalar):
                coeff = coeff * letter.value
            else:
                counts[letter.index] += 1
        return ((tuple(counts), coeff),)

    return _straighten(w, P._h_cache, expand, leaf)


def normalize_h(
    e: FreeElem,
    P,
    *,
    max_len: int = DEFAULT_MAX_WORD_LEN,
) -> Poly:
    """Straighten then collapse: the normalization onto standard monomials.

    Evaluated along the coalescing fast path of _h_reduce; equal to
    collapse_q(reduce_elem(e)), which the test suite asserts on random
    inputs over every catalog presentation.
    """
    terms: dict = {}
    for w, m in e:
        if len(w) > max_len:
            raise WordLengthError(f"word of length {len(w)} exceeds cap {max_len}")
        _check_letters(w, P)
        cw = _coalesce(tuple(w), P.ring)
        if cw is None:
            continue
        add_terms(terms, ((mono, c * m) for mono, c in _h_reduce(cw, P)))
    return Poly(P, terms)


def h_word(w: Word, P) -> Poly:
    return normalize_h(FreeElem.from_word(tuple(w)), P)


def star_oracle(f: Poly, g: Poly, *, max_len: int = 64) -> Poly:
    """Word-level product: normalize(section(f) . section(g)).

    Independent of the exponent-level engine in algebra.star; used to
    cross-check it.  The length cap is looser here since section output
    grows with the degrees involved.
    """
    f._same(g)
    words = section_t(f).concat(section_t(g))
    return normalize_h(words, f.pres, max_len=max_len)
