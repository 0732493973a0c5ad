"""Word straightening and normalization onto the standard-monomial module.

The straightening map sends any word to an integer combination of standard
words by recursing on the rightmost out-of-order adjacent pair, found as its
position s by words.rightmost_violation; the letter at s + 1 names the move:

  * standard word (no position): itself;
  * a scalar r after x_i: the twist-and-derive move, two child words;
  * a variable x_i after x_j, i < j: the commutation move, n + 2 child words
    (the reordered word with its unit coefficient, one word per linear term,
    one word for the constant term).

Every child word has strictly smaller complexity, so the recursion
terminates; it is evaluated iteratively with an explicit stack and a
per-presentation memo table, which keeps deep reductions cheap and immune to
interpreter recursion limits.  The memo is observably pure: entries are
fully-reduced values of the map, never partial state.  A move's children
depend only on the out-of-order pair, so each move is a lookup in a second
per-presentation table of rewrite rules, built on first use of the pair.

A word's leading run of scalar letters is never rewritten, because every
violation starts with a variable.  So straightening is a left-module map:
reduce_p(p·w) = p·reduce_p(w) and h(r·w) = r·h(w) (docs/exactness.md).
Both memo tables are keyed on words with no leading scalar, and a word's
value is the sum over its children of (child's leading scalars) applied to
the value of the rest of the child; the same word behind different leading
scalars is straightened once.  One call of reduce_p or normalize_h that
has stored MAX_NEW_PAIRS (key, coefficient) pairs and still needs a word
stops with StraighteningCapError, keeping the entries it completed.

The prefix collapse multiplies out the scalar prefix of each standard word
in the coefficient ring; composed with straightening it gives the
normalization map onto the free module of standard monomials, whose product
is normalize(section(f) . section(g)).  That word-level product is the
trusted oracle for the fast exponent-level product in algebra.star.
Rational scalars are central and the normalization is linear in each
scalar letter, so star_oracle straightens the section words of the
integral multiples D*f and E*g and scales the result by 1/(D*E) once, with
its own D, E and Poly.scale, not with star's clearing helpers.  The
straightening maps themselves clear nothing (docs/exactness.md).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import Poly
from .rings import combine_terms
from .words import FreeElem, Scalar, Var, Word, complexity, is_standard
from .words import rightmost_violation, word_str

# word-length caps, one per route: the literal route reduce_p, and the
# coalescing route normalize_h, which star_oracle's section words reach as
# the degrees grow.  MAX_NEW_PAIRS bounds the pairs a call stores, but not
# the rewrite steps taken before a store, and those grow with the length.
LITERAL_MAX_WORD_LEN = 16
ORACLE_MAX_WORD_LEN = 64
# (key, coefficient) pairs that one call of reduce_p or normalize_h may store
# in its memo; an entry whose value is zero counts as one pair
MAX_NEW_PAIRS = 500_000


class WordLengthError(ValueError):
    """Input word longer than the straightening cap."""


class StraighteningCapError(ValueError):
    """A straightening call needs to store more than MAX_NEW_PAIRS memo pairs."""


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

    The move replaces the out-of-order pair w[s:s+2] by segments that
    depend on the pair alone, so it is a lookup in the presentation's rule
    table P._rules, keyed on the pair and filled on its first use by _rule;
    the children are head + segment + tail, in the rule's order.  Letters
    are shared (words.py), so the key hashes in C.  Like the memo tables
    the rule table is observably pure; it holds at most n^2 entries plus n
    per distinct scalar letter that the presentation has straightened.

    A child whose inserted coefficient letter is zero is dropped: every word
    containing a zero letter collapses to zero under the scalar-prefix map,
    so such children contribute nothing to any downstream normalization.
    Over a parameter system whose inserted values are all nonzero this is
    the recursion with nothing pruned; over sparse ones it drops the
    zero-weight branches that otherwise dominate the free-ring blow-up.
    """
    s = rightmost_violation(w)
    if s is None:
        return None
    rules = P._rules
    key = w[s : s + 2]
    segments = rules.get(key)
    if segments is None:
        segments = rules[key] = _rule(w[s], w[s + 1], P)
    head, tail = w[:s], w[s + 2 :]
    return [head + seg + tail for seg in segments]


def _rule(left, right, P) -> tuple[Word, ...]:
    """The segments that replace the out-of-order pair (left, right):
    (x_i, r) becomes sigma_i(r) x_i and delta_i(r); (x_j, x_i) with i < j
    becomes c_ij x_i x_j, a_ijk x_k for each linear term, and d_ij; a
    segment whose coefficient is zero is dropped."""
    out = []
    if isinstance(right, Scalar):
        i = left.index
        r = right.value
        sr = P.sigma[i].apply(r)
        if sr:
            out.append((Scalar(sr), Var(i)))
        dr = P.delta[i].apply(r)
        if dr:
            out.append((Scalar(dr),))
        return tuple(out)
    j = left.index
    i = right.index
    cij = P.c_of(i, j)
    if cij:
        out.append((Scalar(cij), Var(i), Var(j)))
    for k, a in P.linear_terms(i, j):
        out.append((Scalar(a), Var(k)))
    dij = P.d_of(i, j)
    if dij:
        out.append((Scalar(dij),))
    return tuple(out)


def _split(w: Word) -> tuple[Word, Word]:
    """A word as (its leading run of scalar letters, the rest)."""
    k = 0
    for letter in w:
        if isinstance(letter, Var):
            break
        k += 1
    return w[:k], w[k:]


def _straighten(roots, cache: dict, expand, leaf, combine) -> None:
    """Memoized straightening of words with no leading scalar, with an
    explicit stack; afterwards ``cache`` holds the value of every root.

    ``expand(word)`` gives the children of one rewrite move, each split as
    (prefix, rest) with rest free of leading scalars, or None for a standard
    word, whose value is ``leaf(word)``.  Any other word's value is the sum
    over its children of prefix · value(rest), which
    ``combine([(prefix, value(rest)), ...])`` returns: _combine_words for
    integer multiplicities of words, rings.combine_terms for raw ring
    values.  Values are tuples of (key, coeff) pairs, and ``cache`` holds
    only fully reduced values.  Each word is expanded once: its children
    stay on the stack beside it until their values are in.  The call stops
    with StraighteningCapError when it has stored MAX_NEW_PAIRS pairs and a
    word is still missing.
    """
    limit = MAX_NEW_PAIRS
    stored = 0
    for root in roots:
        stack = [(root, None)]
        while stack:
            cur, children = stack[-1]
            if children is None:
                if cur in cache:
                    stack.pop()
                    continue
                if stored >= limit:
                    raise StraighteningCapError(
                        f"straightening needs more than {limit} new memo pairs; "
                        "the input is too large for the word-level oracle"
                    )
                children = expand(cur)
                if children is None:
                    value = leaf(cur)
                    cache[cur] = value
                    stored += len(value) or 1
                    stack.pop()
                    continue
                missing = [(rest, None) for _, rest in children if rest not in cache]
                if missing:
                    # every word above cur descends from it, so all of them
                    # are reduced before cur is on top again
                    stack[-1] = (cur, children)
                    stack.extend(missing)
                    continue
            value = combine([(prefix, cache[rest]) for prefix, rest in children])
            cache[cur] = value
            stored += len(value) or 1
            stack.pop()


def _combine_words(parts) -> tuple:
    """Sum of prefix · value, concatenation on the left, over values that
    map standard words to integers."""
    acc: dict = {}
    for prefix, value in parts:
        for sw, m in value:
            w = prefix + sw
            if s := acc.get(w, 0) + m:
                acc[w] = s
            else:
                acc.pop(w, None)
    return tuple(acc.items())


def reduce_p(w: Word, P, *, check_descent: bool = False) -> FreeElem:
    """Straighten one word into an integer combination of standard words.

    ``check_descent`` re-verifies the termination measure on every expansion
    (each child strictly smaller in the lexicographic complexity order); with
    the shared memo, each distinct word is checked once.  Leading scalars
    add nothing to the complexity, so the check on a word without them is
    the check on every word that differs from it only there.
    """
    w = tuple(w)
    if len(w) > LITERAL_MAX_WORD_LEN:
        raise WordLengthError(f"word of length {len(w)} exceeds cap {LITERAL_MAX_WORD_LEN}")
    _check_letters(w, P)

    def expand(cur):
        children = rewrite_step(cur, P)
        if children is None:
            return None
        if check_descent:
            cc = complexity(cur)
            for child in children:
                if not complexity(child) < cc:
                    raise AssertionError(
                        f"complexity did not drop: {word_str(cur)} -> {word_str(child)}"
                    )
        return [_split(child) for child in children]

    prefix, rest = _split(w)
    cache = P._reduce_cache
    _straighten((rest,), cache, expand, lambda cur: ((cur, 1),), _combine_words)
    return FreeElem(dict(_combine_words(((prefix, cache[rest]),))))


def reduce_elem(e: FreeElem, P) -> FreeElem:
    """Linear extension of the straightening map, summed in one pass."""
    acc: dict = {}
    for w, m in e:
        for sw, k in reduce_p(w, P):
            if s := acc.get(sw, 0) + m * k:
                acc[sw] = s
            else:
                acc.pop(sw, None)
    return FreeElem(acc)


def collapse_q(e: FreeElem, P) -> Poly:
    """Multiply out scalar prefixes; defined on combinations of standard
    words only."""
    ring = P.ring
    terms = []
    for w, m in e:
        if not is_standard(w):
            raise ValueError(f"word not standard: {word_str(w)}")
        _check_letters(w, P)
        coeff = ring._from_fraction(m)
        counts = [0] * P.n
        for letter in w:
            if isinstance(letter, Scalar):
                coeff = ring._mul(coeff, letter.value.value)
            else:
                counts[letter.index] += 1
        terms.append((tuple(counts), coeff))
    return Poly._trusted(P, dict(combine_terms(ring, ((None, terms),))))


def section_t(f: Poly) -> FreeElem:
    """Send each term r x^alpha to the word (r, variables in order); the
    coefficient letter is kept even when it is 1."""
    out: dict[Word, int] = {}
    for alpha, r in f.terms.items():
        letters: list = [Scalar(r)]
        for i, e in enumerate(alpha):
            letters.extend([Var(i)] * e)
        out[tuple(letters)] = 1  # distinct monomials give distinct words
    return FreeElem(out)


def _coalesce(w: Word, ring) -> tuple | None:
    """Merge adjacent scalar letters into their product and split off the
    leading one: (raw value of the leading scalar or None, the rest).
    None when a zero letter makes the whole word normalize to zero."""
    mul, is_zero = ring._mul, ring._is_zero
    out: list = []
    for letter in w:
        if isinstance(letter, Scalar):
            raw = letter.value.value
            if is_zero(raw):
                return None
            if out and isinstance(out[-1], Scalar):
                # a product of nonzero scalars is nonzero: every
                # coefficient ring here is an integral domain
                raw = mul(out[-1].value.value, raw)
                out[-1] = Scalar(ring.elem(raw))
            else:
                out.append(letter)
        else:
            out.append(letter)
    if out and isinstance(out[0], Scalar):
        return out[0].value.value, tuple(out[1:])
    return None, tuple(out)


def _h_reduce(roots, P) -> dict:
    """Normalization of coalesced words with no leading scalar, memoized per
    presentation; returns the memo, which then holds every root's value.

    Identical rewrite moves to reduce_p, but words are kept coalesced, which
    is exact for the normalized value: merging two adjacent coefficient
    letters only uses the endomorphism and twisted-Leibniz laws, which hold
    for the presentation's structure maps by construction.  Working modulo
    coalescing collapses the free-ring blow-up that makes the literal
    straightening expensive on dense parameter systems.  A coalesced child
    has at most one leading scalar r, and h(r·rest) = r·h(rest).  Values
    are tuples of (monomial, raw coefficient) pairs, and a word's children
    are summed by rings.combine_terms (r None for no leading scalar).
    """
    ring = P.ring
    one = ring._one()

    def expand(cur):
        children = rewrite_step(cur, P)
        if children is None:
            return None
        coalesced = (_coalesce(child, ring) for child in children)
        return [split for split in coalesced if split is not None]

    def leaf(cur):
        # a standard word with no leading scalar: variables in order
        counts = [0] * P.n
        for letter in cur:
            counts[letter.index] += 1
        return ((tuple(counts), one),)

    cache = P._h_cache
    _straighten(roots, cache, expand, leaf, lambda parts: combine_terms(ring, parts))
    return cache


def normalize_h(e: FreeElem, P) -> Poly:
    """Straighten then collapse: the normalization onto standard monomials.

    Evaluated along the coalescing fast path of _h_reduce; equal to
    collapse_q(reduce_elem(e)), which the test suite asserts on random
    inputs over every catalog presentation.  One call that has stored
    MAX_NEW_PAIRS memo pairs and still needs a word raises
    StraighteningCapError.
    """
    ring = P.ring
    scaled = []  # (raw multiplier, word with no leading scalar)
    for w, m in e:
        if len(w) > ORACLE_MAX_WORD_LEN:
            raise WordLengthError(f"word of length {len(w)} exceeds cap {ORACLE_MAX_WORD_LEN}")
        _check_letters(w, P)
        split = _coalesce(tuple(w), ring)
        if split is not None:
            r, rest = split
            k = ring._from_fraction(m)
            scaled.append((k if r is None else ring._mul(r, k), rest))
    cache = _h_reduce([rest for _, rest in scaled], P)
    return Poly._trusted(P, dict(combine_terms(ring, [(k, cache[rest]) for k, rest in scaled])))


def h_word(w: Word, P) -> Poly:
    return normalize_h(FreeElem.from_word(tuple(w)), P)


def _denominator(f: Poly) -> int:
    """The lcm of the denominators of f's coefficients, through every layer."""
    return math.lcm(*map(f.pres.ring._denominator, f._terms.values()))


def star_oracle(f: Poly, g: Poly) -> Poly:
    """Word-level product: normalize(section(f) . section(g)), computed on
    the integral multiples D*f and E*g and scaled by 1/(D*E) through
    Poly.scale.  Independent of the exponent-level engine in algebra.star
    and of its clearing path; used to cross-check it.
    """
    f._same(g)
    d, e = _denominator(f), _denominator(g)
    if d != 1:
        f = f.scale(d)
    if e != 1:
        g = g.scale(e)
    out = normalize_h(section_t(f).concat(section_t(g)), f.pres)
    return out if d * e == 1 else out.scale(Fraction(1, d * e))
