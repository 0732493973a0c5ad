"""Mutation gate: every listed mutant of ``src/`` must make its tests fail.

Run from anywhere, with pytest installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only the named ones

Each entry of MUTANTS is (name, file under src/skewpbw, exact snippet,
replacement, test files).  For each one the script copies ``src/`` to a
temporary directory, replaces the snippet there, checks that the copy is
what ``import skewpbw`` loads, and runs ``pytest -x -q`` on the entry's
test files against the copy.  The mutant is killed when pytest reports a
failing test, or when the run passes TIMEOUT seconds (a mutant can make a
loop endless).  Every snippet, the equivalent ones included, must occur
exactly once in ``src/``: a refactor that removes or duplicates one has to
update this list instead of letting its mutant pass in silence.

EQUIVALENT lists mutants that no test can kill, each with the reason it
changes no observable behaviour; they are checked for their snippet and
not run.  The script exits 1 if a snippet is missing or repeated, a mutant
survives, or a pytest run ends in an error other than a failing test.

The file is stdlib only, and pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300  # seconds per mutant

RINGS, ALGEBRA, EXPR = "rings.py", "algebra.py", "expr.py"
PRESENTATION, REDUCTION = "presentation.py", "reduction.py"
UNIVERSAL, CATALOG = "universal.py", "catalog.py"

MUTANTS = [
    # -- one square-and-multiply ------------------------------------------
    (
        "square_multiply reads the wrong bit",
        RINGS,
        "        if e & 1:\n            out = v if out is None else mul(out, v)",
        "        if e & 2:\n            out = v if out is None else mul(out, v)",
        ["tests/test_rings.py"],
    ),
    (
        "square_multiply multiplies by one",
        RINGS,
        "    return one() if out is None else out",
        "    return one() if out is None else mul(one(), out)",
        ["tests/test_rings.py"],
    ),
    (
        "a negative power skips the inverse",
        RINGS,
        "        v, e = ring._inverse(v), -e",
        "        e = -e",
        ["tests/test_rings.py"],
    ),
    # -- map identity, decided once ---------------------------------------
    (
        "every map into its own ring is the identity",
        RINGS,
        "identity = target == ring and all(img == ring.generator(g) for g, img in self.images)",
        "identity = target == ring",
        ["tests/test_rings.py"],
    ),
    (
        "a coefficient sub-map drops the base images",
        RINGS,
        "            images = dict(self.images[: len(ring.base.generator_names())])",
        "            images = {}",
        ["tests/test_rings.py"],
    ),
    # -- the field and term-ring basics -----------------------------------
    (
        "zero is a unit of a field",
        RINGS,
        "    def _is_unit(self, a):\n        return a != 0\n",
        "    def _is_unit(self, a):\n        return True\n",
        ["tests/test_rings.py"],
    ),
    (
        "a term ring stores a zero constant",
        RINGS,
        "        return () if self.base._is_zero(v) else ((self._const_key(), v),)",
        "        return ((self._const_key(), v),)",
        ["tests/test_rings.py"],
    ),
    (
        "every term-ring value is constant",
        RINGS,
        "        return all(key == zero and self.base._is_constant(c) for key, c in a)",
        "        return all(self.base._is_constant(c) for key, c in a)",
        ["tests/test_rings.py", "tests/test_expr.py", "tests/test_cli.py"],
    ),
    (
        "a Laurent unit inverts to the same power",
        RINGS,
        "        return ((-key if type(key) is int else key, self.base._inverse(c)),)",
        "        return ((key, self.base._inverse(c)),)",
        ["tests/test_rings.py"],
    ),
    # -- the existence checker's right-hand side --------------------------
    (
        "the right-hand side puts the last letter first",
        PRESENTATION,
        "FreeElem({w + (last,): 1 for w in rewrite_step(head, P)})",
        "FreeElem({(last,) + w: 1 for w in rewrite_step(head, P)})",
        ["tests/test_presentation.py"],
    ),
    # -- the constant-power bound -----------------------------------------
    (
        "the last squaring counts its terms once, not squared",
        EXPR,
        "    if (steps := count(k // 2) ** 2 * (len(spans) + 1)) > MAX_POWER_BITS:",
        "    if (steps := count(k // 2) * (len(spans) + 1)) > MAX_POWER_BITS:",
        ["tests/test_cli.py"],
    ),
    (
        "the term count ignores the multinomial bound",
        EXPR,
        "        return min(box, math.comb(m + len(terms) - 1, min(m, len(terms) - 1)), 1 << 64)",
        "        return min(box, 1 << 64)",
        ["tests/test_cli.py"],
    ),
    (
        "an exponent past the cap is sized like any other",
        EXPR,
        "    if k > MAX_POWER_BITS:\n        return f\"exponent",
        "    if False:\n        return f\"exponent",
        ["tests/test_cli.py"],
    ),
    # -- homomorphism conditions as multiplicativity of extend_hom ---------
    (
        "the condition helper multiplies the images in the order (g, f)",
        UNIVERSAL,
        "        lhs = star(extend_hom(spec, f), extend_hom(spec, g))",
        "        lhs = star(extend_hom(spec, g), extend_hom(spec, f))",
        ["tests/test_universal.py"],
    ),
    (
        "the condition helper maps the product g f",
        UNIVERSAL,
        "        rhs = extend_hom(spec, star(f, g))",
        "        rhs = extend_hom(spec, star(g, f))",
        ["tests/test_universal.py"],
    ),
    (
        "condition (ii) multiplies each pair in standard order",
        UNIVERSAL,
        'item(f"(ii) pair ({i + 1},{j + 1})", x[j], x[i])',
        'item(f"(ii) pair ({i + 1},{j + 1})", x[i], x[j])',
        ["tests/test_universal.py"],
    ),
    (
        "y_power drops its last factor",
        UNIVERSAL,
        "        out = reduce(star, factors) if factors else one",
        "        out = reduce(star, factors[:-1]) if factors[:-1] else one",
        ["tests/test_universal.py"],
    ),
    (
        "y_power multiplies by images equal to 1",
        UNIVERSAL,
        "if e and y != one]",
        "if e]",
        ["tests/test_universal.py"],
    ),
    (
        "extend_hom skips phi",
        UNIVERSAL,
        "parts = [(phi(elem(r)).value, spec.y_power(a)._terms.items())",
        "parts = [(r, spec.y_power(a)._terms.items())",
        ["tests/test_universal.py"],
    ),
    # -- a Poly holds raw ring values -------------------------------------
    (
        "Poly negation keeps the values",
        ALGEBRA,
        "{a: neg(v) for a, v in self._terms.items()}",
        "{a: v for a, v in self._terms.items()}",
        ["tests/test_algebra.py"],
    ),
    (
        "Poly addition drops the second operand's terms",
        ALGEBRA,
        "parts = ((None, self._terms.items()), (None, other._terms.items()))",
        "parts = ((None, self._terms.items()),)",
        ["tests/test_algebra.py"],
    ),
    (
        "Poly.scale ignores the scalar",
        ALGEBRA,
        "combine_terms(ring, ((r.value, self._terms.items()),))",
        "combine_terms(ring, ((None, self._terms.items()),))",
        ["tests/test_algebra.py"],
    ),
    (
        "collapse_q ignores the multiplicity",
        REDUCTION,
        "        coeff = ring._from_fraction(m)",
        "        coeff = ring._one()",
        ["tests/test_reduction.py"],
    ),
    (
        "the literal route keeps the last multiplicity of a repeated word",
        REDUCTION,
        "            if s := acc.get(w, 0) + m:",
        "            if s := m:",
        ["tests/test_reduction.py"],
    ),
    # -- diagnostics show the text as given --------------------------------
    (
        "an escaped argument keeps its space",
        "cli.py",
        "            setattr(args, name, value[1:])",
        "            setattr(args, name, value)",
        ["tests/test_cli.py"],
    ),
    (
        "the end of input is named as an empty token",
        EXPR,
        "got {tok.text or 'end of input'!r}",
        "got {tok.text!r}",
        ["tests/test_cli.py"],
    ),
    # -- integer literals -------------------------------------------------
    (
        "the tokenizer takes integer literals of any length",
        EXPR,
        "            if len(text) > MAX_PRINT_DIGITS:",
        "            if False:",
        ["tests/test_cli.py"],
    ),
    (
        "the JSON reader takes integers of any length",
        "jsonio.py",
        '    if len(text.lstrip("-")) > MAX_PRINT_DIGITS:',
        "    if False:",
        ["tests/test_cli.py"],
    ),
    # -- one accumulator for sums of scaled terms --------------------------
    (
        "combine_terms keeps zero sums",
        RINGS,
        "        if not is_zero(c):\n            out.append((key, c))",
        "        if True:\n            out.append((key, c))",
        ["tests/test_algebra.py"],
    ),
    (
        "combine_terms ignores the scale",
        RINGS,
        "            if r is not None:\n                c = mul(r, c)",
        "            if False:\n                c = mul(r, c)",
        ["tests/test_algebra.py"],
    ),
    (
        "combine_terms drops the third and later values of a key",
        RINGS,
        "        c = cs[0] if len(cs) == 1 else total(cs)",
        "        c = cs[0] if len(cs) == 1 else total(cs[:2])",
        ["tests/test_algebra.py"],
    ),
    (
        "combine_terms keeps only the last value of a repeated key",
        RINGS,
        "        c = cs[0] if len(cs) == 1 else total(cs)",
        "        c = cs[-1]",
        ["tests/test_algebra.py"],
    ),
    # -- hostile input: positional slots and JSON booleans ----------------
    (
        "a positional slot counts its leading zeros as digits",
        PRESENTATION,
        '    digits = digits.lstrip("0")',
        "    digits = digits",
        ["tests/test_cli.py"],
    ),
    (
        "a relation index may be a JSON boolean",
        "jsonio.py",
        '        if not (type(rel["i"]) is int and type(rel["j"]) is int):',
        '        if not (isinstance(rel["i"], int) and isinstance(rel["j"], int)):',
        ["tests/test_cli.py"],
    ),
    # -- the word-level oracle ---------------------------------------------
    (
        "rewrite_step takes a vars pair for a scalar move",
        REDUCTION,
        "    if isinstance(right, Scalar):",
        "    if isinstance(left, Scalar):",
        ["tests/test_words.py", "tests/test_reduction.py"],
    ),
    (
        "rightmost_violation returns the leftmost pair",
        "words.py",
        "    for s in range(len(w) - 2, -1, -1):",
        "    for s in range(len(w) - 1):",
        ["tests/test_words.py"],
    ),
    (
        "collapse_q takes nonstandard words",
        REDUCTION,
        "        if not is_standard(w):\n            raise ValueError",
        "        if False:\n            raise ValueError",
        ["tests/test_reduction.py"],
    ),
    # -- bounded work before the variable cap and in constant powers --------
    (
        "weyl leaves the cap to Presentation, after it builds the names",
        CATALOG,
        "    if 2 * n > MAX_VARS:  # before building 2n names",
        "    if False:",
        ["tests/test_catalog.py"],
    ),
    (
        "weyl refuses 2n = MAX_VARS",
        CATALOG,
        "    if 2 * n > MAX_VARS:  # before building 2n names",
        "    if 2 * n >= MAX_VARS:",
        ["tests/test_catalog.py"],
    ),
    (
        "one-term constant powers are exempt from the size bound",
        EXPR,
        "    if terms and (excess := _power_excess(",
        "    if len(terms) > 1 and (excess := _power_excess(",
        ["tests/test_expr.py"],
    ),
    # -- one rule for a weyl index, one word-length cap per route ----------
    (
        "a command-line weyl index is read by int",
        CATALOG,
        "        name, param = name + param, None",
        "        param = int(param)",
        ["tests/test_cli.py"],
    ),
    (
        "normalize_h takes reduce_p's word-length cap",
        REDUCTION,
        "        if len(w) > ORACLE_MAX_WORD_LEN:",
        "        if len(w) > LITERAL_MAX_WORD_LEN:",
        ["tests/test_reduction.py", "tests/test_cli.py"],
    ),
    (
        "is_standard accepts every word",
        "words.py",
        "    return rightmost_violation(w) is None",
        "    return True",
        ["tests/test_words.py"],
    ),
    # -- the oracle on cleared multiples, reduce_elem in one pass, -h -----
    (
        "the oracle forgets its scale-back",
        REDUCTION,
        "    return out if d * e == 1 else out.scale(Fraction(1, d * e))",
        "    return out",
        ["tests/test_reduction.py"],
    ),
    (
        "the oracle scales back by 1/D only",
        REDUCTION,
        "out.scale(Fraction(1, d * e))",
        "out.scale(Fraction(1, d))",
        ["tests/test_reduction.py"],
    ),
    (
        "the oracle never clears",
        REDUCTION,
        "    d, e = _denominator(f), _denominator(g)",
        "    d, e = 1, 1",
        ["tests/test_reduction.py"],
    ),
    (
        "reduce_elem keeps only the last word's multiplicity",
        REDUCTION,
        "            if s := acc.get(sw, 0) + m * k:",
        "            if s := m * k:",
        ["tests/test_reduction.py"],
    ),
    (
        "-h in an expression slot prints help",
        "cli.py",
        '        if tok == "-h" and slots >= 2 and argv[0] in _EXPRESSION_COMMANDS:',
        '        if False:',
        ["tests/test_cli.py"],
    ),
    # -- plain value classes, and modules imported where they are used -----
    (
        "LaurentRing equality ignores var",
        RINGS,
        '    __slots__ = _fields = ("base", "var")',
        '    __slots__ = ("base", "var")\n    _fields = ("base",)',
        ["tests/test_values.py"],
    ),
    (
        "the frozen guard is dropped",
        RINGS,
        '        raise AttributeError(f"cannot assign to or delete field {name!r}")',
        "        object.__setattr__(self, name, value)",
        ["tests/test_values.py"],
    ),
    (
        "__reduce__ drops the last constructor argument",
        RINGS,
        "        return (type(self), self._values())",
        "        return (type(self), self._values()[:-1])",
        ["tests/test_values.py"],
    ),
    (
        "cli imports universal at module top again",
        "cli.py",
        "from .rings import MAX_PRINT_DIGITS, NotAUnitError\n",
        "from .rings import MAX_PRINT_DIGITS, NotAUnitError\n"
        "from .universal import check_hom_conditions, extend_hom\n",
        ["tests/test_cli.py"],
    ),
    (
        "_item_dict drops the last field",
        PRESENTATION,
        "    for f in it._fields:",
        "    for f in it._fields[:-1]:",
        ["tests/test_cli.py"],
    ),
    (
        "HomSpec.__init__ skips __post_init__",
        UNIVERSAL,
        "        self.__post_init__()",
        "        pass",
        ["tests/test_universal.py", "tests/test_values.py"],
    ),
    # -- kept from the hand-made mutants of earlier changes ---------------
    (
        "star skips its final division",
        ALGEBRA,
        "    if de != 1:\n        div = ring._div_int",
        "    if de == 0:\n        div = ring._div_int",
        ["tests/test_algebra.py"],
    ),
    (
        "reduce_p drops the scalar prefix",
        REDUCTION,
        "    return FreeElem(dict(_combine_words(((prefix, cache[rest]),))))",
        "    return FreeElem(dict(_combine_words((((), cache[rest]),))))",
        ["tests/test_reduction.py"],
    ),
    (
        "the last-variable power shifts by m - 1",
        ALGEBRA,
        "(_shift(alpha, last, gamma[last]), v)",
        "(_shift(alpha, last, gamma[last] - 1), v)",
        ["tests/test_algebra.py"],
    ),
    # -- the variable push: descent and climb ------------------------------
    (
        "the climb reads c of the wrong orientation",
        ALGEBRA,
        "P.c_of(j, i).value",
        "P.c_of(i, j).value",
        ["tests/test_algebra.py"],
    ),
    (
        "the descent lowers the last nonzero slot",
        ALGEBRA,
        "        while j < i and not cur[j]:  # the descent only lowers, so j only moves right\n"
        "            j += 1",
        "        j = max((k for k in range(i) if cur[k]), default=i)",
        ["tests/test_algebra.py"],
    ),
    (
        "the climb drops the d part",
        ALGEBRA,
        "                parts.append((dji.value, ((gp, ring._one()),)))",
        "                pass",
        ["tests/test_algebra.py"],
    ),
    (
        "the climb drops the linear terms",
        ALGEBRA,
        "            parts += [(a.value, _var_times_monomial(P, k, gp)) for k, a in lin]",
        "            parts += []",
        ["tests/test_algebra.py"],
    ),
    (
        "the triangular product leaves out the d(a)*b term",
        RINGS,
        "self.base._add(mul(x[0], y[1]), mul(x[1], y[2]))",
        "mul(x[0], y[1])",
        ["tests/test_rings.py"],
    ),
    (
        "presentation equality ignores the linear terms",
        PRESENTATION,
        "self.sigma, self.delta, self._c, self._d, self._lin)",
        "self.sigma, self.delta, self._c, self._d)",
        ["tests/test_presentation.py", "tests/test_catalog.py"],
    ),
    (
        "below reads the low bits",
        "rng.py",
        "        return (self.next_u64() * n) >> 64",
        "        return self.next_u64() % n",
        ["tests/test_rng.py"],
    ),
    (
        "the coefficient layer of a map is never lifted",
        RINGS,
        "            if isinstance(target, PolyRing) and all(",
        "            if False and all(",
        ["tests/test_rings.py"],
    ),
    (
        "straightening keeps zero-weight derivation children",
        REDUCTION,
        "        dr = P.delta[i].apply(r)\n        if dr:",
        "        dr = P.delta[i].apply(r)\n        if True:",
        ["tests/test_words.py", "tests/test_reduction.py"],
    ),
    # -- shared letters and the rule table --------------------------------
    (
        "the scalar table ignores the ring",
        "words.py",
        "        letter = _SCALARS.get(value)\n        if letter is None:\n"
        "            letter = object.__new__(cls)\n"
        "            object.__setattr__(letter, \"value\", value)\n"
        "            _SCALARS[value] = letter",
        "        letter = _SCALARS.get(value.value)\n        if letter is None:\n"
        "            letter = object.__new__(cls)\n"
        "            object.__setattr__(letter, \"value\", value)\n"
        "            _SCALARS[value.value] = letter",
        ["tests/test_words.py"],
    ),
    (
        "the rule table is keyed on the left letter",
        REDUCTION,
        "    key = w[s : s + 2]",
        "    key = w[s]",
        ["tests/test_reduction.py"],
    ),
    (
        "one rule table for every presentation",
        REDUCTION,
        "    rules = P._rules",
        "    rules = rewrite_step.__dict__.setdefault(\"rules\", {})",
        ["tests/test_reduction.py"],
    ),
    (
        "the scalar rule drops the derivation child",
        REDUCTION,
        "            out.append((Scalar(dr),))",
        "            pass",
        ["tests/test_reduction.py"],
    ),
]

EQUIVALENT = [
    # (name, file, snippet, replacement, why no test can kill it)
    (
        "presentation equality ignores the twists",
        PRESENTATION,
        "(self.ring, self.var_names, self.sigma, self.delta,",
        "(self.ring, self.var_names, self.delta,",
        "each derivation carries its twist, so equal derivations have equal twists",
    ),
    (
        "flat_terms lists a zero scalar",
        RINGS,
        "    return [((), v)] if v else []",
        "    return [((), v)]",
        "no caller passes a zero scalar where the number of terms matters",
    ),
]


def _occurrences(snippet: str) -> int:
    return sum(p.read_text().count(snippet) for p in (ROOT / "src").rglob("*.py"))


def _run(mutant) -> str:
    """'killed', 'killed (timeout)', 'survived', or 'error: ...'."""
    name, file, snippet, replacement, tests = mutant
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "skewpbw" / file
        path.write_text(path.read_text().replace(snippet, replacement))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run(
            [sys.executable, "-c", "import skewpbw; print(skewpbw.__file__)"],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        if not where.stdout.startswith(str(src)):
            return f"error: the copy is not imported: {where.stdout}{where.stderr}".strip()
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT
            )
        except subprocess.TimeoutExpired:
            return "killed (timeout)"
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "survived"
    tail = (proc.stdout.strip().splitlines() or [""])[-1]
    return f"error: pytest exited {proc.returncode}: {tail}"


def main(argv: list[str]) -> int:
    ok = True
    for name, file, snippet, *_ in MUTANTS + EQUIVALENT:
        n = _occurrences(snippet)
        if n != 1 or snippet not in (ROOT / "src" / "skewpbw" / file).read_text():
            print(f"snippet of {name!r} occurs {n} times in src/, not once in {file}")
            ok = False
    if not ok:
        return 1
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 1
    start = time.perf_counter()
    for mutant in chosen:
        t = time.perf_counter()
        verdict = _run(mutant)
        print(f"{verdict:<18} {time.perf_counter() - t:6.1f}s  {mutant[0]}", flush=True)
        ok = ok and verdict.startswith("killed")
    for name, *_, why in EQUIVALENT:
        print(f"{'equivalent':<18} {'':>7}  {name}: {why}")
    print(f"{len(chosen)} mutants in {time.perf_counter() - start:.0f}s: "
          + ("all killed" if ok else "NOT ALL KILLED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
