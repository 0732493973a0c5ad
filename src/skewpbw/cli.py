"""Command-line entry points.

Exit codes: 0 success, 1 usage or parse error, 2 failed consistency or
homomorphism check, 3 product/oracle mismatch under mul --verify.
Diagnostics go to stderr; machine-readable output goes to stdout.  Only
mul --verify loads the oracle (reduction), and only hom loads universal.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog
from .algebra import EXPONENT_CAP, ExponentCapError, star
from .expr import MAX_NESTING, MAX_POWER_BITS, eval_str
from .jsonio import load_homspec, load_presentation, presentation_to_json
from .presentation import MAX_VARS, check_all
from .rings import MAX_PRINT_DIGITS, NotAUnitError

GRAMMAR_NOTES = f"""expressions:
  sum      := item (('+' | '-') item)*
  item     := '-' item | product
  product  := power ('*' power)*
  power    := atom ['^' ['-'] INT]
  atom     := INT ['/' INT] | IDENT | '(' sum ')'
'^' binds tighter than '*', '*' tighter than '+'; unary minus sits between.
Multiplication is noncommutative; juxtaposition is not multiplication.
Negative exponents evaluate only on invertible constants (e.g. q^-2).
An integer literal, in an expression or a JSON file, has at most {MAX_PRINT_DIGITS}
digits.  Parentheses nest at most {MAX_NESTING} deep; an exponent on a
non-constant base must be below {EXPONENT_CAP}.  A power of a constant may hold
at most {MAX_POWER_BITS} predicted bits (terms times coefficient bits), and take as
many predicted steps in its last squaring (term pairs times one plus the
generators); so ±q^e over Q, and one term over F_p, take any exponent.
Identifiers: variable names, positional aliases x1..xn, coefficient
generators.  A positional alias ignores leading zeros, and x followed by
more than {len(str(MAX_VARS))} significant digits names no slot.
Presentations are file paths or catalog:NAME tokens."""


class UsageError(Exception):
    pass


_KNOWN_FLAGS = {
    "-h",
    "--help",
    "--samples",
    "--seed",
    "--json",
    "--verify",
    "--check-only",
    "--params",
}


# commands whose options take no value, so every argument that is not an
# option fills a positional slot: the presentation or homspec, then the
# expressions
_EXPRESSION_COMMANDS = {"nf", "mul", "hom"}


class _Escaped(str):
    """An argument that starts with '-' (e.g. "-x1^3"), behind a space that
    keeps it out of option parsing; _unescape takes the space off again."""


def _escape_expressions(argv):
    """Escape every argument that starts with '-' and is no known flag.  In
    an expression slot of nf, mul and hom, "-h" is an expression too."""
    out = []
    slots = 0  # the command, then the positional slots filled so far
    for tok in argv:
        flag = tok == "--" or tok.split("=", 1)[0] in _KNOWN_FLAGS
        if tok == "-h" and slots >= 2 and argv[0] in _EXPRESSION_COMMANDS:
            flag = False
        if tok.startswith("-") and not flag:
            tok = _Escaped(" " + tok)
        if not tok.startswith("-"):
            slots += 1
        out.append(tok)
    return out


def _unescape(args):
    """Give every parsed argument the text it was given."""
    for name, value in vars(args).items():
        if isinstance(value, _Escaped):
            setattr(args, name, value[1:])
    return args


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="skewpbw",
        description="Exact engine for skew PBW extensions.",
        epilog=GRAMMAR_NOTES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("check", help="run the existence checks on a presentation")
    p.add_argument("presentation")
    p.add_argument("--samples", type=int, default=16, help="ignored: the checks are exact")
    p.add_argument("--seed", type=int, default=0, help="ignored: the checks are exact")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("nf", help="canonical normal form of an expression")
    p.add_argument("presentation")
    p.add_argument("expr")
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("mul", help="product of two expressions")
    p.add_argument("presentation")
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.add_argument(
        "--verify",
        action="store_true",
        help="also run the word-level oracle; exit 3 on mismatch",
    )
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("hom", help="apply or check a homomorphism seed")
    p.add_argument("homspec")
    p.add_argument("expr", nargs="?")
    p.add_argument("--check-only", action="store_true")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("catalog", help="list built-in presentations or show one")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?")
    p.add_argument("--params")
    p.set_defaults(func=cmd_catalog)

    return top


def cmd_check(args) -> int:
    P = load_presentation(args.presentation)
    report = check_all(P)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    return 0 if report.overall else 2


def cmd_nf(args) -> int:
    P = load_presentation(args.presentation)
    print(eval_str(args.expr, P))
    return 0


def cmd_mul(args) -> int:
    P = load_presentation(args.presentation)
    f = eval_str(args.expr1, P)
    g = eval_str(args.expr2, P)
    prod = star(f, g)
    if args.verify:
        from .reduction import star_oracle
        oracle = star_oracle(f, g)
        if prod != oracle:
            print("product/oracle mismatch:", file=sys.stderr)
            print(f"  fast path: {prod}", file=sys.stderr)
            print(f"  oracle:    {oracle}", file=sys.stderr)
            return 3
    print(prod)
    return 0


def cmd_hom(args) -> int:
    from .universal import check_hom_conditions, extend_hom

    spec = load_homspec(args.homspec)
    report = check_hom_conditions(spec)
    if args.check_only:
        print(report.summary())
        return 0 if report.ok else 2
    if not report.ok:
        for line in report.failures():
            print(line, file=sys.stderr)
        return 2
    if args.expr is None:
        raise UsageError("hom needs an expression unless --check-only is given")
    f = eval_str(args.expr, spec.source)
    print(extend_hom(spec, f))
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        for name in catalog.names():
            print(name)
        return 0
    if args.name is None:
        raise UsageError("catalog show needs a name")
    P = catalog.get(args.name, args.params)
    print(json.dumps(presentation_to_json(P), indent=2))
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _unescape(build_parser().parse_args(_escape_expressions(list(argv))))
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (ExponentCapError, NotAUnitError, KeyError, ValueError, OSError) as e:
        msg = e.args[0] if isinstance(e, KeyError) and e.args else e
        print(f"error: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
