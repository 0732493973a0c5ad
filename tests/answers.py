"""The answer table: what the command line prints today, committed.

``tests/answers.json`` holds one row per argv: the exit code, stdout and
stderr of ``cli.main`` run in process, in a directory that holds the
table's JSON fixtures (homomorphism seeds), so that no row's output names
a temporary path.  An output of at most VERBATIM characters is stored as
it is; a longer one as its length, sha256, and first and last lines.

    python tests/answers.py            # compare every row, print mismatches
    python tests/answers.py --update   # rewrite the table from this tree

``tests/test_answers.py`` runs the comparison in Tier-1.  A change that
alters an answer rewrites the table and says which rows changed, and why.
Help output is left out: argparse formats it differently across Python
versions.
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

TABLE = Path(__file__).resolve().parent / "answers.json"
VERBATIM = 2000  # characters

# name: (two nf expressions, integral mul operands, fractional mul operands)
CATALOG = {
    "weyl1": (("x2^3*x1^2", "(x1 + x2)^3"), ("x2^2", "x1^3"), ("1/2*x2^3", "2/3*x1^2")),
    "weyl2": (
        ("x3*x1*x4*x2", "(x1 + x3)^2*(x2 - x4)"),
        ("x3^2*x4", "x1*x2^2"),
        ("1/3*x3*x4", "3/4*x1^2 - x2"),
    ),
    "diffusion2": (
        ("x2^2*x1^2", "(q*x1 + x2)^2"),
        ("x2^2", "q*x1^2"),
        ("1/2*q*x2", "(2/3 - q^-1)*x1"),
    ),
    "quantum_matrices2": (
        ("x2^2*x1^2", "(b*x1 + c*x2)^2"),
        ("x2^2", "x1^2"),
        ("1/2*b*x2", "(1/3*q + c)*x1"),
    ),
    "quantum_plane": (
        ("x2^3*x1^2", "(x1 + q*x2)^3"),
        ("q*x2^2", "x1^2"),
        ("3/4*x2^2", "(1/3*q + 2/5)*x1"),
    ),
    "u_heisenberg": (
        ("x2*x1*x3", "(x1 + x2 + x3)^3"),
        ("x3*x2", "x2*x1"),
        ("1/2*x2^2", "2/3*x1 - x3"),
    ),
    "u_sl2": (
        ("x3*x2*x1", "(x1 + x2 - x3)^3"),
        ("x3^2", "x2*x1"),
        ("1/2*x3^2 + 2/3*x1", "(3/5*x2 - 1/7)*x1"),
    ),
    "u_so3": (
        ("x3*x2*x1", "(x1 - x2 + x3)^3"),
        ("x3*x2", "x2*x1^2"),
        ("1/2*x3", "(3/5*x2 - 1/7)*x1"),
    ),
}

HEISENBERG_TO_WEYL = {"source": "catalog:u_heisenberg", "target": "catalog:weyl1", "phi": {}}


def _identity_seed(name: str) -> dict:
    from skewpbw import catalog

    P = catalog.get(name)
    gens = P.ring.generator_names()
    return {
        "source": f"catalog:{name}",
        "target": f"catalog:{name}",
        "phi": {g: g for g in gens},
        "y": [f"x{k + 1}" for k in range(P.n)],
    }


def fixtures() -> dict:
    """The JSON files the rows read, by file name."""
    out = {f"id_{name}.json": _identity_seed(name) for name in CATALOG}
    out["heis_weyl1.json"] = dict(HEISENBERG_TO_WEYL, y=["x2", "x1", "1"])
    out["heis_weyl1_bad.json"] = dict(HEISENBERG_TO_WEYL, y=["x2", "x1", "2"])
    return out


def argvs() -> list[list[str]]:
    rows = [["catalog", "list"]]
    for name, (nfs, ints, fracs) in CATALOG.items():
        P = f"catalog:{name}"
        rows += [["check", P], ["check", P, "--json"]]
        rows += [["nf", P, e] for e in nfs]
        rows += [["mul", P, *ints], ["mul", P, *ints, "--verify"]]
        rows += [["mul", P, *fracs], ["mul", P, *fracs, "--verify"]]
        rows += [["catalog", "show", name]]
        rows += [["hom", f"id_{name}.json", "--check-only"], ["hom", f"id_{name}.json", nfs[1]]]
    rows += [
        ["catalog", "show", "weyl", "--params", "3"],
        # variables pushed across several nonzero slots
        ["mul", "catalog:weyl3", "x6^2*x5*x4", "x1*x2^2*x3", "--verify"],
        ["nf", "catalog:u_so3", "x3^2*x2^2*x1^2"],
        ["nf", "catalog:weyl40", "x80*x41*x1*x40"],
    ]
    for spec in ("heis_weyl1.json", "heis_weyl1_bad.json"):
        rows += [["hom", spec, "--check-only"], ["hom", spec, "x1*x2"], ["hom", spec, "x3^2"]]
    rows += [
        # usage errors
        [],
        ["nf", "catalog:weyl1"],
        ["check", "catalog:weyl1", "--frob"],
        ["catalog", "show"],
        ["catalog", "show", "u_sl2", "--params", "2"],
        ["hom", "heis_weyl1.json"],
        # parse and input errors
        ["nf", "catalog:weyl1", "x1 +"],
        ["nf", "catalog:weyl1", "x9"],
        ["nf", "catalog:weyl1", "(x1"],
        ["nf", "catalog:weyl1", "x1^70000"],
        ["mul", "catalog:weyl1", "-h", "x1"],
        ["nf", "catalog:nope", "x1"],
        ["catalog", "show", "weyl501"],
        ["nf", "missing.json", "x1"],
        # an expression that starts with '-'
        ["nf", "catalog:weyl1", "-x2^2*x1"],
        ["mul", "catalog:weyl1", "-x2", "-x1", "--verify"],
    ]
    return rows


def run_row(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of cli.main on argv, in process."""
    from skewpbw import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def stored(text: str):
    """The table's form of one output."""
    if len(text) <= VERBATIM:
        return text
    lines = text.splitlines()
    return {
        "len": len(text),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "first": lines[0],
        "last": lines[-1],
    }


def write_fixtures(table: dict, directory: Path) -> None:
    for name, obj in table["fixtures"].items():
        (directory / name).write_text(json.dumps(obj))


@contextlib.contextmanager
def _inside(directory: Path):
    here = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(here)


def mismatches(table: dict, directory: Path) -> list[str]:
    """One report per row whose answer differs, run in ``directory``, which
    must hold the table's fixtures."""
    reports = []
    with _inside(directory):
        for row in table["rows"]:
            code, out, err = run_row(row["argv"])
            got = {"code": code, "stdout": stored(out), "stderr": stored(err)}
            for key, value in got.items():
                want = row[key]
                if value == want:
                    continue
                lines = [f"argv {row['argv']}: {key} differs"]
                if isinstance(want, str) and isinstance(value, str):
                    lines += difflib.unified_diff(
                        want.splitlines(), value.splitlines(), "table", "now", lineterm=""
                    )
                else:
                    lines += [f"  table: {want!r}", f"  now:   {value!r}"]
                reports.append("\n".join(lines))
    return reports


def build() -> dict:
    table = {"fixtures": fixtures(), "rows": []}
    with tempfile.TemporaryDirectory(prefix="answers-") as tmp:
        write_fixtures(table, Path(tmp))
        with _inside(Path(tmp)):
            for argv in argvs():
                code, out, err = run_row(argv)
                table["rows"].append(
                    {"argv": argv, "code": code, "stdout": stored(out), "stderr": stored(err)}
                )
    return table


def main(args: list[str]) -> int:
    if args == ["--update"]:
        table = build()
        TABLE.write_text(json.dumps(table, indent=1, ensure_ascii=False) + "\n")
        print(f"wrote {len(table['rows'])} rows to {TABLE}")
        return 0
    if args:
        print("usage: python tests/answers.py [--update]", file=sys.stderr)
        return 1
    table = json.loads(TABLE.read_text())
    with tempfile.TemporaryDirectory(prefix="answers-") as tmp:
        write_fixtures(table, Path(tmp))
        reports = mismatches(table, Path(tmp))
    for report in reports:
        print(report)
    print(f"{len(table['rows'])} rows, {len(reports)} mismatches")
    return 1 if reports else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main(sys.argv[1:]))
