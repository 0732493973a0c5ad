"""Command-line contract: exit codes, determinism, output channels."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import skewpbw
from skewpbw import cli, reduction
from skewpbw.algebra import ExponentCapError, Poly
from skewpbw.jsonio import presentation_to_json
from skewpbw.catalog import StructureConstants, get, lie_presentation
from skewpbw.expr import MAX_POWER_BITS
from skewpbw.presentation import MAX_VARS, Presentation
from skewpbw.rings import (
    MAX_PRINT_DIGITS,
    PRIME_CAP,
    QQ,
    LaurentRing,
    PolyRing,
    PrimeField,
    RingMap,
    SigmaDerivation,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv, timeout):
    """The CLI in a fresh interpreter that imports this process's skewpbw;
    subprocess.TimeoutExpired fails the test past ``timeout`` seconds."""
    env = dict(os.environ, PYTHONPATH=str(Path(skewpbw.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "skewpbw.cli", *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def loaded_after(code, *argv):
    """The modules a fresh interpreter that imports this process's skewpbw
    holds after it runs ``code`` with ``argv`` in sys.argv[1:]."""
    env = dict(os.environ, PYTHONPATH=str(Path(skewpbw.__file__).parent.parent))
    script = f"import sys\n{code}\nprint('\\n' + ' '.join(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    return set(proc.stdout.splitlines()[-1].split())


# modules that only checks, the oracle and hom run, and dataclasses with
# what it imports
_COMMAND_ONLY = {
    "dataclasses", "inspect", "skewpbw.universal", "skewpbw.reduction", "skewpbw.words"
}


def test_each_command_imports_only_what_it_runs(tmp_path):
    """A cold start of nf, catalog show, or a command that ends in a usage
    or parse error loads neither the word-level engine nor universal, and
    nothing in skewpbw loads dataclasses (which imports inspect)."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"source": "catalog:u_heisenberg", "target": "catalog:weyl1", "y": ["x2", "x1", "1"]}
    ))
    bare = loaded_after("")
    run_main = "from skewpbw.cli import main\nmain(sys.argv[1:])"
    for argv in (
        ("nf", "catalog:weyl1", "x1"),
        ("catalog", "show", "weyl", "--params", "1"),
        ("mul", "catalog:weyl1", "x1"),
        ("nf", "catalog:weyl1", "x1 +"),
    ):
        assert loaded_after(run_main, *argv) & _COMMAND_ONLY <= bare, argv
    assert loaded_after("import skewpbw") & _COMMAND_ONLY <= bare
    verify = ("mul", "catalog:weyl1", "x2", "x1", "--verify")
    assert "skewpbw.reduction" in loaded_after(run_main, *verify)
    assert "skewpbw.universal" in loaded_after(run_main, "hom", str(spec), "x1")
    for path in Path(skewpbw.__file__).parent.glob("*.py"):
        assert "dataclass" not in path.read_text(encoding="utf-8"), path.name


def broken_jacobi_json(tmp_path):
    sc = StructureConstants.build(
        QQ, 3, {(0, 1): [0, 0, -1], (0, 2): [-1, 0, 0], (1, 2): [0, -1, 0]}
    )
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(presentation_to_json(lie_presentation(sc))))
    return str(path)


def test_nf(capsys):
    code, out, err = run(capsys, "nf", "catalog:weyl1", "x2*x1")
    assert code == 0
    assert out.strip() == "x1*x2 + 1"
    assert err == ""


def test_nf_parse_error(capsys):
    code, out, err = run(capsys, "nf", "catalog:weyl1", "x1 x2")
    assert code == 1
    assert out == ""
    assert "col 4" in err


def test_usage_error(capsys):
    code, out, err = run(capsys, "nf", "catalog:weyl1")
    assert code == 1
    assert "usage error" in err


def test_unknown_catalog(capsys):
    code, out, err = run(capsys, "nf", "catalog:nope", "x1")
    assert code == 1
    assert "nope" in err


def test_mul_verify(capsys):
    code, out, err = run(
        capsys, "mul", "catalog:quantum_plane", "x2^3", "x1^2", "--verify"
    )
    assert code == 0
    assert out.strip() == "q^6*x1^2*x2^3"


def test_mul_verify_mismatch_exits_3(capsys, monkeypatch):
    # the oracle normally agrees; force a disagreement to cover the contract
    # cmd_mul imports the oracle from its module when --verify asks for it
    monkeypatch.setattr(reduction, "star_oracle", lambda f, g: Poly.zero(f.pres))
    code, out, err = run(capsys, "mul", "catalog:weyl1", "x2", "x1", "--verify")
    assert code == 3
    assert out == ""
    assert "mismatch" in err


def test_check_pass(capsys):
    code, out, err = run(capsys, "check", "catalog:u_sl2", "--samples", "8", "--seed", "5")
    assert code == 0
    assert "overall: PASS" in out


def test_check_fail_exit_2_with_witness(capsys, tmp_path):
    path = broken_jacobi_json(tmp_path)
    code, out, err = run(capsys, "check", path, "--samples", "4")
    assert code == 2
    assert "overall: FAIL" in out
    assert "(1,2,3)" in out  # the failing triple, 1-based


def test_check_json_output(capsys, tmp_path):
    path = broken_jacobi_json(tmp_path)
    code, out, err = run(capsys, "check", path, "--samples", "4", "--json")
    assert code == 2
    report = json.loads(out)
    assert report["overall"] is False
    bad = [it for it in report["condition3"] if not it["ok"]]
    assert [(it["i"], it["j"], it["k"]) for it in bad] == [(1, 2, 3)]


def test_check_ignores_samples_and_seed(capsys):
    default = run(capsys, "check", "catalog:quantum_plane", "--json")
    assert default[0] == 0
    for args in (["--seed", "4", "--samples", "16"], ["--samples", "5000"], ["--samples", "-1"]):
        assert run(capsys, "check", "catalog:quantum_plane", "--json", *args) == default


def test_check_seed_determinism(capsys):
    code1, out1, err1 = run(capsys, "check", "catalog:quantum_plane", "--seed", "9")
    code2, out2, err2 = run(capsys, "check", "catalog:quantum_plane", "--seed", "9")
    assert (code1, out1) == (code2, out2)
    code3, out3, err3 = run(capsys, "check", "catalog:quantum_plane", "--seed", "10", "--json")
    code4, out4, err4 = run(capsys, "check", "catalog:quantum_plane", "--seed", "10", "--json")
    assert (code3, out3) == (code4, out4)


def test_hom_check_only(capsys, tmp_path):
    spec = {
        "source": "catalog:u_heisenberg",
        "target": "catalog:weyl1",
        "phi": {},
        "y": ["x2", "x1", "1"],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "hom", str(path), "--check-only")
    assert code == 0
    assert "overall: PASS" in out

    code, out, err = run(capsys, "hom", str(path), "x1*x2")
    assert code == 0
    assert out.strip() == "x1*x2 + 1"


def test_hom_failing_spec(capsys, tmp_path):
    spec = {
        "source": "catalog:u_heisenberg",
        "target": "catalog:weyl1",
        "phi": {},
        "y": ["x2", "x1", "2"],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "hom", str(path), "--check-only")
    assert code == 2
    code, out, err = run(capsys, "hom", str(path), "x3")
    assert code == 2
    assert "lhs" in err


def test_hom_requires_expr(capsys, tmp_path):
    spec = {
        "source": "catalog:u_heisenberg",
        "target": "catalog:weyl1",
        "phi": {},
        "y": ["x2", "x1", "1"],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "hom", str(path))
    assert code == 1
    assert "usage error" in err


def test_catalog_list_and_show(capsys):
    code, out, err = run(capsys, "catalog", "list")
    assert code == 0
    listed = out.split()
    assert "weyl" in listed and "quantum_plane" in listed

    code, out, err = run(capsys, "catalog", "show", "weyl", "--params", "2")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["vars"]) == 4

    code, out, err = run(capsys, "catalog", "show", "quantum_plane")
    assert code == 0
    assert json.loads(out)["ring"]["kind"] == "laurent"


def test_bad_presentation_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "check", str(path))
    assert code == 1

    path2 = tmp_path / "unknown_field.json"
    obj = presentation_to_json(get("quantum_plane"))
    obj["surprise"] = True
    path2.write_text(json.dumps(obj))
    code, out, err = run(capsys, "nf", str(path2), "x1")
    assert code == 1
    assert "surprise" in err


def test_cli_round_trip_nf(capsys):
    # printing then re-normalizing is stable
    code, out, _ = run(capsys, "nf", "catalog:weyl1", "x2^2*x1^2")
    assert code == 0
    first = out.strip()
    code, out, _ = run(capsys, "nf", "catalog:weyl1", first)
    assert out.strip() == first


def timed_run(capsys, *argv, limit=1.0):
    start = time.perf_counter()
    result = run(capsys, *argv)
    assert time.perf_counter() - start < limit
    return result


@pytest.mark.parametrize(
    "expr, expected",
    [
        ("+".join(["x1"] * 3000), "3000*x1"),
        ("*".join(["1"] * 3000), "1"),
        ("-" * 3000 + "x1", "x1"),
    ],
)
def test_long_expressions_do_not_recurse(capsys, expr, expected):
    code, out, err = timed_run(capsys, "nf", "catalog:weyl1", expr)
    assert (code, out, err) == (0, expected + "\n", "")


def test_deep_nesting_is_a_positioned_error(capsys):
    code, out, err = timed_run(capsys, "nf", "catalog:weyl1", "(" * 3000 + "x1" + ")" * 3000)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert "col 101" in err and "nested" in err


def test_constant_powers_use_the_coefficient_ring(capsys):
    for k in (70000, 5000000, 10**20):
        code, out, err = timed_run(capsys, "nf", "catalog:quantum_plane", f"q^{k}")
        assert (code, out, err) == (0, f"q^{k}\n", "")


def test_one_term_constant_powers_are_capped(capsys):
    for target, expr, col, why in [
        ("catalog:quantum_plane", "(3/2)^30000000", 6, "exponent 30000000 on a 1-term constant"),
        ("catalog:weyl1", "(3/2)^1000000", 6, "power of a 1-term constant would hold"),
        ("catalog:weyl1", "2^100000000", 2, "exponent 100000000 on a 1-term constant"),
    ]:
        code, out, err = timed_run(capsys, "nf", target, expr)
        assert (code, out) == (1, "") and err.startswith(f"error: line 1 col {col}: {why}"), err
        assert err.endswith(f" the cap of {MAX_POWER_BITS}\n")


def test_multi_term_constant_powers_are_capped(capsys):
    code, out, err = timed_run(capsys, "nf", "catalog:quantum_plane", "(q+1)^20000")
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith("error: line 1 col 6: power of a 2-term constant")
    assert f"cap of {MAX_POWER_BITS}" in err
    # exponent gaps shrink the prediction: 101 terms, not 200001
    code, out, err = timed_run(capsys, "nf", "catalog:quantum_plane", "(q^1000 + q^-1000)^100")
    assert (code, err) == (0, "") and out.startswith("q^100000 + 100*q^98000 + ")
    # 1001 terms of at most 1000 bits fit under the cap, and so do 501^2 * 2
    # steps of the last squaring; 1025 * 1024 bits do not
    code, out, err = run(capsys, "nf", "catalog:quantum_plane", "(q+1)^1000")
    assert (code, err) == (0, "") and out.startswith("q^1000 + 1000*q^999 + ")
    code, out, err = timed_run(capsys, "nf", "catalog:quantum_plane", "(q+1)^1024")
    assert (code, out) == (1, "") and "about 1.05e+06 bits" in err


def test_constant_powers_are_capped_by_their_work(capsys, tmp_path):
    """A power under the size cap whose squarings would cost seconds is
    refused at its caret before any arithmetic, and so is any exponent past
    the cap; a cheaper power of the same base is computed."""

    def ring_file(name, base, gens):
        path = tmp_path / f"{name}.json"
        ring = {"kind": "poly", "base": base, "vars": gens}
        path.write_text(json.dumps({"ring": ring, "vars": ["x"]}))
        return str(path)

    f10007 = ring_file("f10007", {"kind": "prime_field", "p": 10007}, ["s", "t", "u"])
    f7 = ring_file("f7", {"kind": "prime_field", "p": 7}, ["s", "t"])
    refused = [
        (f10007, "(s+t+u+1)^40", "take about 1.25e+07 steps in its last squaring"),
        (f10007, "(s+t+u+1)^30", "take about 2.66e+06 steps in its last squaring"),
        (f7, "(s+t+1)^342", "take about 6.64e+08 steps in its last squaring"),
        ("catalog:quantum_plane", f"(q+1)^{10**400}", f"exponent {10**400} on a 2-term constant"),
    ]
    for where, expr, why in refused:
        code, out, err = timed_run(capsys, "nf", where, expr)
        assert (code, out) == (1, "") and err.count("\n") == 1, expr
        assert err.startswith(f"error: line 1 col {expr.index('^') + 1}: ") and why in err, err
        assert err.endswith(f" the cap of {MAX_POWER_BITS}\n")
    code, out, err = timed_run(capsys, "nf", f10007, "(s+t+u+1)^20")
    assert (code, err) == (0, "") and out.startswith("s^20 + 20*s^19*t + 20*s^19*u + ")


def test_exponent_cap_on_variables(capsys):
    code, out, err = timed_run(capsys, "nf", "catalog:weyl1", "x1^70000")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert "col 3" in err and "65536" in err


def test_exponent_cap_error_exits_1(capsys, monkeypatch):
    def capped(f, g):
        raise ExponentCapError("exponent 65536 exceeds cap 65536")

    monkeypatch.setattr(cli, "star", capped)
    code, out, err = run(capsys, "mul", "catalog:weyl1", "x1", "x2")
    assert code == 1
    assert out == ""
    assert err == "error: exponent 65536 exceeds cap 65536\n"


def test_large_variable_powers_square(capsys):
    code, out, err = timed_run(capsys, "nf", "catalog:weyl1", "x1^3000")
    assert (code, out, err) == (0, "x1^3000\n", "")


def test_oversized_coefficient_is_a_one_line_error(capsys):
    code, out, err = timed_run(capsys, "nf", "catalog:weyl1", "2^20000")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert "4300 decimal digits" in err
    assert "set_int_max_str_digits" not in err
    # 2^14000 has 4215 digits: still printed
    code, out, err = timed_run(capsys, "nf", "catalog:weyl1", "2^14000")
    assert (code, out, err) == (0, f"{2**14000}\n", "")


def _ore_extension(tmp_path, ring, twist_images, derivation_images):
    """An Ore extension ring[u; sigma, delta] written to a JSON file."""
    sigma = RingMap.from_images(ring, twist_images)
    delta = SigmaDerivation.from_images(ring, sigma, derivation_images)
    P = Presentation(ring, ("u",), sigma=[sigma], delta=[delta])
    path = tmp_path / "ore.json"
    path.write_text(json.dumps(presentation_to_json(P)))
    return str(path), P


def test_derivation_of_large_powers_is_bounded(capsys, tmp_path):
    # Q[t][u; d/dt]: u t^n = t^n u + n t^(n-1)
    QT = PolyRing(QQ, ("t",))
    path, _ = _ore_extension(tmp_path, QT, {}, {"t": QT.one()})
    code, out, err = timed_run(capsys, "nf", path, "u*t^65535")
    assert (code, out, err) == (0, "t^65535*x1 + 65535*t^65534\n", "")


def test_twisted_derivation_of_large_powers_is_bounded(capsys, tmp_path):
    # Q[q^+-1][t][u; sigma(t) = q t, delta(t) = 1]:
    # u t^n = q^n t^n u + (1 + q + ... + q^(n-1)) t^(n-1)
    ring = PolyRing(LaurentRing(QQ, "q"), ("t",))
    q, t = ring.generator("q"), ring.generator("t")
    path, P = _ore_extension(tmp_path, ring, {"t": q * t}, {"t": ring.one()})
    n = 8000
    q_integer = ring.elem((((n - 1,), tuple((m, 1) for m in range(n))),))
    expected = Poly(P, {(1,): q**n * t**n, (0,): q_integer})
    code, out, err = timed_run(capsys, "nf", path, f"u*t^{n}")
    assert (code, out, err) == (0, f"{expected}\n", "")


@pytest.mark.parametrize(
    "expr, printed",
    [
        ("(q + 1)*x1", "(q + 1)*x1"),
        ("-(q + 1)*x1", "(-q - 1)*x1"),
        ("(q + b)*x1", "(b + q)*x1"),
    ],
)
def test_tower_coefficients_round_trip(capsys, expr, printed):
    # a constant coefficient of Q[q^+-1][b,c] that is a sum in Q[q^+-1]
    token = "catalog:quantum_matrices2"
    assert run(capsys, "nf", token, expr) == (0, printed + "\n", "")
    assert run(capsys, "nf", token, printed) == (0, printed + "\n", "")


def test_laurent_tower_coefficients_round_trip(capsys, tmp_path):
    ring = PolyRing(LaurentRing(QQ, "q"), ("t",))
    path, _ = _ore_extension(tmp_path, ring, {"t": ring.generator("q") * ring.generator("t")}, {})
    for expr, printed in [("(q + 1)*u", "(q + 1)*x1"), ("(q^-1 - q)*u^2 + t*u", "(-q + q^-1)*x1^2 + t*x1")]:
        assert run(capsys, "nf", path, expr) == (0, printed + "\n", "")
        assert run(capsys, "nf", path, printed) == (0, printed + "\n", "")


def test_hom_of_large_powers_is_bounded(capsys, tmp_path):
    spec = {"source": "catalog:u_heisenberg", "target": "catalog:weyl1", "phi": {}, "y": ["x2", "x1", "1"]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = timed_run(capsys, "hom", str(path), "x1^3200")
    assert (code, out, err) == (0, "x2^3200\n", "")


def test_hom_condition_i_failure_exits_2(capsys, tmp_path):
    # both variables of qdiff_presentation sent to the second one, which
    # passes t unchanged although the first variable twists it
    from .genutil import qdiff_presentation

    pres = tmp_path / "qdiff.json"
    pres.write_text(json.dumps(presentation_to_json(qdiff_presentation())))
    spec = {"source": str(pres), "target": str(pres), "phi": {"q": "q", "t": "t"}, "y": ["x2", "x2"]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "hom", str(path), "--check-only")
    assert code == 2
    lines = out.splitlines()
    assert lines[:2] == ["condition (i): 6 checks, FAIL", "condition (ii): 1 checks, all pass"]
    assert lines[2].startswith("(i) y1 past r=t: lhs=")
    assert lines[3:] == ["overall: FAIL"]
    code, out, err = run(capsys, "hom", str(path), "x1")
    assert (code, out) == (2, "")
    assert err.startswith("(i) y1 past r=t: lhs=")


def test_hom_seed_errors_are_one_line(capsys, tmp_path):
    f5 = tmp_path / "f5.json"
    f5.write_text(json.dumps(presentation_to_json(Presentation(PrimeField(5), ("x",)))))
    cases = [
        (
            {"source": "catalog:quantum_plane", "target": "catalog:quantum_plane",
             "phi": {"q": "q + 1"}, "y": ["x1", "x2"]},
            "error: phi(q) must be a unit of the target coefficients\n",
        ),
        (
            {"source": "catalog:u_heisenberg", "target": str(f5), "y": ["x1", "x1", "x1"]},
            "error: bottom fields differ: Q vs F_5\n",
        ),
    ]
    for spec, message in cases:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert run(capsys, "hom", str(path), "--check-only") == (1, "", message)
        assert run(capsys, "hom", str(path), "x1") == (1, "", message)


@pytest.mark.parametrize(
    "name, expr, expected",
    [
        # x2 x1^n = x1^n x2 + n x1^(n-1)
        ("weyl1", "x2*x1^3000", "x1^3000*x2 + 3000*x1^2999"),
        # x2 x1^n = q^n x1^n x2
        ("quantum_plane", "x2*x1^3000", "q^3000*x1^3000*x2"),
        # h e^n = e^n h + 2n e^n
        ("u_sl2", "x3*x1^2000", "x1^2000*x3 + 4000*x1^2000"),
        # d a^n = a^n d + (q - q^(1-2n)) b c a^(n-1)
        ("quantum_matrices2", "d*a^1500", "x1^1500*x2 + (q - q^-2999)*b*c*x1^1499"),
    ],
)
def test_variable_past_a_long_power_does_not_recurse(capsys, name, expr, expected):
    assert timed_run(capsys, "nf", f"catalog:{name}", expr) == (0, expected + "\n", "")


def test_power_of_the_last_variable_is_pushed_once(capsys):
    # x2^a x1^b = q^(ab) x1^b x2^a: x2 meets each x1^c once, not once per
    # power of x2 already to its right
    code, out, err = timed_run(capsys, "mul", "catalog:quantum_plane", "x2^1000", "x1^1000")
    assert (code, out, err) == (0, "q^1000000*x1^1000*x2^1000\n", "")
    # twists that fix q cost one product per (b, c)-term
    argv = ("mul", "catalog:quantum_matrices2", "x2^24", "x1^24")
    code, out, err = timed_run(capsys, *argv, limit=30)
    assert (code, err) == (0, "") and out.startswith("x1^24*x2^24")


def test_weyl_power_product_closed_form(capsys):
    # x2^k x1^k = sum_t t! C(k,t)^2 x1^(k-t) x2^(k-t)  when [x2, x1] = 1
    k = 300
    W = get("weyl1")
    expected = Poly(
        W,
        {(k - t, k - t): W.ring.from_int(math.factorial(t) * math.comb(k, t) ** 2) for t in range(k + 1)},
    )
    code, out, err = timed_run(capsys, "mul", "catalog:weyl1", f"x2^{k}", f"x1^{k}")
    assert (code, out, err) == (0, f"{expected}\n", "")


def test_last_variable_shift_respects_the_exponent_cap(capsys):
    code, out, err = run(capsys, "mul", "catalog:weyl1", "x2", "x1*x2^65535")
    assert (code, out, err) == (1, "", "error: exponent cap 65536 exceeded at slot 1\n")


def _nested_ring_file(tmp_path, depth):
    # built as text: json.dumps would itself recurse this deep
    ring = '{"kind": "poly", "vars": ["t"], "base": ' * depth + '{"kind": "rationals"}' + "}" * depth
    path = tmp_path / f"nested{depth}.json"
    path.write_text('{"ring": ' + ring + ', "vars": ["x"]}')
    return str(path)


def test_deeply_nested_json_is_a_schema_error(capsys, tmp_path):
    path = _nested_ring_file(tmp_path, 100000)
    assert timed_run(capsys, "nf", path, "x") == (1, "", f"error: {path}: JSON nested too deeply\n")
    code, out, err = timed_run(capsys, "nf", _nested_ring_file(tmp_path, 800), "x")
    assert (code, out) == (1, "")
    assert err == "error: PolyRing base must be Rationals, a prime field, or a Laurent ring\n"


def test_variable_count_is_capped(capsys, tmp_path):
    path = tmp_path / "wide.json"
    names = [f"v{i}" for i in range(MAX_VARS + 1)]
    path.write_text(json.dumps({"ring": {"kind": "rationals"}, "vars": names}))
    message = f"error: {MAX_VARS + 1} variables exceed the cap of {MAX_VARS}\n"
    assert timed_run(capsys, "nf", str(path), "v1") == (1, "", message)
    n = MAX_VARS // 2 + 1  # weyl(n) has 2n variables
    message = f"error: {2 * n} variables exceed the cap of {MAX_VARS}\n"
    assert timed_run(capsys, "nf", f"catalog:weyl{n}", "t1") == (1, "", message)
    # a fused index past the cap's digits is refused unread, before any names are built
    for index in ("10000000", "9" * 5000):
        expected = (1, "", f"error: {_LONG_INDEX}\n")
        assert timed_run(capsys, "nf", f"catalog:weyl{index}", "t1") == expected


def test_non_injective_twists_exit_2_with_witness(capsys, tmp_path):
    qt = PolyRing(QQ, ("t",))
    laurent_t = PolyRing(LaurentRing(QQ, "q"), ("t",))
    qst = PolyRing(QQ, ("s", "t"))
    t = qst.generator("t")
    cases = [
        (qt, {"t": qt.one()}, "condition 1 fails at x1: sigma1(t - 1) = 0"),
        (laurent_t, {"t": laurent_t.generator("q")}, "sigma1(q), sigma1(t) are algebraically"),
        (qst, {"s": t, "t": t}, "sigma1(s), sigma1(t) are algebraically dependent"),
    ]
    paths = []
    for k, (ring, images, witness) in enumerate(cases):
        (tmp_path / str(k)).mkdir()
        path, _ = _ore_extension(tmp_path / str(k), ring, images, {})
        paths.append(path)
        for seed in "0123":
            code, out, err = run(capsys, "check", path, "--seed", seed)
            assert code == 2 and out.endswith("overall: FAIL\n"), out
            assert "nonzero FAIL; injectivity: not injective (structural)" in out
            assert witness in out
    # the first witness is a real kernel element: u (t - 1) = sigma(t - 1) u = 0
    assert run(capsys, "nf", paths[0], "u*(t - 1)") == (0, "0\n", "")


def test_check_json_injectivity_is_structural_on_the_catalog(capsys):
    from skewpbw.catalog import all_presentations

    for name, _ in all_presentations():
        code, out, err = run(capsys, "check", f"catalog:{name}", "--json", "--seed", "3")
        assert code == 0, name
        items = json.loads(out)["condition1"]
        assert {(it["injectivity"], it["injectivity_mode"]) for it in items} == {
            ("injective", "structural")
        }, name


def test_check_json_decides_injectivity_over_f_p(capsys, tmp_path):
    # zero Jacobians over F_7[t, u]: t -> t^7 is injective, t -> u is not,
    # with a kernel element; both verdicts are structural
    ring = {"kind": "poly", "base": {"kind": "prime_field", "p": 7}, "vars": ["t", "u"]}
    path = tmp_path / "f7.json"
    for image, code, verdict, witness in [
        ("t^7", 0, "injective", None),
        ("u", 2, "not injective", "sigma1(t - u) = 0"),
    ]:
        path.write_text(json.dumps({"ring": ring, "vars": ["x"], "sigma": [{"t": image}]}))
        got, out, err = timed_run(capsys, "check", str(path), "--json", limit=30)
        item = json.loads(out)["condition1"][0]
        assert (got, item["injectivity"], item["injectivity_mode"], item["witness"]) == (
            code, verdict, "structural", witness,
        )


def test_unprintable_parameter_does_not_block_products(capsys, tmp_path):
    """Presentation identity never prints the parameters: a d too long to
    print stops only the commands that print it."""
    path = tmp_path / "huge_d.json"
    path.write_text(
        json.dumps(
            {
                "ring": {"kind": "rationals"},
                "vars": ["x1", "x2", "x3"],
                "relations": [{"i": 1, "j": 2, "d": "2^20000"}],
            }
        )
    )
    assert timed_run(capsys, "mul", str(path), "x3", "x3") == (0, "x3^2\n", "")
    assert timed_run(capsys, "mul", str(path), "x3", "x3", "--verify") == (0, "x3^2\n", "")
    message = "error: a coefficient has more than 4300 decimal digits and is not printed\n"
    assert timed_run(capsys, "check", str(path)) == (1, "", message)


def test_products_at_the_variable_cap_do_bounded_work(capsys, tmp_path):
    path = tmp_path / "wide.json"
    names = [f"v{i}" for i in range(MAX_VARS)]
    path.write_text(json.dumps({"ring": {"kind": "rationals"}, "vars": names}))
    assert timed_run(capsys, "mul", str(path), "v1", "v0", "--verify") == (0, "x1*x2\n", "")
    assert timed_run(capsys, "nf", str(path), "v1*v0") == (0, "x1*x2\n", "")
    # weyl500 has MAX_VARS variables and 499500 pairs, written without their
    # n-slot a lists
    code, out, err = run_fresh("catalog", "show", "weyl", "--params", "500", timeout=60)
    assert (code, err, len(json.loads(out)["relations"])) == (0, "", 499500)
    # d500 pushed across the 999 other variables, each at exponent 1: the
    # push takes one step per nonzero slot, not one stack frame, and only
    # d500 t500 = t500 d500 + 1 leaves a second term
    W = get("weyl500")
    ones = (1,) * 999 + (0,)
    t0 = time.perf_counter()
    prod = Poly.variable(W, 999) * Poly.monomial(W, ones)
    assert time.perf_counter() - t0 < 10
    rest = ones[:499] + (0,) + ones[500:]
    assert prod == Poly.monomial(W, (1,) * 1000) + Poly.monomial(W, rest)


@pytest.mark.parametrize(
    "argv, printed",
    [
        (
            ("mul", "catalog:weyl1", "1/2*x2^3", "2/3*x1^2", "--verify"),
            "1/3*x1^2*x2^3 + 2*x1*x2^2 + 2*x2",
        ),
        (
            ("mul", "catalog:quantum_plane", "3/4*x2^2", "(1/3*q + 2/5)*x1"),
            "(1/4*q^3 + 3/10*q^2)*x1*x2^2",
        ),
        (
            ("nf", "catalog:u_sl2", "(1/2*x3 + 2/3*x1)*(3/5*x2 - 1/7)*x1"),
            "2/5*x1^2*x2 + 3/10*x1*x2*x3 - 2/21*x1^2 - 33/70*x1*x3 - 3/10*x3^2 - 1/7*x1",
        ),
        (
            ("nf", "catalog:u_sl2", "(1/2*x3 - 2/3)*(3/4*x2 + 1/5*x1*x3)"),
            "1/10*x1*x3^2 + 1/15*x1*x3 + 3/8*x2*x3 - 5/4*x2",
        ),
        (
            ("mul", "catalog:u_sl2", "1/2*x3^2 + 2/3*x1", "(3/5*x2 - 1/7)*x1", "--verify"),
            "3/10*x1*x2*x3^2 + 2/5*x1^2*x2 - 1/14*x1*x3^2 - 3/10*x3^3 - 2/21*x1^2"
            " - 24/35*x1*x3 - 2/7*x1",
        ),
    ],
)
def test_fractional_products_print_byte_for_byte(capsys, argv, printed):
    assert timed_run(capsys, *argv, limit=60) == (0, printed + "\n", "")


def test_heavy_fractional_product_verifies_byte_for_byte(capsys):
    """The diffusion2 product whose oracle run dominated verify-cold while
    the oracle straightened fractional scalar letters."""
    argv = (
        "mul", "catalog:diffusion2", "7/8*q*x2^4",
        "(-1/7*q + 3/2 - 1/2*q^-1)*x1^4 + (-7/8*q - 8/5)*x1^2*x2", "--verify",
    )
    code, out, err = timed_run(capsys, *argv, limit=60)
    assert (code, err, len(out)) == (0, "", 3764)
    assert out.startswith("(-1/8*q^18 + 21/16*q^17 - 7/16*q^16)*x1^4*x2^4 + (-1/2*q^17 + ")
    assert out.endswith(" + 1475/16*q^3 + 555/16*q^2 - 77/16*q - 35/4)*x2\n")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "2419edf82e7489631abef5b0c36866f25a51b1ae29739ff348cd4b66696ecd58"


def test_oracle_work_cap_is_a_one_line_error(capsys, monkeypatch):
    # at the real cap: a product just under it verifies, one past it stops
    argv = ("mul", "catalog:diffusion2", "x2^6", "x1^6", "--verify")
    code, out, err = timed_run(capsys, *argv, limit=30)
    assert (code, err) == (0, "") and out.startswith("q^36*x1^6*x2^6")
    message = (
        f"error: straightening needs more than {reduction.MAX_NEW_PAIRS} new memo pairs; "
        "the input is too large for the word-level oracle\n"
    )
    argv = ("mul", "catalog:diffusion2", "x2^9", "x1^9", "--verify")
    assert run_fresh(*argv, timeout=120) == (1, "", message)
    argv = ("mul", "catalog:diffusion2", "x2^3", "x1^3", "--verify")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.startswith("q^9*x1^3*x2^3 + ")
    monkeypatch.setattr(reduction, "MAX_NEW_PAIRS", 50)
    P = get("diffusion2")
    x1, x2 = Poly.variable(P, 0), Poly.variable(P, 1)
    with pytest.raises(reduction.StraighteningCapError, match="more than 50 new memo pairs"):
        reduction.star_oracle(x2**3, x1**3)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def _f5_file(tmp_path, **relation):
    path = tmp_path / "f5.json"
    rel = {"i": 1, "j": 2, **relation}
    path.write_text(
        json.dumps({"ring": {"kind": "prime_field", "p": 5}, "vars": ["x", "y"], "relations": [rel]})
    )
    return str(path)


def test_fraction_literal_over_f_p_is_a_positioned_error(capsys, tmp_path):
    message = "error: line 1 col {}: denominator divisible by 5\n"
    assert run(capsys, "nf", _f5_file(tmp_path), "1/5") == (1, "", message.format(3))
    assert run(capsys, "nf", _f5_file(tmp_path), "x + 2/10*y") == (1, "", message.format(7))
    expected = "error: relations[0].d: " + message.format(3)[len("error: ") :]
    assert run(capsys, "check", _f5_file(tmp_path, d="1/5")) == (1, "", expected)
    # a denominator prime to p is inverted: 1/3 = 2 in F_5
    assert run(capsys, "nf", _f5_file(tmp_path, d="1/3"), "y*x") == (0, "x1*x2 + 2\n", "")


def test_over_long_integer_literals_are_positioned_errors(capsys, tmp_path):
    nines = "9" * 5000
    message = f"line 1 col {{}}: integer literal has more than {MAX_PRINT_DIGITS} digits\n"
    for pres, expr, col in [
        ("catalog:weyl1", nines, 1),
        ("catalog:weyl1", "x1^" + nines, 4),
        ("catalog:quantum_plane", "q^" + nines, 3),
        ("catalog:weyl1", "1/" + nines, 3),
        ("catalog:weyl1", "x1 - 2*" + nines + "/3", 8),
    ]:
        assert timed_run(capsys, "nf", pres, expr) == (1, "", "error: " + message.format(col))
    longest = "9" * MAX_PRINT_DIGITS
    assert timed_run(capsys, "nf", "catalog:weyl1", longest + "*x1") == (0, longest + "*x1\n", "")
    # inside a file: an expression string names its field, a JSON number the file
    expected = (1, "", "error: relations[0].d: " + message.format(1))
    assert run(capsys, "check", _f5_file(tmp_path, d=nines)) == expected
    path = tmp_path / "p.json"
    for p in (nines, "-" + nines):
        path.write_text('{"ring": {"kind": "prime_field", "p": ' + p + '}, "vars": ["x"]}')
        expected = (1, "", f"error: {path}: integer has more than {MAX_PRINT_DIGITS} digits\n")
        assert timed_run(capsys, "nf", str(path), "x") == expected


def test_large_prime_fields_are_decided_or_capped(capsys, tmp_path):
    path = tmp_path / "fp.json"
    for p, expected in [
        (10**18 + 3, (0, "x1^2\n", "")),
        (10**29 + 1, (1, "", f"error: prime field p must be below {PRIME_CAP}, got {10**29 + 1}\n")),
    ]:
        path.write_text(json.dumps({"ring": {"kind": "prime_field", "p": p}, "vars": ["x"]}))
        assert timed_run(capsys, "nf", str(path), "x*x") == expected


def test_whole_input_parses_before_evaluation(capsys):
    # evaluating the product first would take far longer than the timer allows
    expected = (1, "", "error: line 1 col 19: unexpected ')'\n")
    assert timed_run(capsys, "nf", "catalog:weyl1", "x2^60000*x1^60000 )") == expected


_RAT = {"kind": "rationals"}
_LAURENT = {"kind": "laurent", "base": _RAT, "vars": ["q"]}
_LONG = "x1" + "9" * 5000  # a positional-looking name past every slot


def _pres(ring=_RAT, names=("x", "y"), **fields):
    return {"ring": ring, "vars": names, **fields}


def _relation(**rel):
    return _pres(relations=[{"i": 1, "j": 2, **rel}])


def _spec(**fields):
    return {"source": "catalog:weyl1", "target": "catalog:weyl1", "y": ["x1", "x2"], **fields}


_LONG_INDEX = (
    f"a weyl index of more than {len(str(MAX_VARS))} significant digits "
    f"exceeds the cap of {MAX_VARS} variables"
)


@pytest.mark.parametrize(
    "argv, data, message",
    [
        # schema errors name the field path; data is the JSON of a file that
        # the test puts right after the command
        pytest.param(("nf", "x"), [], "presentation: expected an object", id="not-an-object"),
        pytest.param(("nf", "x"), _pres(names="x"), "vars: expected a list of strings", id="vars"),
        pytest.param(
            ("nf", "x"), _pres({"kind": "prime_field", "p": "5"}),
            "ring: p must be an integer", id="p-string",
        ),
        pytest.param(
            ("nf", "x"), _pres({"kind": "prime_field", "p": True}),
            "ring: p must be an integer", id="p-bool",
        ),
        pytest.param(
            ("nf", "x"), _pres({"kind": "prime_field", "p": 10**29 + 331}, names=["x"]),
            f"prime field p must be below {PRIME_CAP}, got {10**29 + 331}", id="p-cap",
        ),
        pytest.param(
            ("nf", "x"), _pres(_LAURENT, sigma=[5, {}]),
            "sigma[0]: expected an object mapping generators to expressions", id="sigma-entry",
        ),
        pytest.param(
            ("nf", "x"), _pres(sigma={}), "sigma: expected a list of 2 objects", id="sigma",
        ),
        pytest.param(
            ("nf", "x"), _pres(delta=[{}]), "delta: expected a list of 2 objects", id="delta",
        ),
        pytest.param(
            ("nf", "x"), _pres(relations=5), "relations: expected a list of objects",
            id="relations-number",
        ),
        pytest.param(
            ("nf", "x"), _relation(i="1"), "relations[0]: i and j must be integers", id="i-string",
        ),
        pytest.param(
            ("nf", "x"), _relation(i=True), "relations[0]: i and j must be integers", id="i-bool",
        ),
        pytest.param(
            ("nf", "x"), _relation(j=True), "relations[0]: i and j must be integers", id="j-bool",
        ),
        pytest.param(
            ("nf", "x"), _relation(a=["0"]), "relations[0].a: expected a list of 2 expressions",
            id="a-length",
        ),
        pytest.param(
            ("nf", "x"), _relation(c=2), "relations[0].c: expected an expression string",
            id="c-number",
        ),
        pytest.param(
            ("check",), _pres(_LAURENT, relations=[{"i": 1, "j": 2, "c": "(q"}]),
            "relations[0].c: line 1 col 3: expected ')', got 'end of input'", id="c-parse",
        ),
        pytest.param(
            ("nf", "1"), _pres(names=[_LONG]),
            f"positional name {_LONG!r} must sit at slot {_LONG[1:]}", id="long-positional-var",
        ),
        pytest.param(
            ("nf", "1/5"), _pres({"kind": "prime_field", "p": 5}, names=["x"]),
            "line 1 col 3: denominator divisible by 5", id="fraction-over-f5",
        ),
        pytest.param(
            ("hom", "--check-only"), _spec(source=5),
            "homspec: source and target must be strings", id="homspec-source",
        ),
        pytest.param(
            ("hom", "--check-only"), _spec(phi=[]), "homspec.phi: expected an object",
            id="homspec-phi",
        ),
        # parse errors name the line and column
        pytest.param(
            ("nf", "catalog:weyl1", "x1 +\n  x3"), None, "line 2 col 3: unknown identifier 'x3'",
            id="second-line",
        ),
        pytest.param(
            ("nf", "catalog:weyl1", "x1 $ x2"), None, "line 1 col 4: unexpected character '$'",
            id="character",
        ),
        pytest.param(
            ("nf", "catalog:weyl1", "x1 +"), None, "line 1 col 5: unexpected 'end of input'",
            id="end-of-input",
        ),
        pytest.param(
            ("nf", "catalog:weyl1", "-x1 $"), None, "line 1 col 5: unexpected character '$'",
            id="leading-minus",
        ),
        pytest.param(
            ("nf", "catalog:weyl1", "-h"), None, "line 1 col 2: unknown identifier 'h'",
            id="dash-h-expression",
        ),
        pytest.param(
            ("nf", "catalog:weyl1", "1/x1"), None,
            "line 1 col 3: fraction needs an integer denominator", id="fraction",
        ),
        pytest.param(
            ("nf", "catalog:weyl1", _LONG), None, f"line 1 col 1: unknown identifier {_LONG!r}",
            id="long-positional-name",
        ),
        # a weyl index on the command line is read like a fused one
        pytest.param(
            ("catalog", "show", "weyl", "--params", "\u0665"), None,
            "unknown catalog entry 'weyl\u0665'", id="params-arabic-indic",
        ),
        pytest.param(
            ("catalog", "show", "weyl", "--params", "9" * 5000), None, _LONG_INDEX,
            id="params-5000",
        ),
        pytest.param(
            ("catalog", "show", "weyl", "--params", "-1"), None, "unknown catalog entry 'weyl-1'",
            id="params-negative",
        ),
        # a weyl without its index names a spelling that takes one
        pytest.param(
            ("nf", "catalog:weyl", "x1"), None, "weyl needs an index parameter, e.g. weyl1",
            id="weyl-token-without-index",
        ),
        pytest.param(
            ("catalog", "show", "weyl"), None, "weyl needs an index parameter, e.g. weyl1",
            id="weyl-show-without-index",
        ),
    ],
)
def test_malformed_input_ends_in_one_line(capsys, tmp_path, argv, data, message):
    """Exit 1, nothing on stdout, and one error line naming where, all
    within timed_run's second."""
    if data is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        argv = (argv[0], str(path), *argv[1:])
    assert timed_run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_the_weyl_hint_names_a_spelling_every_route_accepts(capsys):
    code, out, err = run(capsys, "catalog", "show", "weyl")
    hint = err.rstrip("\n").rsplit("e.g. ", 1)[1]
    assert code == 1 and get(hint) == get("weyl", 1)
    assert run(capsys, "nf", f"catalog:{hint}", "x2*x1") == (0, "x1*x2 + 1\n", "")
    code, out, err = run(capsys, "catalog", "show", hint)
    assert code == 0 and json.loads(out)["vars"] == ["t1", "d1"]


def test_dash_h_in_an_expression_slot_is_an_expression(capsys, tmp_path):
    """After the presentation or homspec, "-h" is the negated variable h;
    before it, and "--help" anywhere, print help."""
    path = tmp_path / "eh.json"
    path.write_text(json.dumps({"ring": _RAT, "vars": ["e", "h"]}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"source": "eh.json", "target": "eh.json", "y": ["x1", "x2"]}))
    assert run(capsys, "nf", str(path), "-h") == (0, "-x2\n", "")
    assert run(capsys, "mul", str(path), "e", "-h", "--verify") == (0, "-x1*x2\n", "")
    assert run(capsys, "hom", str(spec), "-h") == (0, "-x2\n", "")
    for argv in (("nf", "-h"), ("nf", str(path), "--help"), ("hom", "-h")):
        with pytest.raises(SystemExit) as info:
            cli.main(list(argv))
        out = capsys.readouterr().out
        assert info.value.code == 0 and out.startswith(f"usage: skewpbw {argv[0]} [-h]")


def test_positional_aliases_ignore_leading_zeros(capsys, tmp_path):
    expected = (0, "x1*x2\n", "")
    assert run(capsys, "nf", "catalog:weyl1", "x0001*x02") == expected
    assert run(capsys, "nf", "catalog:weyl1", "x000001*x0000002") == expected
    path = tmp_path / "zeros.json"
    path.write_text(json.dumps(_pres(names=["x000001", "y"])))
    assert run(capsys, "nf", str(path), "y*x000001") == expected
