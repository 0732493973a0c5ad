"""Command-line contract: exit codes, determinism, output channels."""

import json
import math
import time

import pytest

from skewpbw import cli, reduction
from skewpbw.algebra import ExponentCapError, Poly
from skewpbw.jsonio import presentation_to_json
from skewpbw.catalog import StructureConstants, get, lie_presentation
from skewpbw.expr import MAX_POWER_BITS
from skewpbw.presentation import MAX_VARS, Presentation
from skewpbw.rings import PRIME_CAP, QQ, LaurentRing, PolyRing, PrimeField, RingMap, SigmaDerivation


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    monkeypatch.setattr(cli, "star_oracle", lambda f, g: Poly.zero(f.pres))
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


def timed_run(capsys, *argv):
    start = time.perf_counter()
    result = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
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
    for k in (70000, 5000000):
        code, out, err = timed_run(capsys, "nf", "catalog:quantum_plane", f"q^{k}")
        assert (code, out, err) == (0, f"q^{k}\n", "")


def test_multi_term_constant_powers_are_capped(capsys):
    code, out, err = timed_run(capsys, "nf", "catalog:quantum_plane", "(q+1)^20000")
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith("error: line 1 col 6: power of a 2-term constant")
    assert f"cap of {MAX_POWER_BITS}" in err
    # exponent gaps shrink the prediction: 101 terms, not 200001
    code, out, err = timed_run(capsys, "nf", "catalog:quantum_plane", "(q^1000 + q^-1000)^100")
    assert (code, err) == (0, "") and out.startswith("q^100000 + 100*q^98000 + ")
    # 1001 terms of at most 1000 bits fit under the cap; 1025 * 1024 does not
    code, out, err = run(capsys, "nf", "catalog:quantum_plane", "(q+1)^1000")
    assert (code, err) == (0, "") and out.startswith("q^1000 + 1000*q^999 + ")
    code, out, err = timed_run(capsys, "nf", "catalog:quantum_plane", "(q+1)^1024")
    assert (code, out) == (1, "") and "about 1.05e+06 bits" in err


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
    ],
)
def test_fractional_products_print_byte_for_byte(capsys, argv, printed):
    assert run(capsys, *argv) == (0, printed + "\n", "")


def test_oracle_work_cap_is_a_one_line_error(capsys, monkeypatch):
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
