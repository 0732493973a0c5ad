"""Acceptance gate: one test per criterion, one printed verdict line each.

Everything here is exact: all comparisons are canonical-form equality with
zero tolerance.  Run with `pytest tests/test_acceptance.py -s` to see the
per-criterion lines; the reduction-soundness criterion also enforces its
runtime budget.
"""

import json
import time

from skewpbw import catalog, cli
from skewpbw.algebra import Poly, sigma_pow, star
from skewpbw.catalog import StructureConstants, jacobiator, lie_presentation
from skewpbw.jsonio import presentation_to_json
from skewpbw.presentation import check_all, check_condition3
from skewpbw.reduction import normalize_h, reduce_p, star_oracle
from skewpbw.rings import QQ
from skewpbw.rng import Stream
from skewpbw.universal import (
    HomSpec,
    check_hom_conditions,
    extend_hom,
    identity_spec,
    verify_mutual_inverse,
)
from skewpbw.words import FreeElem, Scalar, is_standard

from .genutil import random_nonzero, random_poly, random_standard_word, random_word, scalar_pool


def _verdict(num, name, extra=""):
    print(f"ACCEPTANCE {num} ({name}): PASS {extra}".rstrip())


def test_criterion_1_reduction_soundness():
    t0 = time.time()
    for name, P in catalog.all_presentations():  # fresh instances, cold caches
        stream = Stream(1001).split(name)
        pool = scalar_pool(P, stream)
        for _ in range(1000):
            w = random_word(P, stream, 8, pool)
            out = reduce_p(w, P, check_descent=True)
            for word, mult in out:
                assert is_standard(word)
                assert mult != 0
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"reduction soundness took {elapsed:.1f}s"
    _verdict(1, "reduction soundness", f"[{elapsed:.1f}s]")


def test_criterion_2_normalization_identities():
    t0 = time.time()
    entries = catalog.all_presentations()
    per = 64  # x8 catalog entries = 512 instances per identity family

    for name, P in entries:  # scalar-letter identities (five at once)
        ring = P.ring
        stream = Stream(2001).split(name)
        pool = scalar_pool(P, stream)
        for _ in range(per):
            a = random_word(P, stream, 3, pool)
            b = random_word(P, stream, 3, pool)
            r = stream.choice(pool)
            s = stream.choice(pool)
            h_mid = lambda letters: normalize_h(FreeElem.from_word(a + letters + b), P)
            assert h_mid((Scalar(ring.zero()),)).is_zero()
            assert h_mid((Scalar(-r),)) == -h_mid((Scalar(r),))
            assert h_mid((Scalar(r + s),)) == h_mid((Scalar(r),)) + h_mid((Scalar(s),))
            assert h_mid((Scalar(ring.one()),)) == normalize_h(FreeElem.from_word(a + b), P)
            assert h_mid((Scalar(r * s),)) == h_mid((Scalar(r), Scalar(s)))

    from skewpbw.reduction import collapse_q, section_t

    for name, P in entries:  # section-of-collapse invariance
        stream = Stream(2002).split(name)
        pool = scalar_pool(P, stream)
        for _ in range(per):
            y = FreeElem.from_word(random_word(P, stream, 3, pool))
            z = FreeElem.from_word(random_word(P, stream, 3, pool))
            a = FreeElem.from_word(random_standard_word(P, stream, 3, pool))
            a = a + FreeElem.from_word(random_standard_word(P, stream, 3, pool), -1)
            assert normalize_h(y.concat(a).concat(z), P) == normalize_h(
                y.concat(section_t(collapse_q(a, P))).concat(z), P
            )

    for name, P in entries:  # straightening invariance inside h
        stream = Stream(2003).split(name)
        pool = scalar_pool(P, stream)
        for _ in range(per):
            x = FreeElem.from_word(random_word(P, stream, 3, pool))
            y = random_word(P, stream, 4, pool)
            z = FreeElem.from_word(random_word(P, stream, 3, pool))
            lhs = normalize_h(x.concat(reduce_p(y, P)).concat(z), P)
            rhs = normalize_h(x.concat(FreeElem.from_word(y)).concat(z), P)
            assert lhs == rhs

    for name, P in entries:  # multiplicativity of the normalization
        stream = Stream(2004).split(name)
        pool = scalar_pool(P, stream)
        for _ in range(per):
            a = random_word(P, stream, 4, pool)
            b = random_word(P, stream, 4, pool)
            ha = normalize_h(FreeElem.from_word(a), P)
            hb = normalize_h(FreeElem.from_word(b), P)
            assert normalize_h(FreeElem.from_word(a + b), P) == star(ha, hb)

    _verdict(2, "normalization identities", f"[{time.time()-t0:.1f}s, {per * len(entries)} each]")


def test_criterion_3_ring_laws():
    t0 = time.time()
    for name, P in catalog.all_presentations():
        stream = Stream(3001).split(name)
        one = Poly.one(P)
        for _ in range(200):
            f = random_poly(P, stream, 3)
            g = random_poly(P, stream, 3)
            h = random_poly(P, stream, 3)
            assert star(star(f, g), h) == star(f, star(g, h))
            assert star(f + g, h) == star(f, h) + star(g, h)
            assert star(f, g + h) == star(f, g) + star(f, h)
            assert star(one, f) == f and star(f, one) == f
    _verdict(3, "ring laws", f"[{time.time()-t0:.1f}s]")


def test_criterion_4_leading_term_contracts():
    t0 = time.time()
    from skewpbw.algebra import decompose_var_coeff, monomial_product

    for name, P in catalog.all_presentations():
        stream = Stream(4001).split(name)
        for _ in range(200):
            alpha = tuple(stream.below(3) for _ in range(P.n))
            r = random_nonzero(P.ring, stream, 1)
            r_alpha, tail = decompose_var_coeff(alpha, r, P)
            # independent composition of the per-variable twists
            expected = r
            for i in range(P.n - 1, -1, -1):
                for _ in range(alpha[i]):
                    expected = P.sigma[i].apply(expected)
            assert r_alpha == expected
            assert r_alpha == sigma_pow(alpha, r, P)
            assert tail.is_zero() or tail.deg() < sum(alpha)
            if r.is_unit():
                assert r_alpha.is_unit()

            beta = tuple(stream.below(3) for _ in range(P.n))
            c, tail2 = monomial_product(alpha, beta, P)
            assert c.is_unit()
            assert tail2.is_zero() or tail2.deg() < sum(alpha) + sum(beta)
    _verdict(4, "leading-term contracts", f"[{time.time()-t0:.1f}s]")


def test_criterion_5_oracle_equivalence():
    t0 = time.time()
    for name, P in catalog.all_presentations():
        stream = Stream(5001).split(name)
        for _ in range(300):
            f = random_poly(P, stream, 4)
            g = random_poly(P, stream, 4)
            assert star(f, g) == star_oracle(f, g)
    _verdict(5, "product oracle equivalence", f"[{time.time()-t0:.1f}s]")


def test_criterion_6_bracket_consistency_equivalence():
    t0 = time.time()
    named = {
        "sl2": {(0, 1): [0, 0, -1], (0, 2): [2, 0, 0], (1, 2): [0, -2, 0]},
        "heisenberg": {(0, 1): [0, 0, -1]},
        "so3": {(0, 1): [0, 0, -1], (0, 2): [0, 1, 0], (1, 2): [-1, 0, 0]},
    }
    for label, table in named.items():
        sc = StructureConstants.build(QQ, 3, table)
        assert all(not x for x in jacobiator(sc, 0, 1, 2)), label
        assert check_condition3(lie_presentation(sc), 0, 1, 2).ok, label

    # seeded perturbations: need at least five genuinely non-Jacobi tables
    found = 0
    seed = 0
    while found < 5 and seed < 200:
        stream = Stream(6001 + seed)
        n = 3 + stream.below(2)  # dimension 3 or 4
        table = {}
        for i in range(n):
            for j in range(i + 1, n):
                table[(i, j)] = [stream.int_between(-2, 2) for _ in range(n)]
        sc = StructureConstants.build(QQ, n, table)
        triples = [
            (i, j, k)
            for i in range(n)
            for j in range(i + 1, n)
            for k in range(j + 1, n)
        ]
        bad = [t for t in triples if any(jacobiator(sc, *t))]
        if not bad:
            seed += 1
            continue
        P = lie_presentation(sc)
        for t in triples:
            expected = not any(jacobiator(sc, *t))
            assert check_condition3(P, *t).ok == expected, (seed, t)
        report = check_all(P, samples=4, seed=1)
        assert not report.overall
        flagged = [(it.i, it.j, it.k) for it in report.condition3 if not it.ok]
        assert set(flagged) == set(bad), (seed, flagged, bad)
        found += 1
        seed += 1
    assert found >= 5
    _verdict(6, "bracket/overlap equivalence", f"[{time.time()-t0:.1f}s, {found} perturbations]")


def test_criterion_7_closed_form_identities():
    t0 = time.time()
    W = catalog.get("weyl", 1)
    x1 = Poly.variable(W, 0)
    x2 = Poly.variable(W, 1)
    for m in range(1, 7):
        lhs = star(x2**m, x1)
        expected = Poly(
            W,
            {
                (1, m): W.ring.one(),
                (0, m - 1): W.ring.from_int(m),
            },
        )
        assert lhs == expected
        assert star_oracle(x2**m, x1) == expected

    QP = catalog.get("quantum_plane")
    q = QP.ring.generator("q")
    y1 = Poly.variable(QP, 0)
    y2 = Poly.variable(QP, 1)
    for a in range(1, 5):
        for b in range(1, 5):
            lhs = star(y2**a, y1**b)
            expected = Poly(QP, {(b, a): q ** (a * b)})
            assert lhs == expected
            assert star_oracle(y2**a, y1**b) == expected
    _verdict(7, "closed-form identities")


def test_criterion_8_universal_property():
    t0 = time.time()
    H = catalog.get("u_heisenberg")
    W = catalog.get("weyl", 1)
    spec = HomSpec(H, W, {}, (Poly.variable(W, 1), Poly.variable(W, 0), Poly.one(W)))
    assert check_hom_conditions(spec, samples=16).ok

    stream = Stream(8001)
    for _ in range(200):
        f = random_poly(H, stream, 3)
        g = random_poly(H, stream, 3)
        assert extend_hom(spec, f + g) == extend_hom(spec, f) + extend_hom(spec, g)
        assert extend_hom(spec, star(f, g)) == star(extend_hom(spec, f), extend_hom(spec, g))

    for name, P in catalog.all_presentations():
        ident = identity_spec(P)
        assert check_hom_conditions(ident, samples=4).ok
        assert verify_mutual_inverse(ident, ident), name
    _verdict(8, "universal property", f"[{time.time()-t0:.1f}s]")


def test_criterion_9_cli_contract(capsys, tmp_path):
    def run(*argv):
        code = cli.main(list(argv))
        cap = capsys.readouterr()
        return code, cap.out, cap.err

    # documented exit codes
    code, out, _ = run("nf", "catalog:weyl1", "x2*x1")
    assert code == 0 and out.strip() == "x1*x2 + 1"
    code, _, err = run("nf", "catalog:weyl1", "x1 x2")
    assert code == 1 and "col" in err
    code, _, err = run("badcommand")
    assert code == 1

    sc = StructureConstants.build(
        QQ, 3, {(0, 1): [0, 0, -1], (0, 2): [-1, 0, 0], (1, 2): [0, -1, 0]}
    )
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(presentation_to_json(lie_presentation(sc))))
    code, out, _ = run("check", str(broken), "--samples", "4")
    assert code == 2
    assert "(1,2,3)" in out  # witness names the failing triple

    code, out, _ = run("mul", "catalog:quantum_plane", "x2^3", "x1^2", "--verify")
    assert code == 0 and out.strip() == "q^6*x1^2*x2^3"

    # every check is exact, so repeated runs print the same report bit for bit
    runs = [run("check", "catalog:quantum_matrices2", "--seed", "17", "--json") for _ in range(2)]
    assert runs[0] == runs[1]

    # parse/print round trips through the CLI surface
    for name, P in catalog.all_presentations():
        stream = Stream(9001).split(name)
        token = "catalog:" + name
        for _ in range(10):
            f = random_poly(P, stream, 3)
            code, out, _ = run("nf", token, str(f))
            assert code == 0
            assert out.strip() == str(f)
    _verdict(9, "command-line contract")
