"""The benchmark's own tests: every output check accepts the engine's result
and rejects a deliberately wrong one, failed operations are counted, and the
tracer records spans and restores what it patched.

    python3 -m pytest bench
"""

from fractions import Fraction

import pytest

import checks
import run
import workloads
from skewpbw import algebra, catalog
from skewpbw.algebra import Poly, star
from skewpbw.reduction import reduce_p
from skewpbw.words import FreeElem, Scalar, Var
from timer import Failed, ScaledTimer
from tracer import Tracer


def _xs(name):
    P = catalog.get(name)
    return P, Poly.variable(P, 0), Poly.variable(P, 1)


def _bump(f, alpha, by=1):
    """f with the coefficient at alpha changed."""
    return f + Poly.monomial(f.pres, alpha, f.pres.ring.from_int(by))


# -- closed forms ------------------------------------------------------------


def test_weyl_closed_form():
    _, x1, x2 = _xs("weyl1")
    out = star(x2**4, x1**3)
    assert checks.weyl_ok(out, 4, 3)
    assert not checks.weyl_ok(_bump(out, (0, 1)), 4, 3)
    assert not checks.weyl_ok(out, 3, 4)
    assert not checks.weyl_ok(out, 4, 3, Fraction(2))


def test_quantum_plane_closed_form():
    _, x1, x2 = _xs("quantum_plane")
    out = star(x2**3, x1**5)
    assert checks.quantum_plane_ok(out, 3, 5)
    assert not checks.quantum_plane_ok(out, 5, 3)
    assert not checks.quantum_plane_ok(_bump(out, (0, 0)), 3, 5)


@pytest.mark.parametrize("name,c_exp", [("diffusion2", 1), ("quantum_matrices2", 0), ("u_sl2", 0)])
def test_pbw_leading_term(name, c_exp):
    P, x1, x2 = _xs(name)
    out = star(x2**3, x1**3)
    lead = checks.q_power_value(P.ring, c_exp * 9, Fraction(1))
    assert checks.pbw_leading_ok(out, 0, 1, 3, 3, lead)
    wrong_lead = checks.q_power_value(P.ring, c_exp * 9 + 1, Fraction(1))
    assert not checks.pbw_leading_ok(out, 0, 1, 3, 3, wrong_lead)
    high_tail = [0] * P.n
    high_tail[1] = 6
    assert not checks.pbw_leading_ok(_bump(out, tuple(high_tail)), 0, 1, 3, 3, lead)


# -- product properties ------------------------------------------------------


@pytest.mark.parametrize("name", ["u_so3", "diffusion2", "quantum_matrices2"])
def test_product_checks_reject_wrong_products(name):
    P = catalog.get(name)
    f = Poly.variable(P, 1) ** 2 + Poly.variable(P, 0)
    g = Poly.variable(P, 0) ** 2
    h = Poly.variable(P, 1)
    fg = star(f, g)
    assert checks.product_leading_ok(f, g, fg)
    assert checks.associative_ok(f, g, h, fg)
    assert checks.distributive_ok(f, g, h, fg)
    assert checks.oracle_ok(f, g, fg)
    wrong = fg + Poly.one(P)
    assert not checks.associative_ok(f, g, h, wrong)
    assert not checks.distributive_ok(f, g, h, wrong)
    assert not checks.oracle_ok(f, g, wrong)
    top = checks.leading_monomial(fg)
    assert not checks.product_leading_ok(f, g, fg - Poly.monomial(P, top, fg.terms[top]))


def test_standard_reduction_check():
    P = catalog.get("u_sl2")
    two = P.ring.from_int(2)
    word = (Var(2), Var(0), Scalar(two), Var(1))
    out = reduce_p(word, P)
    assert checks.standard_reduction_ok(word, out)
    unsorted = FreeElem({(Var(1), Var(0)): 1})
    assert not checks.standard_reduction_ok(word, unsorted)
    scalar_late = FreeElem({(Var(0), Scalar(two)): 1})
    assert not checks.standard_reduction_ok(word, scalar_late)
    too_long = FreeElem({(Var(0), Var(0), Var(1), Var(1)): 1})
    assert not checks.standard_reduction_ok(word, too_long)
    zero_mult = FreeElem()
    zero_mult.terms[(Var(0),)] = 0
    assert not checks.standard_reduction_ok(word, zero_mult)


def test_hom_check():
    P, x1, x2 = _xs("weyl1")
    images = (True, x1, x2, x1 + x2, star(x1, x2))
    assert checks.hom_ok(images)
    assert not checks.hom_ok((False,) + images[1:])
    assert not checks.hom_ok(images[:3] + (x1 - x2, images[4]))
    assert not checks.hom_ok(images[:4] + (star(x2, x1),))


# -- CLI text ----------------------------------------------------------------


def test_cli_text_checks():
    assert checks.weyl_text_ok("x1^2*x2^2 + 4*x1*x2 + 2", 2, 2)
    assert not checks.weyl_text_ok("x1^2*x2^2 + 4*x1*x2 + 3", 2, 2)
    assert not checks.weyl_text_ok("x1^2*x2^2 - 4*x1*x2 + 2", 2, 2)
    assert not checks.weyl_text_ok("", 2, 2)
    assert checks.quantum_plane_text_ok("q^6*x1^2*x2^3", 3, 2)
    assert not checks.quantum_plane_text_ok("q^5*x1^2*x2^3", 3, 2)
    assert not checks.quantum_plane_text_ok("q^6*x1^3*x2^2", 3, 2)
    fail = "condition 3 fails at (i,j,k)=(1,2,3): lhs=x1 rhs=x2\noverall: FAIL"
    assert checks.check_text_ok(fail, [(0, 1, 2)])
    assert not checks.check_text_ok(fail, [(0, 1, 3)])
    assert not checks.check_text_ok(fail, [])
    assert checks.check_text_ok("condition 3: 1 triples, all pass\noverall: PASS", [])
    assert not checks.check_text_ok("overall: PASS", [(0, 1, 2)])


# -- workload checks ---------------------------------------------------------


def _first_round(wl):
    ops = wl.round()
    return ops, run.run_ops(ops)


def test_product_warm_checks():
    wl = workloads.ProductWarm()
    wl.PAIRS = 32
    wl.prepare(3)
    wl.setup()
    ops, outs = _first_round(wl)
    assert all(wl.check(k, out) for k, out in enumerate(outs))
    laws = [k for k, (_, _, h, _) in enumerate(wl.items) if h is not None]
    oracle = [k for k, (_, _, _, o) in enumerate(wl.items) if o]
    assert laws and oracle
    for k in laws[:3] + oracle[:3]:
        wrong = outs[k] + Poly.one(outs[k].pres)
        assert not wl.check(k, wrong), wl.items[k]
    # every pair: the leading monomial of the product
    for k, out in enumerate(outs[:10]):
        if out.terms:
            top = checks.leading_monomial(out)
            assert not wl.check(k, out - Poly.monomial(out.pres, top, out.terms[top]))


def test_power_ladder_checks():
    wl = workloads.PowerLadder()
    wl.LADDER = {"weyl1": (2, 3), "quantum_plane": (2, 3), "u_sl2": (2, 3), "diffusion2": (2, 3), "quantum_matrices2": (2, 3)}
    wl.prepare(5)
    wl.setup()
    ops, outs = _first_round(wl)
    assert all(wl.check(k, out) for k, out in enumerate(outs))
    for k, out in enumerate(outs):
        name, e, _, _ = wl.rungs[k]
        top = checks.leading_monomial(out)
        assert not wl.check(k, out + Poly.monomial(out.pres, top, out.pres.ring.one())), (name, e)
        beside = tuple(sum(top) if i == 0 else 0 for i in range(out.pres.n))
        assert not wl.check(k, _bump(out, beside)), (name, e)
        # a wrong lower term shows in the closed forms, and on the other
        # entries in the oracle comparison of the smallest rung
        if name in ("weyl1", "quantum_plane") or e == wl.smallest[name]:
            low = tuple(1 if i == 0 else 0 for i in range(out.pres.n))
            assert not wl.check(k, _bump(out, low, 7)), (name, e)


def test_verify_cold_checks():
    wl = workloads.VerifyCold()
    wl.ORACLE_PAIRS, wl.WORDS, wl.LIE_TABLES, wl.HOM_PAIRS = 1, 2, 1, 1
    wl.prepare(9)
    wl.setup()
    ops, outs = _first_round(wl)
    assert all(wl.check(k, out) for k, out in enumerate(outs))
    for k, (kind, _, _) in enumerate(wl.specs):
        out = outs[k]
        if kind == "oracle":
            wrong = (out[0], out[1] + Poly.one(out[1].pres))
        elif kind == "reduce":
            wrong = FreeElem({(Var(1), Var(0)): 1})
        elif kind == "check":
            wrong = (False,) + out[1:]
        elif kind == "lie":
            wrong = (out[0], out[1][1:]) + out[2:]
        else:
            wrong = out[:4] + (out[4] + Poly.one(out[4].pres),)
        assert not wl.check(k, wrong), kind


def test_cli_cold_checks(tmp_path):
    wl = workloads.CliCold(tmp_path, run.ROOT, run.child_env())
    wl.prepare(4)
    wl.setup()
    outs = run.run_ops(wl.in_process_round())
    assert all(wl.check(k, out) for k, out in enumerate(outs))
    for k, (code, stdout) in enumerate(outs):
        assert not wl.check(k, (code + 1, stdout))
        assert not wl.check(k, (code, stdout + "1\n"))


# -- accounting and tracing --------------------------------------------------


class _Stub:
    def __init__(self, good):
        self.good = good

    def check(self, k, out):
        return out == self.good[k]


def test_ledger_counts_failures():
    ops = [("a", None), ("b", None), ("c", None)]
    ledger = run.Ledger()
    ledger.add(ops, [1, 2, Failed(ValueError("boom"))])
    ledger.add(ops, [1, 5, Failed(ValueError("boom"))])
    ledger.add(ops, [1, 2, Failed(ValueError("boom"))])
    # b differs from round one once (a wrong output); c raised in every round
    assert ledger.settle(_Stub([1, 2, 3])) == (9, 1 + 3, 1)
    # a's first output is wrong: a fails in all three rounds
    assert ledger.settle(_Stub([0, 2, 3])) == (9, 3 + 1 + 3, 3 + 1)


def _result(good, rounds):
    ops = [(label, None) for label in "abc"[: len(rounds[0])]]
    ledger = run.Ledger()
    for outs in rounds:
        ledger.add(ops, outs)
    return run.summary(*ledger.settle(_Stub(good)), {"x": (1.0, "ms")})


def test_wrong_output_makes_result_incorrect():
    ok = _result([1, 2], [[1, 2], [1, 2]])
    assert ok["correct"] and (ok["attempted"], ok["failed"]) == (4, 0)
    assert ok["metrics"] == {"x": {"value": 1.0, "unit": "ms"}}
    # an output that fails its check
    wrong = _result([1, 2], [[1, 7], [1, 7]])
    assert not wrong["correct"] and wrong["failed"] == 2
    # an output that changes between rounds
    drift = _result([1, 2], [[1, 2], [1, 9]])
    assert not drift["correct"] and drift["failed"] == 1


def test_raising_operation_is_failed_not_wrong():
    raised = Failed(ValueError("boom"))
    some = _result([1, 2], [[1, raised], [1, raised]])
    assert some["correct"] and some["failed"] == 2
    # with every operation raising, nothing was checked
    every = _result([1, 2], [[raised, raised], [raised, raised]])
    assert not every["correct"] and every["failed"] == every["attempted"] == 4


class _Steps(workloads.Workload):
    name = "steps"

    def setup_steps(self):
        self.done = 0
        for _ in range(3):
            yield
            self.done += 1


def test_setup_is_timed_in_steps():
    wl = _Steps()
    timer = ScaledTimer()
    steps = [run._set_up(wl, timer) for _ in range(2)]
    # three yields end three steps; the work after the last is a fourth
    assert steps == [4, 4] and wl.done == 3
    timer.finish()
    per_setup = run._per_setup(timer.wall, steps)
    assert per_setup == [sum(timer.wall[:4]), sum(timer.wall[4:])]


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 99) == 99
    assert run.percentile(values, 75) == 75
    assert run.percentile([5.0], 99) == 5.0


def test_scaled_timer_keeps_order_and_failures():
    timer = ScaledTimer()
    assert timer.call(lambda: 3) == 3
    assert isinstance(timer.call(lambda: 1 / 0), Failed)
    timer.finish()
    assert len(timer.wall) == len(timer.raw_wall) == 2
    assert all(w > 0 for w in timer.wall)


def test_tracer_spans_and_restore():
    original = algebra.star
    _, x1, x2 = _xs("weyl1")
    tracer = Tracer()
    tracer.install()
    try:
        assert algebra.star is not original
        out = x2**3 * x1**2
    finally:
        tracer.uninstall()
    assert algebra.star is original
    assert out == star(x2**3, x1**2)
    assert tracer.calls_of("algebra.pow") == 2
    assert tracer.calls_of("algebra.star") >= 3
    assert tracer.counts["rings.coeff_mul"] > 0
    assert 0 < tracer.self_ms("algebra.star") <= tracer.incl_ms("algebra.star") + 1e-9
    ids = {s[0] for s in tracer.spans}
    assert all(parent == 0 or parent in ids for _, parent, _, _, _ in tracer.spans)
    pow_idx = tracer.names.index("algebra.pow")
    star_idx = tracer.names.index("algebra.star")
    pow_ids = {s[0] for s in tracer.spans if s[2] == pow_idx}
    assert any(s[1] in pow_ids for s in tracer.spans if s[2] == star_idx)
