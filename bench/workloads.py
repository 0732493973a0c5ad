"""The benchmark's workloads.

A workload draws its inputs from the seed once (``prepare``, untimed), is
set up (``setup``, timed: the program's cold work, or for workloads with
little of it the drawing of the inputs as well), then runs whole rounds:
``round()``
returns the round's operations as (label, thunk) pairs, and every round of a
run repeats the same operations on the same inputs, so the share of failed
operations cannot depend on how long a run lasts.  ``check(k, output)``
judges the output of the k-th operation of a round.  All inputs come from
``rng.Stream`` seeded with the benchmark's ``--seed``.

Engine functions are called through their modules (``algebra.star``, not a
name imported here), so that the tracer's patches see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

from skewpbw import algebra, catalog, cli, presentation, reduction, universal
from skewpbw.algebra import Poly
from skewpbw.catalog import lie_presentation
from skewpbw.jsonio import presentation_to_json
from skewpbw.rng import Stream

import checks
import gen
import timer


class Workload:
    name = ""
    tail_pct = 99.0  # the reported tail percentile; see README
    setup_repeats = 3  # at least; see run.measure
    in_process = True

    def make_timer(self) -> timer.ScaledTimer:
        return timer.ScaledTimer()

    def prepare(self, seed: int) -> None:
        """Draw the inputs from the seed; not timed."""
        self.seed = seed

    def setup(self) -> None:
        """Timed set-up, repeated by the untimed run (``setup_s``)."""
        raise NotImplementedError

    def setup_steps(self):
        """``setup`` as a generator whose every ``yield`` ends a step.  The
        untimed run times the steps apart, each scaled by the probes just
        before and after it, so a set-up of seconds follows the machine's
        speed as it changes.  By default one step."""
        self.setup()
        yield

    def round(self) -> list:
        raise NotImplementedError

    def check(self, k: int, output) -> bool:
        raise NotImplementedError

    def live(self) -> list:
        """Presentations set up outside any round, whose memo tables the
        traced run reports."""
        return []


# ---------------------------------------------------------------------------


class ProductWarm(Workload):
    """Criterion-5 products (degree <= 4, one or two terms) over all eight
    catalog presentations, memo tables filled during set-up.  A share of
    the pairs also gets a third factor for the ring-law checks.  Set-up
    builds fresh presentations and fills their memo tables with the pairs'
    products."""

    name = "product-warm"
    tail_pct = 99.0
    PAIRS = 300  # per presentation
    LAW_SHARE = 8  # one pair in 8 also checks associativity and distributivity
    ORACLE_SHARE = 16  # one pair in 16 is compared with the word-level oracle
    SETUP_STEP = 100  # pairs per timed step of the set-up

    def prepare(self, seed):
        # exponents from a fixed stream, coefficients from the seed: see
        # VerifyCold for why
        stream = Stream(seed).split(self.name)
        shapes = Stream(0).split(self.name)
        items = []
        for name, P in catalog.all_presentations():
            st, sh = stream.split(name), shapes.split(name)
            for _ in range(self.PAIRS):
                f, g, h = (gen.random_poly(P, sh, 4, values=st) for _ in range(3))
                law = gen.below(st, self.LAW_SHARE) == 0
                items.append((name, f, g, h if law else None, gen.below(st, self.ORACLE_SHARE) == 0))
        self.drawn = gen.shuffled(items, shapes)

    def setup(self):
        for _ in self.setup_steps():
            pass

    def setup_steps(self):
        pres = dict(catalog.all_presentations())
        items = []
        for name, f, g, h, oracle in self.drawn:
            if len(items) % self.SETUP_STEP == 0:
                yield
            f, g = _rebase(f, pres[name]), _rebase(g, pres[name])
            algebra.star(f, g)
            items.append((f, g, h, oracle))
        self.pres = list(pres.values())
        self.items = items
        self.ops = [(k, _product(f, g)) for k, (f, g, _, _) in enumerate(items)]

    def round(self):
        return self.ops

    def check(self, k, out):
        f, g, h, oracle = self.items[k]
        if not checks.product_leading_ok(f, g, out):
            return False
        if h is not None and not (
            checks.associative_ok(f, g, h, out) and checks.distributive_ok(f, g, h, out)
        ):
            return False
        return not oracle or checks.oracle_ok(f, g, out)

    def live(self):
        return self.pres


def _product(f, g):
    return lambda: algebra.star(f, g)


# ---------------------------------------------------------------------------


class PowerLadder(Workload):
    """(l x_2)^k * (m x_1)^k built with ** on a fresh presentation (cold
    memo) for a fixed ladder of k.  The seed picks the signs l, m = +-1 and
    the order of the rungs, which leaves the work of a round the same for
    every seed: the ladder is a scaling series.  Set-up builds the entries
    afresh and computes, with the word-level oracle, the reference product
    of each entry's smallest rung."""

    name = "power-ladder"
    tail_pct = 90.0
    LADDER = {
        "weyl1": (2, 4, 8, 16, 32, 48),
        "quantum_plane": (4, 8, 16, 32, 48),
        "u_sl2": (2, 4, 8, 12, 16),
        "diffusion2": (2, 3, 4, 5, 6),
        "quantum_matrices2": (2, 4, 6, 8),
    }
    # c_12 of each entry as a power of q (all are 1 or q)
    C_EXP = {"u_sl2": 0, "diffusion2": 1, "quantum_matrices2": 0}

    def prepare(self, seed):
        stream = Stream(seed).split(self.name)
        rungs = []
        for name, ks in self.LADDER.items():
            st = stream.split(name)
            for k in ks:
                rungs.append((name, k, gen.sign(st), gen.sign(st)))
        self.rungs = gen.shuffled(rungs, stream)
        self.smallest = {name: ks[0] for name, ks in self.LADDER.items()}

    def setup(self):
        self.reference = {}
        for name, e, lam, mu in self.rungs:
            if e == self.smallest[name]:
                P = catalog.get(name)
                x1, x2 = Poly.variable(P, 0), Poly.variable(P, 1)
                self.reference[name] = reduction.star_oracle((lam * x2) ** e, (mu * x1) ** e)

    def round(self):
        return [
            ((name, k), _ladder_op(catalog.get(name), k, lam, mu))
            for name, k, lam, mu in self.rungs
        ]

    def check(self, k, out):
        name, e, lam, mu = self.rungs[k]
        scale = lam**e * mu**e
        if name == "weyl1":
            return checks.weyl_ok(out, e, e, scale)
        if name == "quantum_plane":
            return checks.quantum_plane_ok(out, e, e, scale)
        lead = checks.q_power_value(out.pres.ring, self.C_EXP[name] * e * e, scale)
        if not checks.pbw_leading_ok(out, 0, 1, e, e, lead):
            return False
        return e != self.smallest[name] or self.reference[name] == out


def _ladder_op(P, k, lam, mu):
    x1, x2 = Poly.variable(P, 0), Poly.variable(P, 1)
    return lambda: algebra.star((lam * x2) ** k, (mu * x1) ** k)


# ---------------------------------------------------------------------------


class VerifyCold(Workload):
    """Verification work on fresh presentations each round: product against
    oracle, straightening with descent checks, existence checks on the
    catalog and on non-Jacobi Lie tables, homomorphism seeds.

    The cost of straightening a word or of an oracle product is set by its
    shape (where the variables sit, the exponents, which letters repeat, so
    that the memo table is shared) and is heavy-tailed: a handful of inputs
    take half a round.  So the shapes are drawn from a fixed stream, the same
    for every seed, and the seed draws the values: the coefficients of the
    products, the random elements of each scalar pool, the Lie tables and
    the homomorphism pairs.  With shapes from the seed, the work of a round
    moved by a fifth from one seed to the next."""

    name = "verify-cold"
    tail_pct = 99.0
    ORACLE_PAIRS = 6  # per catalog entry
    WORDS = 40  # per catalog entry
    LIE_TABLES = 3
    HOM_PAIRS = 2  # u_heisenberg -> weyl1
    CHECK_SAMPLES = 16
    # check_all on quantum_matrices2 is the round's p99 operation, and its
    # cost follows the sampled coefficients: the sampling seed stays fixed
    CHECK_SEED = 0

    def setup(self):
        stream = Stream(self.seed).split(self.name)
        shapes = Stream(0).split(self.name)
        specs = []  # (kind, presentation key, payload)
        for name, P in catalog.all_presentations():
            st, sh = stream.split(name), shapes.split(name)
            for _ in range(self.ORACLE_PAIRS):
                pair = tuple(gen.random_poly(P, sh, 4, values=st) for _ in range(2))
                specs.append(("oracle", name, pair))
            pool = gen.scalar_pool(P, st)
            for _ in range(self.WORDS):
                specs.append(("reduce", name, gen.random_word(P, sh, 8, pool)))
            specs.append(("check", name, ()))
            specs.append(("hom-id", name, (gen.random_poly(P, st, 2), gen.random_poly(P, st, 2))))
        st = stream.split("lie")
        self.lie = []
        while len(self.lie) < self.LIE_TABLES:
            sc, bad = gen.non_jacobi_lie(st)
            specs.append(("lie", f"lie{len(self.lie)}", bad))
            self.lie.append(sc)
        st = stream.split("heisenberg")
        src = catalog.get("u_heisenberg")
        for _ in range(self.HOM_PAIRS):
            specs.append(("hom-weyl", "u_heisenberg", (gen.random_poly(src, st, 3), gen.random_poly(src, st, 3))))
        self.specs = gen.shuffled(specs, shapes)

    def round(self):
        fresh = {name: P for name, P in catalog.all_presentations()}
        for idx, sc in enumerate(self.lie):
            fresh[f"lie{idx}"] = lie_presentation(sc)
        target = catalog.get("weyl1")
        heis = fresh["u_heisenberg"]
        to_weyl = universal.HomSpec(
            heis,
            target,
            {},
            (Poly.variable(target, 1), Poly.variable(target, 0), Poly.one(target)),
        )
        ops = []
        for kind, key, payload in self.specs:
            P = fresh[key]
            if kind == "oracle":
                op = _oracle_op(*(_rebase(f, P) for f in payload))
            elif kind == "reduce":
                op = _reduce_op(payload, P)
            elif kind in ("check", "lie"):
                op = _check_op(P, 4 if kind == "lie" else self.CHECK_SAMPLES, self.CHECK_SEED)
            elif kind == "hom-id":
                op = _hom_op(universal.identity_spec(P), *(_rebase(f, P) for f in payload))
            else:
                op = _hom_op(to_weyl, *(_rebase(f, heis) for f in payload))
            ops.append(((kind, key), op))
        return ops

    def check(self, k, out):
        kind, _, payload = self.specs[k]
        if kind == "oracle":
            fast, oracle = out
            return fast == oracle
        if kind == "reduce":
            return checks.standard_reduction_ok(payload, out)
        if kind == "check":
            return out[0] and not out[1]
        if kind == "lie":
            return not out[0] and set(out[1]) == set(payload)
        return checks.hom_ok(out)


def _rebase(f, P):
    """The same polynomial over another instance of its presentation, so a
    round's operations only ever touch that round's fresh memo tables."""
    return Poly(P, f.terms)


def _oracle_op(f, g):
    return lambda: (algebra.star(f, g), reduction.star_oracle(f, g))


def _reduce_op(w, P):
    return lambda: reduction.reduce_p(w, P, check_descent=True)


def _check_op(P, samples, seed):
    def op():
        report = presentation.check_all(P, samples=samples, seed=seed)
        flagged = tuple((it.i, it.j, it.k) for it in report.condition3 if not it.ok)
        return report.overall, flagged, len(report.condition2), len(report.condition3)

    return op


def _hom_op(spec, f, g):
    def op():
        report = universal.check_hom_conditions(spec, samples=4)
        ext = universal.extend_hom
        return (report.ok, ext(spec, f), ext(spec, g), ext(spec, f + g), ext(spec, f * g))

    return op


# ---------------------------------------------------------------------------


class CliCold(Workload):
    """A fixed script of CLI commands, one fresh interpreter per command, over
    catalog tokens and JSON files written during set-up."""

    name = "cli-cold"
    tail_pct = 75.0
    setup_repeats = 9
    in_process = False

    def __init__(self, workdir: Path, root: Path, env: dict):
        self.workdir = workdir
        self.root = root
        self.env = env

    def setup(self):
        stream = Stream(self.seed).split(self.name)
        a = gen.between(stream, 3, 6)
        b = gen.between(stream, 3, 6)
        check_seed = gen.below(stream, 1 << 16)
        sc, bad = gen.non_jacobi_lie(stream)
        d = self.workdir
        d.mkdir(parents=True, exist_ok=True)
        files = {
            "weyl1": presentation_to_json(catalog.get("weyl1")),
            "quantum_plane": presentation_to_json(catalog.get("quantum_plane")),
            "lie_bad": presentation_to_json(lie_presentation(sc)),
            "hom_ok": {"source": "catalog:u_heisenberg", "target": "catalog:weyl1", "phi": {}, "y": ["x2", "x1", "1"]},
            "hom_bad": {"source": "catalog:u_heisenberg", "target": "catalog:weyl1", "phi": {}, "y": ["x1", "x2", "1"]},
        }
        for stem, obj in files.items():
            (d / f"{stem}.json").write_text(json.dumps(obj, indent=2), encoding="utf-8")
        p = {stem: str(d / f"{stem}.json") for stem in files}
        weyl = lambda out: checks.weyl_text_ok(out, a, b)
        self.script = [
            (["nf", "catalog:weyl1", f"x2^{a}*x1^{b}"], 0, weyl),
            (["nf", p["weyl1"], f"x2^{a}*x1^{b}"], 0, weyl),
            (["mul", "catalog:weyl1", f"x2^{a}", f"x1^{b}", "--verify"], 0, weyl),
            (["mul", "catalog:quantum_plane", f"x2^{a}", f"x1^{b}", "--verify"], 0,
             lambda out: checks.quantum_plane_text_ok(out, a, b)),
            (["mul", p["quantum_plane"], f"x2^{a}", f"x1^{b}", "--verify"], 0,
             lambda out: checks.quantum_plane_text_ok(out, a, b)),
            (["check", "catalog:u_sl2", "--samples", "16", "--seed", str(check_seed)], 0,
             lambda out: checks.check_text_ok(out, ())),
            (["check", p["lie_bad"], "--samples", "4", "--seed", str(check_seed)], 2,
             lambda out: checks.check_text_ok(out, bad)),
            (["hom", p["hom_ok"], f"x1^{a}*x2^{b}"], 0, weyl),
            (["hom", p["hom_bad"], "--check-only"], 2,
             lambda out: out.strip().endswith("overall: FAIL")),
            (["catalog", "show", "weyl", "--params", "2"], 0, _weyl2_json_ok),
            (["nf", "catalog:weyl1", f"x2^{a}*+x1"], 1, lambda out: out == ""),
            (["mul", "catalog:weyl1", "x1"], 1, lambda out: out == ""),
        ]
        # one command per set-up: bytecode caches are written here, not
        # during the first timed command
        self.spawn(["catalog", "list"])

    def make_timer(self):
        return timer.ScaledTimer(
            children=True,
            probe=lambda: timer.interpreter_probe_ms(self.env, self.root),
            ref_ms=timer.INTERPRETER_REF_MS,
            every_s=timer.INTERPRETER_EVERY_S,
        )

    def spawn(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "skewpbw.cli", *argv],
            cwd=self.root,
            env=self.env,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=60,
        )
        return proc.returncode, proc.stdout

    def round(self):
        return [(tuple(argv), _cli_op(self, argv)) for argv, _, _ in self.script]

    def in_process_round(self):
        """The same script through ``cli.main`` in this process."""
        return [(tuple(argv), _main_op(argv)) for argv, _, _ in self.script]

    def check(self, k, out):
        _, code, ok = self.script[k]
        return out[0] == code and ok(out[1])


def _weyl2_json_ok(out: str) -> bool:
    try:
        obj = json.loads(out)
    except ValueError:
        return False
    pairs = {(r["i"], r["j"]): r["d"] for r in obj.get("relations", [])}
    want = {(i, j): "1" if (i, j) in ((1, 3), (2, 4)) else "0" for i in range(1, 5) for j in range(i + 1, 5)}
    return obj.get("vars") == ["t1", "t2", "d1", "d2"] and pairs == want


def _cli_op(wl, argv):
    return lambda: wl.spawn(argv)


def _main_op(argv):
    def op():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue()

    return op


def make(name: str, workdir: Path, root: Path, env: dict) -> Workload:
    """The named workload; cli-cold writes its files under ``workdir`` and
    starts its interpreters in ``root`` with ``env``."""
    if name == "cli-cold":
        return CliCold(workdir, root, env)
    return {"product-warm": ProductWarm, "power-ladder": PowerLadder, "verify-cold": VerifyCold}[name]()


NAMES = ("product-warm", "power-ladder", "verify-cold", "cli-cold")
