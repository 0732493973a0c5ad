"""Benchmark of skewpbw, one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from ``src/`` beside this directory.  Each workload
is a closed loop: one caller, one thread, each operation sent after the
previous one returned.  The run repeats whole rounds of the workload's
operations until ``--seconds`` have passed, then checks the first round's
outputs and compares every later round's outputs with them.  The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones, from rounds run with the tracer installed, alternating
with untraced rounds that give the tracing overhead.  Times are scaled to a
reference interpreter speed (timer.py).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from timer import Failed, ScaledTimer, interpreter_probe_ms

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
FLOOR_SAMPLES = 5
SETUP_MIN_S = 1.0  # cheap set-ups are repeated until they add up to this


def _load_program():
    """Import skewpbw from this checkout's sources, and nowhere else."""
    src = ROOT / "src"
    if not (src / "skewpbw" / "__init__.py").is_file():
        sys.exit(f"bench: no skewpbw sources under {src}")
    sys.path.insert(0, str(src))
    import skewpbw

    if Path(skewpbw.__file__).resolve().parent != (src / "skewpbw").resolve():
        sys.exit(f"bench: skewpbw was imported from {skewpbw.__file__}, not {src}")


class Ledger:
    """Outputs of the first round, and per-operation counts of later rounds
    whose output differed from it."""

    def __init__(self):
        self.first = None
        self.labels = None
        self.rounds = 0
        self.mismatch = None

    def add(self, ops, outs):
        if self.first is None:
            self.first = outs
            self.labels = [label for label, _ in ops]
            self.mismatch = [0] * len(outs)
        else:
            if len(outs) != len(self.first):
                raise RuntimeError("rounds of one run differ in length")
            for k, out in enumerate(outs):
                if out != self.first[k]:
                    self.mismatch[k] += 1
        self.rounds += 1

    def settle(self, wl):
        """(attempted, failed, wrong).  An operation fails in a round when it
        raised, or when its output there is wrong: the first output fails its
        check (so every round's does), or a later output differs from the
        first.  ``wrong`` counts the failures of the second kind."""
        failed = wrong = 0
        for k, out in enumerate(self.first):
            ok = False
            if isinstance(out, Failed):
                print(f"op {self.labels[k]} raised {out.text}", file=sys.stderr)
            else:
                try:
                    ok = wl.check(k, out)
                except Exception as exc:  # a check that cannot run is a failed op
                    print(f"check of {self.labels[k]} raised {exc!r}", file=sys.stderr)
                if not ok:
                    print(f"op {self.labels[k]}: output failed its check", file=sys.stderr)
            if isinstance(out, Failed):
                failed += self.rounds
            else:
                bad = self.rounds if not ok else self.mismatch[k]
                failed += bad
                wrong += bad
        return self.rounds * len(self.first), failed, wrong


def summary(attempted, failed, wrong, metrics):
    """The result line.  ``correct`` is false when any output was wrong, or
    when every operation raised, so that no output was checked at all; an
    operation that raised is counted in ``failed`` only."""
    return {
        "correct": wrong == 0 and failed < attempted,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def percentile(values, pct):
    """Nearest-rank percentile."""
    s = sorted(values)
    rank = max(1, -(-len(s) * pct // 100))
    return s[int(rank) - 1]


def run_ops(ops):
    """Outputs of a round's operations, untimed; an exception is returned as
    a Failed output."""
    outs = []
    for _, fn in ops:
        try:
            outs.append(fn())
        except Exception as exc:  # counted as a failed operation
            outs.append(Failed(exc))
    return outs


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(wl, seed, seconds):
    """The untraced run: end-to-end metrics."""
    wl.prepare(seed)
    setup_timer = wl.make_timer()
    setup_timer.every_s = 0  # a probe before every step
    steps = []  # the number of steps of each set-up
    t0 = time.perf_counter()
    while len(steps) < wl.setup_repeats or time.perf_counter() - t0 < SETUP_MIN_S:
        steps.append(_set_up(wl, setup_timer))
    setup_timer.finish()
    children = not wl.in_process
    timer = wl.make_timer()
    ledger = Ledger()
    t0 = time.perf_counter()
    while True:
        ops = wl.round()
        ledger.add(ops, [timer.call(fn) for _, fn in ops])
        if time.perf_counter() - t0 >= seconds:
            break
    wall = time.perf_counter() - t0
    peak_rss = _peak_rss_mb(children)  # before the checks, which build more
    attempted, failed, wrong = ledger.settle(wl)
    timer.finish()
    per_round = len(ledger.first)
    metrics = _e2e(wl, timer, per_round, _per_setup(setup_timer.wall, steps))
    metrics["peak_rss_mb"] = (peak_rss, "MB")
    beyond = per_round - -(-per_round * wl.tail_pct // 100)
    unscaled = _e2e(wl, timer, per_round, _per_setup(setup_timer.raw_wall, steps), raw=True)
    notes = [
        f"{ledger.rounds} rounds in {wall:.1f} s; tail = p{wl.tail_pct:g} of each round, "
        f"{int(beyond * ledger.rounds)} operations beyond it in all; {len(steps)} set-ups",
        "unscaled: " + ", ".join(f"{k} {v:.4g}" for k, (v, _) in unscaled.items()),
        f"probe: median {statistics.median(timer.probes):.3f} ms over {len(timer.probes)} probes",
    ]
    if wl.name == "power-ladder":
        notes += _ladder_series(ledger.labels, timer.wall)
    return attempted, failed, wrong, metrics, notes


_DONE = object()


def _set_up(wl, timer):
    """One set-up, each of its steps timed apart; the number of steps."""
    steps = wl.setup_steps()
    n = 0
    while True:
        out = timer.call(lambda: next(steps, _DONE))
        n += 1
        if isinstance(out, Failed):
            sys.exit(f"bench: set-up of {wl.name} failed: {out.text}")
        if out is _DONE:
            return n


def _per_setup(times, steps):
    """The time of each set-up: the sum of its steps' times."""
    out, start = [], 0
    for n in steps:
        out.append(sum(times[start : start + n]))
        start += n
    return out


def _e2e(wl, timer, per_round, setup, raw=False):
    """The timed end-to-end metrics of a finished timer, and the set-up
    times.  The tail is the median over rounds of each round's tail
    percentile: the heaviest operations of a round are a few inputs that
    recur in every round, and a percentile over the pooled times would
    fall on the edge between two of them, flipping from run to run."""
    lat = timer.raw_wall if raw else timer.wall
    cpu = timer.raw_cpu if raw else timer.cpu
    n = len(lat)
    rounds = [lat[k : k + per_round] for k in range(0, n, per_round)]
    return {
        "ops_per_s": (n / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (statistics.median(percentile(r, wl.tail_pct) for r in rounds) * 1e3, "ms"),
        "cpu_ms_per_op": (sum(cpu) / n * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
    }


def _ladder_series(labels, latencies):
    """Median time of each rung, for the README's scaling series."""
    per = {}
    for k, lat in enumerate(latencies):
        per.setdefault(labels[k % len(labels)], []).append(lat)
    lines = []
    for name in sorted({name for name, _ in per}):
        rungs = sorted((k, statistics.median(v)) for (nm, k), v in per.items() if nm == name)
        lines.append(f"series {name}: " + ", ".join(f"k={k} {t * 1e3:.1f} ms" for k, t in rungs))
    return lines


def cli_floors(wl):
    """Median wall time of a bare interpreter, and the extra time of one that
    imports skewpbw.cli, FLOOR_SAMPLES each, interleaved, scaled by the
    workload's own timer (for cli-cold, the interpreter-start probe)."""
    timer = wl.make_timer()
    for _ in range(FLOOR_SAMPLES):
        for code in ("pass", "import skewpbw.cli"):
            timer.call(lambda code=code: interpreter_probe_ms(wl.env, wl.root, code))
    times = timer.finish().wall
    floor = statistics.median(times[0::2])
    return floor * 1e3, (statistics.median(times[1::2]) - floor) * 1e3


def trace(wl, seed, seconds):
    """The traced run: per-layer metrics.  Untraced and traced rounds
    alternate until the time is up; counts come from the first traced round
    (and must repeat in the others), times are medians over traced rounds."""
    from tracer import Tracer

    wl.prepare(seed)
    wl.setup()
    make_round = wl.round if wl.in_process else wl.in_process_round
    # the interpreter floors only in the workload that starts interpreters
    interp_ms, import_ms = (0.0, 0.0) if wl.in_process else cli_floors(wl)
    timer = ScaledTimer()

    tracer = Tracer()

    def one_round():
        ops = make_round()
        return ops, run_ops(ops)

    ledger = Ledger()
    plain, traced, snaps = [], [], []
    t_start = time.perf_counter()
    while True:
        ops, outs = timer.call(one_round)
        ledger.add(ops, outs)
        plain.append(timer.finish().wall[-1])

        tracer.reset()
        tracer.keep_spans = not snaps
        tracer.install()
        try:
            ops, outs = timer.call(one_round)
        finally:
            tracer.uninstall()
        ledger.add(ops, outs)
        traced.append(timer.finish().wall[-1])
        snaps.append(_snapshot(tracer, wl.live(), timer.wall[-1] / timer.raw_wall[-1]))
        if len(snaps) == 1:
            (OUT / "spans").mkdir(parents=True, exist_ok=True)
            tracer.write_spans(
                OUT / "spans" / f"{wl.name}-seed{seed}.jsonl",
                {"workload": wl.name, "seed": seed, "round": "first traced round"},
            )
            tracer.spans.clear()
        if time.perf_counter() - t_start >= seconds:
            break
    tracer.reset()

    tracemalloc.start()
    try:
        ops = make_round()
        ledger.add(ops, run_ops(ops))
        alloc_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    attempted, failed, wrong = ledger.settle(wl)
    metrics = {}
    for name, (unit, _) in PER_LAYER.items():
        vals = [snap[name] for snap in snaps]
        if unit == "count" and len(set(vals)) != 1:
            print(f"count {name} differs between traced rounds: {vals}", file=sys.stderr)
        metrics[name] = (vals[0] if unit == "count" else statistics.median(vals), unit)
    metrics["cli.interp_ms"] = (interp_ms, "ms")
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["trace.alloc_peak_mb"] = (alloc_peak / 2**20, "MB")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    notes = [f"{len(snaps)} traced and {len(plain)} untraced rounds; spans in {OUT / 'spans'}"]
    return attempted, failed, wrong, metrics, notes


def child_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


# per-layer metric -> (unit, how it is read from the tracer after one round)
PER_LAYER = {
    "rings.coeff_mul_calls": ("count", lambda t, m: t.counts["rings.coeff_mul"]),
    "rings.coeff_add_calls": ("count", lambda t, m: t.counts["rings.coeff_add"]),
    "rings.sigma_delta_calls": ("count", lambda t, m: t.calls_of("rings.sigma_delta")),
    "rings.sigma_delta_self_ms": ("ms", lambda t, m: t.self_ms("rings.sigma_delta")),
    "algebra.star_calls": ("count", lambda t, m: t.calls_of("algebra.star")),
    "algebra.star_self_ms": ("ms", lambda t, m: t.self_ms("algebra.star")),
    "algebra.pow_ms": ("ms", lambda t, m: t.incl_ms("algebra.pow")),
    "algebra.vtm_entries": ("count", lambda t, m: m["vtm"]),
    "reduction.oracle_self_ms": ("ms", lambda t, m: t.self_ms("reduction.oracle")),
    "reduction.reduce_p_self_ms": ("ms", lambda t, m: t.self_ms("reduction.reduce_p")),
    "reduction.h_entries": ("count", lambda t, m: m["h"]),
    "reduction.reduce_entries": ("count", lambda t, m: m["reduce"]),
    "presentation.check_all_ms": ("ms", lambda t, m: t.incl_ms("presentation.check_all")),
    "presentation.cond2_checks": ("count", lambda t, m: t.calls_of("presentation.cond2")),
    "presentation.cond2_sampled_checks": ("count", lambda t, m: t.cond2_sampled),
    "presentation.cond3_checks": ("count", lambda t, m: t.calls_of("presentation.cond3")),
    "universal.check_hom_ms": ("ms", lambda t, m: t.incl_ms("universal.check_hom")),
    "universal.extend_hom_ms": ("ms", lambda t, m: t.incl_ms("universal.extend_hom")),
    "universal.ypow_entries": ("count", lambda t, m: m["ypow"]),
    "cli.main_ms": ("ms", lambda t, m: t.incl_ms("cli.main")),
    "expr.eval_str_ms": ("ms", lambda t, m: t.incl_ms("expr.eval_str")),
    "jsonio.load_ms": ("ms", lambda t, m: t.incl_ms("jsonio.load")),
}


def _snapshot(tracer, live, scale):
    """Per-layer values of one traced round; times scaled like the round."""
    from skewpbw.presentation import Presentation

    pres = {id(p): p for p in list(live) + tracer.created if isinstance(p, Presentation)}
    specs = [s for s in tracer.created if not isinstance(s, Presentation)]
    memo = {
        "vtm": sum(len(p._vtm_cache) for p in pres.values()),
        "h": sum(len(p._h_cache) for p in pres.values()),
        "reduce": sum(len(p._reduce_cache) for p in pres.values()),
        "ypow": sum(len(s._ypow_cache) for s in specs),
    }
    snap = {}
    for name, (unit, read) in PER_LAYER.items():
        value = read(tracer, memo)
        snap[name] = value * scale if unit == "ms" else value
    return snap


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    _load_program()
    import workloads

    if args.workload not in workloads.NAMES:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    wl = workloads.make(args.workload, OUT / "cli", ROOT, child_env())
    run = trace if args.trace else measure
    attempted, failed, wrong, metrics, notes = run(wl, args.seed, args.seconds)

    mode = "traced" if args.trace else "untraced"
    print(
        f"{wl.name} seed {args.seed}, {mode}: {attempted} operations attempted, "
        f"{failed} failed, {wrong} of them with a wrong output"
    )
    for line in notes:
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.4f} {unit}")
    result = summary(attempted, failed, wrong, metrics)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
