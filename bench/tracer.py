"""Spans and counters around the engine's public functions, recorded from the
benchmark's side.

``Tracer.install`` replaces each wrapped function wherever it is looked up:
in its defining module, and in every module of the package that imported it
by name (``universal``, ``cli`` and ``expr`` hold their own reference to
``star``, ``cli`` to ``check_all`` and so on).  The benchmark calls the
engine through its modules, so its own modules need no patching.  Methods are
patched on their class.  ``uninstall`` puts the originals back, so untraced
rounds run the engine untouched.

A span is (id, parent id, name, start, end) in ``perf_counter`` seconds.
Self time is a span's duration minus the durations of its direct children;
inclusive time of a layer counts only its outermost spans, so a layer that
calls itself (``load_homspec`` -> ``load_presentation``) is not counted twice.
Counters with no span are kept for calls too frequent to time one by one
(``CoeffElem`` arithmetic).  Presentations and homomorphism seeds built while
the tracer is installed are kept in ``created``, so that their memo tables
can be measured after the round.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from skewpbw import (
    algebra,
    cli,
    expr,
    jsonio,
    presentation,
    reduction,
    rings,
    universal,
)

# layer name -> the functions (module or class, attribute) it covers
SPANS = {
    "rings.sigma_delta": [(rings.RingMap, "apply"), (rings.SigmaDerivation, "apply")],
    "algebra.star": [(algebra, "star")],
    "algebra.pow": [(algebra.Poly, "__pow__")],
    "reduction.oracle": [
        (reduction, "star_oracle"),
        (reduction, "normalize_h"),
        (reduction, "h_word"),
    ],
    "reduction.reduce_p": [(reduction, "reduce_p"), (reduction, "reduce_elem")],
    "presentation.check_all": [(presentation, "check_all")],
    "presentation.cond2": [(presentation, "check_condition2")],
    "presentation.cond3": [(presentation, "check_condition3")],
    "universal.check_hom": [(universal, "check_hom_conditions")],
    "universal.extend_hom": [(universal, "extend_hom")],
    "expr.eval_str": [(expr, "eval_str")],
    "jsonio.load": [(jsonio, "load_presentation"), (jsonio, "load_homspec")],
    "cli.main": [(cli, "main")],
}

COUNTERS = {
    "rings.coeff_mul": [(rings.CoeffElem, "__mul__"), (rings.CoeffElem, "__rmul__")],
    "rings.coeff_add": [
        (rings.CoeffElem, "__add__"),
        (rings.CoeffElem, "__radd__"),
        (rings.CoeffElem, "__sub__"),
        (rings.CoeffElem, "__rsub__"),
    ],
}


class Tracer:
    """In-memory span recorder.  One instance per traced run."""

    def __init__(self):
        self.names = list(SPANS)
        self.spans: list[tuple] = []
        self.keep_spans = True
        self.stack: list[list] = []  # [span id, name index, start, child time]
        self.next_id = 1
        self._patches: list[tuple] = []
        self.reset()

    def reset(self):
        k = len(self.names)
        self.calls = [0] * k
        self.self_s = [0.0] * k
        self.incl_s = [0.0] * k
        self.open_depth = [0] * k
        self.counts = {name: 0 for name in COUNTERS}
        self.cond2_sampled = 0
        self.created = []

    # -- patching ------------------------------------------------------------

    def _replace(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for mod in [m for name, m in sys.modules.items() if name.startswith("skewpbw")]:
            for name, val in list(vars(mod).items()):
                if val is original and mod is not owner:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def install(self):
        created = self.created
        for cls, attr in ((presentation.Presentation, "__init__"), (universal.HomSpec, "__post_init__")):
            init = getattr(cls, attr)

            def hook(obj, *args, init=init, **kwargs):
                init(obj, *args, **kwargs)
                created.append(obj)

            self._replace(cls, attr, hook)
        for idx, name in enumerate(self.names):
            for owner, attr in SPANS[name]:
                self._replace(owner, attr, self._span_wrapper(idx, getattr(owner, attr)))
        for name, targets in COUNTERS.items():
            for owner, attr in targets:
                self._replace(owner, attr, self._count_wrapper(name, getattr(owner, attr)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _span_wrapper(self, idx, fn):
        tracer = self
        cond2 = fn is presentation.check_condition2

        def wrapper(*args, **kwargs):
            if cond2 and args[0].ring.generator_names():
                tracer.cond2_sampled += 1
            span_id = tracer.next_id
            tracer.next_id += 1
            depth = tracer.open_depth
            depth[idx] += 1
            frame = [span_id, idx, perf_counter(), 0.0]
            tracer.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                dur = end - frame[2]
                depth[idx] -= 1
                tracer.calls[idx] += 1
                tracer.self_s[idx] += dur - frame[3]
                if depth[idx] == 0:
                    tracer.incl_s[idx] += dur
                parent = tracer.stack[-1] if tracer.stack else None
                if parent is not None:
                    parent[3] += dur
                if tracer.keep_spans:
                    tracer.spans.append(
                        (span_id, parent[0] if parent else 0, idx, frame[2], end)
                    )

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(a, b):
            counts[name] += 1
            return fn(a, b)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- readout -------------------------------------------------------------

    def calls_of(self, name: str) -> int:
        return self.calls[self.names.index(name)]

    def self_ms(self, name: str) -> float:
        return self.self_s[self.names.index(name)] * 1e3

    def incl_ms(self, name: str) -> float:
        return self.incl_s[self.names.index(name)] * 1e3

    def write_spans(self, path, meta: dict) -> None:
        """One JSON object per line: a header, then the spans in end order,
        times in microseconds from the first span's start."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(meta, names=self.names)) + "\n")
            for span_id, parent, idx, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": self.names[idx],
                            "start_us": round((start - t0) * 1e6, 1),
                            "end_us": round((end - t0) * 1e6, 1),
                        }
                    )
                    + "\n"
                )
