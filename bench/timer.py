"""Operation timing scaled to a reference machine speed.

On a shared machine the same Python work can take 1.5 times longer from one
minute to the next, for wall and CPU time alike, because other tenants slow
the cores down rather than take them away.  A run of this benchmark cannot
stop that, but it can see it: a fixed probe, which uses nothing of skewpbw,
is timed at least every ``every_s`` seconds between operations, and every
operation's time is multiplied by ``ref_ms / probe`` (the mean of the probes
just before and just after it).  A reported millisecond is thus a
millisecond at the speed at which the probe takes ``ref_ms``.  In-process
workloads use ``probe_ms``, a loop of the interpreter work the engine does;
the CLI workload uses ``interpreter_probe_ms``, the start of a bare
interpreter, since process start-up slows down differently.  The raw,
unscaled figures are printed beside the scaled ones.
"""

from __future__ import annotations

import gc
import resource
import subprocess
import sys
import time
from fractions import Fraction

PROBE_ITERATIONS = 1000
PROBE_REF_MS = 6.0
PROBE_EVERY_S = 0.1
INTERPRETER_REF_MS = 80.0
INTERPRETER_EVERY_S = 0.5


def probe_ms() -> float:
    """Wall time of a fixed mix of the interpreter work the engine does:
    small-Fraction arithmetic, tuple keys, dict updates.  The collector is
    off, so the size of the program's heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        d = {}
        x = Fraction(1, 3)
        for i in range(PROBE_ITERATIONS):
            key = (i % 31, i % 7)
            v = d.get(key)
            d[key] = x if v is None else v + x * Fraction(i % 5 + 1, 7)
        return (time.perf_counter() - t0) * 1e3
    finally:
        if enabled:
            gc.enable()


def interpreter_probe_ms(env=None, cwd=None, code="pass") -> float:
    """Wall time of starting an interpreter that runs ``code`` and stops;
    with the default, a bare interpreter."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=cwd,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        check=True,
        timeout=60,
    )
    return (time.perf_counter() - t0) * 1e3


def cpu_seconds(children: bool) -> float:
    """CPU time of this process, or of its waited-for children."""
    if children:
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return ru.ru_utime + ru.ru_stime
    return time.process_time()


class Failed:
    """Output of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return False

    __hash__ = None


class ScaledTimer:
    """Times calls; after ``finish()``, ``wall`` and ``cpu`` hold the scaled
    times in seconds and ``raw_wall`` and ``raw_cpu`` the measured ones, in
    call order.  CPU time is this process's, or its children's with
    ``children``."""

    def __init__(self, children=False, probe=probe_ms, ref_ms=PROBE_REF_MS, every_s=PROBE_EVERY_S):
        self.children = children
        self.probe, self.ref_ms, self.every_s = probe, ref_ms, every_s
        self.wall, self.cpu, self.raw_wall, self.raw_cpu = [], [], [], []
        self.probes = []
        self._calls = []  # (raw wall, raw cpu, index of the probe before it)
        self._probe()

    def _probe(self):
        self.probes.append(self.probe())
        self._last = time.perf_counter()

    def call(self, fn):
        """fn() timed; an exception is returned as a Failed output."""
        if time.perf_counter() - self._last >= self.every_s:
            self._probe()
        c0 = cpu_seconds(self.children)
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # counted as a failed operation
            out = Failed(exc)
        t1 = time.perf_counter()
        self._calls.append((t1 - t0, cpu_seconds(self.children) - c0, len(self.probes) - 1))
        return out

    def finish(self) -> "ScaledTimer":
        """Probe once more and scale every call made so far by the mean of
        the probes just before and just after it."""
        self._probe()
        self.wall, self.cpu, self.raw_wall, self.raw_cpu = [], [], [], []
        for wall, cpu, k in self._calls:
            factor = self.ref_ms / ((self.probes[k] + self.probes[k + 1]) / 2)
            self.raw_wall.append(wall)
            self.raw_cpu.append(cpu)
            self.wall.append(wall * factor)
            self.cpu.append(cpu * factor)
        return self
