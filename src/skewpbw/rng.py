"""Deterministic pseudorandom streams for sampled checks.

All probabilistic checks in this package draw from a 64-bit multiplicative
congruential generator (Steele/Vigna multiplier 0xf1357aea2e62a9c5).  The
state is forced odd, giving period 2^62.  A stream is fully determined by
its seed, and ``split`` derives an independent child stream from the parent
state plus a label, so every call site can own its own reproducible stream.
No use of the ``random`` module anywhere: results must reproduce bit for bit
across runs and platforms.
"""

from __future__ import annotations

_MULT = 0xF1357AEA2E62A9C5
_MASK = (1 << 64) - 1


def _fnv1a(text: str) -> int:
    # 64-bit FNV-1a; stable across processes, unlike hash().
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return h


class Stream:
    """A splittable MCG stream of 64-bit integers."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = ((seed << 1) | 1) & _MASK

    def next_u64(self) -> int:
        self.state = (self.state * _MULT) & _MASK
        return self.state

    def below(self, n: int) -> int:
        """Integer in [0, n) by multiply-shift (Lemire): the high bits of
        next_u64() * n, with bias below n / 2^64.  ``next_u64() % n`` would
        read the low bits, which are not random: the state is always odd,
        so every even n would give odd values only."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        return (self.next_u64() * n) >> 64

    def int_between(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi], inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.below(hi - lo + 1)

    def choice(self, seq):
        if not seq:
            raise ValueError("choice from empty sequence")
        return seq[self.below(len(seq))]

    def split(self, tag) -> "Stream":
        """Child stream derived from the current state and a label."""
        return Stream(self.next_u64() ^ _fnv1a(str(tag)))
