"""Seeded streams: pinned draws and uniform bounded integers."""

import pytest

from skewpbw.rng import Stream


def test_golden_draws():
    stream = Stream(7)
    assert [stream.next_u64() for _ in range(2)] == [0x222233B8B7C7F28B, 0x2E53F7A63F3167F7]
    # below(n) is the high part of next_u64() * n: 0x2222...  * 10 >> 64 == 1
    stream = Stream(7)
    assert [stream.below(10) for _ in range(8)] == [1, 1, 1, 3, 4, 0, 4, 3]
    assert Stream(7).split("x").below(1000) == 525


# 0.999 quantiles of chi-square with n - 1 degrees of freedom
@pytest.mark.parametrize("n, bound", [(2, 10.83), (4, 16.27), (8, 24.32)])
def test_below_is_uniform_on_small_bounds(n, bound):
    stream = Stream(7)
    draws = 4000
    counts = [0] * n
    for _ in range(draws):
        counts[stream.below(n)] += 1
    expected = draws / n
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < bound, counts


def test_below_stays_in_range_and_rejects_empty_bounds():
    stream = Stream(3)
    assert {stream.below(1) for _ in range(50)} == {0}
    assert all(0 <= stream.below(1 << 70) < 1 << 70 for _ in range(50))
    with pytest.raises(ValueError):
        stream.below(0)
