"""Summary statistics for operation timings."""

from __future__ import annotations

from statistics import median


def tail(samples, min_beyond: int = 10) -> tuple[float, float, int]:
    """(percentile, value, samples above value) for the tail of `samples`.

    The tail is the highest percentile that still has `min_beyond` samples
    above it: the (min_beyond + 1)-th largest value, at percentile
    100 (n - min_beyond) / n.  With fewer samples than that needs to lie
    at or above the median, the median is reported, at percentile 50.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    k = n - 1 - min_beyond
    if k >= (n - 1) / 2:
        pct, value = 100.0 * (k + 1) / n, xs[k]
    else:
        pct, value = 50.0, median(xs)
    return pct, value, sum(1 for x in xs if x > value)
