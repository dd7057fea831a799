"""Order statistics for the benchmark's timings.

A timing is reported as its median and as the highest percentile that
still has at least ``BEYOND`` samples above it, capped at p90; the sample
count is printed beside both.  With fewer than ``2 * BEYOND`` samples the
rule allows nothing above the median, so the tail falls back to p50.
"""

from __future__ import annotations

import statistics

#: samples that must lie beyond a reported percentile
BEYOND = 10
#: the highest percentile ever reported as the tail
TAIL_CAP = 0.9


def quantile(values: list[float], q: float) -> float:
    """The *q*-quantile of *values* by linear interpolation between the
    two nearest order statistics (position ``(n - 1) * q``)."""
    if not values:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q!r} is outside [0, 1]")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    frac = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * frac


def median(values: list[float]) -> float:
    return quantile(values, 0.5)


def tail_quantile(samples: int) -> float:
    """The highest quantile with at least :data:`BEYOND` of *samples*
    beyond it, capped at :data:`TAIL_CAP` and never below the median."""
    if samples < 1:
        raise ValueError("no samples")
    return max(0.5, min(TAIL_CAP, 1.0 - BEYOND / samples))


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median, with the
    quartiles of :func:`statistics.quantiles` (its default method)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
