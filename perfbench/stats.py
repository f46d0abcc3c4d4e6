"""Order statistics shared by the benchmark and its steadiness aid."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(xs) -> tuple[float, float, int]:
    """(value, percentile, beyond): the highest nearest-rank percentile that
    still has at least `TAIL_BEYOND` samples above it.

    With n samples sorted ascending, that is the sample at 1-based rank
    n - 10, the (n - 10)/n percentile.  Below 21 samples that percentile is
    at or under the median (with 12 samples it is p17), so it is no tail.
    The upper quartile (`statistics.quantiles`, as in `spread`) is returned
    instead, as percentile 75 with the samples above it; the maximum of so
    few samples is the host's worst moment, not the program's.
    """
    s = sorted(xs)
    n = len(s)
    if not n:
        raise ValueError("no samples")
    rank = n - TAIL_BEYOND
    if 2 * rank > n:
        return s[rank - 1], 100.0 * rank / n, TAIL_BEYOND
    if n == 1:
        return s[0], 100.0, 0
    q3 = statistics.quantiles(s, n=4)[2]
    return q3, 75.0, sum(x > q3 for x in s)


def spread(xs) -> float:
    """Distance between the first and third quartile, as a share of the
    median (`statistics.quantiles(xs, n=4)`), the rule the bounds in
    BENCHMARK.json are held to."""
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)
