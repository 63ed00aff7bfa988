"""Summary statistics shared by the benchmark scripts and their tests."""

from __future__ import annotations

import statistics

TAIL_MIN_ABOVE = 10


def tail(samples: list[float], design_n: int | None = None,
         min_above: int = TAIL_MIN_ABOVE) -> tuple[float, float, int]:
    """Tail latency as ``(value, percentile, sample_count)``.

    The percentile is the highest one that leaves ``min_above`` samples
    above it in a sample of ``design_n`` (nearest rank: the k-th smallest
    of N sits at percentile 100 k / N, so k = N - min_above).  It is then
    read off all the samples, which leaves at least ``min_above`` above it
    whenever there are ``design_n`` or more; fixing it by the design count
    keeps the percentile from moving when throughput does.  Without
    ``design_n`` it is the rule applied to the samples themselves.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    design = design_n or n
    k_design = max(1, design - min_above)
    k = max(1, -(-k_design * n // design))
    return sorted(samples)[k - 1], 100.0 * k_design / design, n


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def spread(values: list[float]) -> float:
    """Interquartile range over the median, the run-to-run spread the
    benchmark bounds are compared against."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
