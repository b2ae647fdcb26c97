"""Percentiles that refuse thin tails, and run-to-run spread."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10


def min_samples(p: float) -> int:
    """Fewest samples for which ``p`` has ``MIN_TAIL`` samples beyond it."""
    if not 0 < p < 100:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    return math.ceil(round(MIN_TAIL * 100 / (100 - p), 9))


def percentile(values, p: float) -> float:
    """Linear-interpolated ``p``-th percentile of ``values``.

    Raises :class:`ValueError` when fewer than ``MIN_TAIL`` samples lie
    beyond it (so p99 needs 1000 samples, p90 needs 100).
    """
    need = min_samples(p)
    ordered = sorted(values)
    if len(ordered) < need:
        raise ValueError(f"p{p:g} needs at least {need} samples, "
                         f"got {len(ordered)}")
    rank = (len(ordered) - 1) * p / 100
    lo = int(rank)
    frac = rank - lo
    if lo + 1 >= len(ordered):
        return ordered[lo]
    return ordered[lo] * (1 - frac) + ordered[lo + 1] * frac


def iqr_spread(values) -> float:
    """Distance between the first and third quartile, over the median."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


def range_spread(values) -> float:
    """(max - min) over the median."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    median = statistics.median(values)
    return (max(values) - min(values)) / median if median else math.inf
