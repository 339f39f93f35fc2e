"""Percentiles and run-to-run spread, as the benchmark reports them."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: above it; with fewer, the tail is one slow outlier's value.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-quantile, or None when the tail is too thin.

    The value at rank ``ceil(q * n)`` is returned only if at least
    :data:`MIN_TAIL_SAMPLES` samples rank above it.
    """
    if not values or not 0.0 < q < 1.0:
        raise ValueError("need samples and 0 < q < 1")
    rank = math.ceil(q * len(values))
    if len(values) - rank < MIN_TAIL_SAMPLES:
        return None
    return sorted(values)[rank - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the steadiness measure across seeded runs."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
