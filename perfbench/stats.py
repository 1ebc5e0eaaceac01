"""Summary statistics: medians, quartiles and the ten-beyond percentile rule."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: Percentiles a tail may be reported at, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile with linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with at least ten samples beyond it.

    ``p`` qualifies when ``count * (1 - p/100) >= 10``: p99 needs 1000
    samples, p95 200, p90 100.  ``None`` when not even the median qualifies.
    """
    for p in PERCENTILE_LADDER:
        if count * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


def tail(values: Sequence[float]) -> Tuple[Optional[float], Optional[float]]:
    """``(percentile, value)`` of the reportable tail of ``values``."""
    p = tail_percentile(len(values))
    if p is None:
        return None, None
    return p, percentile(values, p)


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, first and third quartile (as ``statistics.quantiles``) and count."""
    values = list(values)
    if not values:
        raise ValueError("summary of no values")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    stats = summary(values)
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else math.inf
