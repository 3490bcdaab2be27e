"""Order statistics used for the benchmark's latency and set-up figures."""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) with linear interpolation between ranks.

    The same definition as numpy's default: position (n - 1) * q / 100 in
    the sorted values, interpolated between its two neighbours.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)
