"""Small, dependency-free summary statistics."""

from __future__ import annotations

import math
from typing import Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence)."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    data = sorted(values)
    if not data:
        raise ValueError("percentile of empty sequence")
    if len(data) == 1:
        return data[0]
    rank = (q / 100.0) * (len(data) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return data[low]
    frac = rank - low
    return data[low] * (1.0 - frac) + data[high] * frac
