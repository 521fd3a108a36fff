"""Small statistics helpers shared by the workloads."""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["quantile"]


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
