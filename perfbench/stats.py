"""Nearest-rank percentiles and the ten-beyond rule for timing samples."""

from __future__ import annotations

import math
from typing import Sequence

#: samples a reported percentile must leave beyond it
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: always an observed sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    data = sorted(values)
    rank = max(math.ceil(pct / 100.0 * len(data)), 1)
    return float(data[rank - 1])


def samples_beyond(n: int, pct: float) -> int:
    """Samples ranked after the nearest-rank ``pct`` of ``n`` samples."""
    return n - max(math.ceil(pct / 100.0 * n), 1)


def tail_supported(n: int, pct: float) -> bool:
    """True when ``n`` samples leave at least ten beyond ``pct``."""
    return samples_beyond(n, pct) >= TAIL_SAMPLES


def min_samples(pct: float) -> int:
    """Fewest samples for which :func:`tail_supported` holds at ``pct``."""
    n = 1
    while not tail_supported(n, pct):
        n += 1
    return n
