"""Summary statistics for timing samples."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10  # samples that must lie beyond a reported tail percentile


def median(values) -> float:
    return float(statistics.median(values))


def pick_percentile(values, q: float):
    """Nearest-rank q-quantile, or None when it has < MIN_BEYOND samples beyond.

    Returns (value or None, sample count, samples beyond the rank).
    """
    n = len(values)
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if n == 0 or beyond < MIN_BEYOND:
        return None, n, max(beyond, 0)
    return float(sorted(values)[rank - 1]), n, beyond


def describe_percentile(label: str, values, q: float, scale: float,
                        unit: str) -> str:
    """One report line for a tail percentile, always with its sample count."""
    value, n, beyond = pick_percentile(values, q)
    if value is None:
        need = math.ceil(MIN_BEYOND / (1.0 - q))
        return (f"{label}: n/a ({n} samples; a p{round(q * 100)} needs "
                f">= {need} so that {MIN_BEYOND} lie beyond it)")
    return (f"{label}: {value * scale:.4f} {unit} "
            f"({n} samples, {beyond} beyond)")
