"""Small numeric helpers."""

from __future__ import annotations

from typing import Iterable


def kahan_sum(values: Iterable[float]) -> float:
    """Compensated summation; order of the iterable is respected."""
    total = 0.0
    comp = 0.0
    for v in values:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total
