"""Small numeric helpers, and the one text of every size refusal: each cap
is a constant beside the code it guards, and `over_cap` words its refusal."""

from __future__ import annotations

import math
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


def over_cap(subject: str, need, cap, flag: str | None = None) -> str:
    """The refusal text; it names the flag where a command-line flag raises the cap."""
    return f"{subject} needs {need}, above the cap {cap}" + (f"; {flag} raises it" if flag else "")


def capped_power(p: int, e: int, cap: int, subject: str, unit: str, flag: str | None = None) -> int:
    """p**e for a prime p, or a ValueError above cap, worded p^e when above it by a factor
    over 2^128, told from bit lengths: that power can take seconds to build and print."""
    if e > (cap.bit_length() + 128) / math.log2(p):
        raise ValueError(over_cap(subject, f"{p}^{e} {unit}", cap, flag))
    if (power := p**e) > cap:
        raise ValueError(over_cap(subject, f"{power} {unit}", cap, flag))
    return power
