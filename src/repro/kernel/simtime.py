"""Simulation time representation.

Time is kept as a plain integer number of picoseconds, mirroring
SystemC's ``sc_time`` with a fixed global resolution.  Integer arithmetic
avoids the floating-point drift that plagues long multimedia simulations
(a level-3 face-recognition run simulates hundreds of milliseconds at
nanosecond granularity).
"""

from __future__ import annotations

import math

#: Picoseconds per unit, exposed so callers can write ``wait(10, NS)``.
PS = 1
NS = 1_000
US = 1_000_000
MS = 1_000_000_000
SEC = 1_000_000_000_000

_UNIT_NAMES = {PS: "ps", NS: "ns", US: "us", MS: "ms", SEC: "s"}


def format_time(ps: int) -> str:
    """Render a picosecond count with the largest unit that divides it nicely.

    >>> format_time(1500)
    '1.5ns'
    >>> format_time(2000000)
    '2us'
    """
    if ps == 0:
        return "0s"
    for unit in (SEC, MS, US, NS, PS):
        if ps >= unit:
            value = ps / unit
            if math.isclose(value, round(value)):
                return f"{round(value)}{_UNIT_NAMES[unit]}"
            return f"{value:g}{_UNIT_NAMES[unit]}"
    return f"{ps}ps"
