"""The rational pull-back the integer one in :mod:`repro.funcs.base`
replaced, kept as a test oracle.

:func:`pull_back` maps a :class:`~repro.fp.intervals.Interval` through
the inverse of the ideal linear output compensation with
:class:`~fractions.Fraction` arithmetic, one normalized rational per
step.  The differential tests require ``repro.funcs.base._pull_back`` to
give the same exact interval.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from repro.fp.doubles import to_double_down, to_double_up
from repro.fp.intervals import Interval

#: Relative slop absorbing the runtime's few double roundings.
EVAL_SLOP = Fraction(1, 1 << 48)


def pull_back(interval: Interval, red) -> Optional[Interval]:
    """Open endpoints stepped one binary64 ulp inward, divided by
    ``outer * 2**scale_pow``, the offset subtracted, and the 2**-48 slop
    applied when it keeps the interval nonempty; None when the stepped
    interval is empty."""
    lo, hi = interval.lo, interval.hi
    if lo is not None and interval.lo_open:
        lo_d = to_double_up(lo)  # smallest double >= lo
        if Fraction(lo_d) == lo:
            lo_d = math.nextafter(lo_d, math.inf)  # a double: step past it
        lo = Fraction(lo_d)
    if hi is not None and interval.hi_open:
        hi_d = to_double_down(hi)  # largest double <= hi
        if Fraction(hi_d) == hi:
            hi_d = math.nextafter(hi_d, -math.inf)
        hi = Fraction(hi_d)
    if lo is not None and hi is not None and lo > hi:
        return None
    scale = Fraction(red.outer) * Fraction(2) ** red.scale_pow
    if scale <= 0:
        raise ValueError("output compensation scale must be positive")
    off = Fraction(red.offset)
    plo = None if lo is None else lo / scale - off
    phi = None if hi is None else hi / scale - off
    mags = [abs(v) for v in (plo, phi) if v is not None] + [abs(off)]
    slop = max(mags) * EVAL_SLOP
    if slop:
        slo = plo if plo is None else plo + slop
        shi = phi if phi is None else phi - slop
        if slo is None or shi is None or slo <= shi:
            plo, phi = slo, shi
    return Interval(plo, phi)
