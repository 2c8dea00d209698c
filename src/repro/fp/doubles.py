"""Helpers for binary64 ("double") arithmetic as the working precision H.

Python's ``float`` *is* IEEE binary64 with correctly rounded ``+ - * /``
and ``math.sqrt``, so the generated libraries' double-precision runtime is
simulated exactly by ordinary Python float arithmetic.  This module
provides directed conversions used when exact interval endpoints must be
materialized as doubles.  Each accepts an int, a Fraction or a finite
float and reads the double straight off the rounded binary64 pattern.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .encode import bits_to_float
from .format import FLOAT64
from .rounding import RoundingMode, exact_bits, exact_ratio, round_ratio_bits


def to_double_nearest(x) -> float:
    """Round a rational to the nearest double (ties to even)."""
    n, d = exact_ratio(x)
    return bits_to_float(round_ratio_bits(n, d, FLOAT64, RoundingMode.RNE))


def to_double_down(x) -> float:
    """Largest double <= x (``-inf`` below the finite range)."""
    n, d = exact_ratio(x)
    return bits_to_float(round_ratio_bits(n, d, FLOAT64, RoundingMode.RTN))


def to_double_up(x) -> float:
    """Smallest double >= x (``+inf`` above the finite range)."""
    n, d = exact_ratio(x)
    return bits_to_float(round_ratio_bits(n, d, FLOAT64, RoundingMode.RTP))


def next_double_up(x: float) -> float:
    """The double after ``x`` toward +infinity."""
    return math.nextafter(x, math.inf)


def next_double_down(x: float) -> float:
    """The double before ``x`` toward -infinity."""
    return math.nextafter(x, -math.inf)


def double_is_exact(x: Fraction) -> bool:
    """True if the rational is exactly a finite double."""
    return exact_bits(x, FLOAT64) is not None
