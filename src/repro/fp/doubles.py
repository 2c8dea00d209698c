"""Helpers for binary64 ("double") arithmetic as the working precision H.

Python's ``float`` *is* IEEE binary64 with correctly rounded ``+ - * /``
and ``math.sqrt``, so the generated libraries' double-precision runtime is
simulated exactly by ordinary Python float arithmetic.  This module
provides directed conversions used when exact interval endpoints must be
materialized as doubles.  Each accepts an int, a Fraction or a finite
float and reads the double straight off the rounded binary64 pattern.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Tuple

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


def double_is_exact(x: Fraction) -> bool:
    """True if the rational is exactly a finite double."""
    return exact_bits(x, FLOAT64) is not None


def exact_powers_of_ten(first: int, below: int) -> Iterator[Tuple[int, float]]:
    """``(k, 10**k)`` for k = first, first + 1, ... while ``10**k`` is
    exactly a double and less than ``below``.

    Integer arithmetic throughout: ``10.0**k`` goes through the C
    library's ``pow``, whose result follows the hardware rounding mode
    (under ``FE_DOWNWARD``, ``10.0**2`` is 99.99999999999999).
    """
    k = first
    while 10**k < below and float(10**k) == 10**k:
        yield k, float(10**k)
        k += 1


def dyadic_parts(x: float) -> Tuple[int, int]:
    """``(m, e)`` with the finite double ``x`` worth ``m * 2**e``."""
    n, d = x.as_integer_ratio()
    return n, 1 - d.bit_length()


def double_past(n: int, q: int, up: bool) -> Tuple[int, int]:
    """The double nearest to ``n * 2**q`` strictly above it (``up``) or
    strictly below it, as ``(m, e)`` worth ``m * 2**e``.

    A value that is itself a double steps one double on integers; any
    other value rounds toward the side asked for.
    """
    if n == 0:
        return (1 if up else -1), -1074
    mag = abs(n)
    top = q + mag.bit_length() - 1  # floor(log2 |value|)
    qd = max(top - 52, -1074)  # the quantum of the doubles in its binade
    if top <= 1023 and (q >= qd or not mag & ((1 << (qd - q)) - 1)):
        m = n << (q - qd) if q >= qd else n >> (qd - q)
        step = 1 if up else -1
        if (n > 0) != up and abs(m) == 1 << 52 and qd > -1074:
            # Toward zero from a normal power of two: the binade below
            # has half the quantum.
            return 2 * m + step, qd - 1
        return m + step, qd
    if q >= 0:
        num, den = n << q, 1
    else:
        num, den = n, 1 << -q
    mode = RoundingMode.RTP if up else RoundingMode.RTN
    return dyadic_parts(bits_to_float(round_ratio_bits(num, den, FLOAT64, mode)))
