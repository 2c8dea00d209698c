"""Floating-point substrate: formats, encoding, rounding, intervals.

This package is the exact-arithmetic model of IEEE-754-style binary
formats that the rest of the reproduction is built on.  Values are exact
:class:`fractions.Fraction` objects; rounding works on their integer
numerators and denominators, so results are bit-exact.
"""

from .format import (
    FPFormat,
    FLOAT64,
    FLOAT32,
    FLOAT16,
    BFLOAT16,
    TENSORFLOAT32,
    FLOAT34_RO,
    PAPER_FAMILY,
    MINI_FAMILY,
    TINY_FAMILY,
    P12,
    P14,
    P16,
    T8,
    T10,
)
from .encode import FPValue, Kind, float_to_fraction, ilog2
from .rounding import RoundingMode, IEEE_MODES, exact_bits, round_real
from .intervals import Interval, rounding_interval
from .enumerate import all_finite, all_patterns, count_finite, sample_finite, stratified_sample

__all__ = [
    "FPFormat",
    "FPValue",
    "Kind",
    "RoundingMode",
    "IEEE_MODES",
    "Interval",
    "round_real",
    "rounding_interval",
    "exact_bits",
    "float_to_fraction",
    "ilog2",
    "all_finite",
    "all_patterns",
    "count_finite",
    "sample_finite",
    "stratified_sample",
    "FLOAT64",
    "FLOAT32",
    "FLOAT16",
    "BFLOAT16",
    "TENSORFLOAT32",
    "FLOAT34_RO",
    "PAPER_FAMILY",
    "MINI_FAMILY",
    "TINY_FAMILY",
    "P12",
    "P14",
    "P16",
    "T8",
    "T10",
]
