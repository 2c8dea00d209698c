"""Enumeration and sampling of floating-point bit patterns."""

from __future__ import annotations

import random
from typing import Iterator, List, Optional

from .encode import FPValue
from .format import FPFormat


#: The most bit patterns a format may have for its inputs to be
#: enumerated one by one; bigger formats (float32) must be sampled.
EXHAUSTIVE_LIMIT = 1 << 20


def all_patterns(fmt: FPFormat) -> Iterator[FPValue]:
    """Every bit pattern of the format, including infinities and NaNs."""
    for bits in range(fmt.num_bit_patterns):
        yield FPValue(fmt, bits)


def all_finite(fmt: FPFormat) -> Iterator[FPValue]:
    """Every finite bit pattern (both zeros included), ascending magnitude
    within each sign; positive patterns first."""
    max_mag = FPValue.max_finite(fmt).bits
    for bits in range(max_mag + 1):
        yield FPValue(fmt, bits)
    sign = fmt.sign_mask
    for bits in range(max_mag + 1):
        yield FPValue(fmt, sign | bits)


def count_finite(fmt: FPFormat) -> int:
    """Number of finite bit patterns (both zeros counted)."""
    return 2 * (FPValue.max_finite(fmt).bits + 1)


def sample_finite(
    fmt: FPFormat,
    count: int,
    rng: Optional[random.Random] = None,
) -> List[FPValue]:
    """Uniform random sample of finite bit patterns (without replacement
    when the space is small enough, with replacement otherwise)."""
    rng = rng or random.Random(0)
    max_mag = FPValue.max_finite(fmt).bits
    space = 2 * (max_mag + 1)

    def from_index(i: int) -> FPValue:
        if i <= max_mag:
            return FPValue(fmt, i)
        return FPValue(fmt, fmt.sign_mask | (i - max_mag - 1))

    if count >= space:
        return list(all_finite(fmt))
    if space <= 1 << 22:
        idx = rng.sample(range(space), count)
    else:
        idx = [rng.randrange(space) for _ in range(count)]
    return [from_index(i) for i in sorted(idx)]


def stratified_sample(
    fmt: FPFormat, per_binade: int, rng: Optional[random.Random] = None
) -> List[FPValue]:
    """Sample ``per_binade`` mantissas uniformly from every exponent value.

    This is the documented float32 substitution: where exhaustive
    enumeration of 2^32 patterns is out of reach, every binade (and both
    signs) is still exercised.
    """
    rng = rng or random.Random(0)
    out: List[FPValue] = []
    m = fmt.mantissa_bits
    n_mant = 1 << m
    for sign in (0, 1):
        for efield in range(0, (1 << fmt.exponent_bits) - 1):
            if n_mant <= per_binade:
                mants = range(n_mant)
            else:
                mants = sorted(rng.sample(range(n_mant), per_binade))
            for mant in mants:
                out.append(FPValue.from_parts(fmt, sign, efield, mant))
    return out
