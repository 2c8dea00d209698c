"""The integer pull-back against the rational reference it replaced.

Every reduced interval must be the same exact rational interval as
:func:`tests.funcs.reference.pull_back` gives: on every input of every
tiny function at every level, on a 1-in-7 sample of every mini
function, and on edge cases (signed zeros, the largest finite value,
subnormals, negative results, offsets, a non-power-of-two ``outer``, and
a format wider than binary64 whose open endpoints are not doubles).
"""

from fractions import Fraction

import pytest

from repro.fp import FPFormat, FPValue, RoundingMode, all_finite
from repro.fp.intervals import Interval, rounding_bounds, rounding_interval
from repro.funcs import MINI_CONFIG, TINY_CONFIG, make_pipeline
from repro.funcs.base import Reduction, _pull_back
from repro.mp.oracle import FUNCTION_NAMES

from ..helpers import exact_bounds
from .reference import pull_back

RTO = RoundingMode.RTO


def same(bounds, red):
    """Assert the integer and the rational pull-backs agree exactly."""
    got = _pull_back(bounds, red)
    want = pull_back(Interval.from_bounds(bounds), red)
    if want is None or want.is_empty:
        assert got is None, (bounds, red)
        return
    assert got is not None, (bounds, red)
    plo, phi, den = got
    assert den > 0
    assert not want.lo_open and not want.hi_open
    assert (
        None if plo is None else Fraction(plo, den),
        None if phi is None else Fraction(phi, den),
    ) == (want.lo, want.hi), (bounds, red)


def sweep(pipe, values, level):
    """Compare the two pull-backs on the oracle's round-to-odd result of
    every polynomial-path input in ``values``."""
    target = pipe.family.ro_target(level)
    checked = 0
    for v in values:
        xd = v.to_float()
        if pipe.special_value(xd) is not None:
            continue
        result = pipe.oracle.correctly_rounded(pipe.name, v.value, target, RTO)
        same(rounding_bounds(result, RTO), pipe.reduce(xd))
        checked += 1
    return checked


@pytest.mark.parametrize("fn", FUNCTION_NAMES)
def test_tiny_every_input_every_level(fn, oracle):
    pipe = make_pipeline(fn, TINY_CONFIG, oracle)
    for level, fmt in enumerate(TINY_CONFIG.formats):
        assert sweep(pipe, all_finite(fmt), level) > 0


@pytest.mark.parametrize("fn", FUNCTION_NAMES)
def test_mini_one_in_seven(fn, oracle):
    pipe = make_pipeline(fn, MINI_CONFIG, oracle)
    for level, fmt in enumerate(MINI_CONFIG.formats):
        values = list(all_finite(fmt))[level::7]
        assert sweep(pipe, values, level) > 0


@pytest.mark.parametrize("fn", ["ln", "exp", "cosh"])
def test_constraint_carries_the_reduction(fn, oracle):
    # constraint_for hands the pulled-back integers on unchanged, with
    # the reduction's own doubles for x and the multipliers.
    pipe = make_pipeline(fn, TINY_CONFIG, oracle)
    seen = 0
    for v in all_finite(TINY_CONFIG.formats[1]):
        out = pipe.constraint_for(v, 1)
        if out is None or out.constraint is None:
            continue
        c = out.constraint
        red = pipe.reduce(v.to_float())
        assert c.x == red.r and c.mults == red.mults
        assert all(type(m) is float for m in c.mults)
        target = TINY_CONFIG.ro_target(1)
        result = oracle.correctly_rounded(fn, v.value, target, RTO)
        want = pull_back(rounding_interval(result, RTO), red)
        assert exact_bounds(c) == (want.lo, want.hi)
        seen += 1
    assert seen > 100


REDUCTIONS = [
    Reduction(r=0.25, mults=(1.0,)),
    Reduction(r=0.25, mults=(1.0,), scale_pow=-7),
    Reduction(r=0.25, mults=(1.0,), scale_pow=9),
    Reduction(r=0.25, mults=(1.0,), offset=0.5),
    Reduction(r=0.25, mults=(1.0,), offset=-1.25, scale_pow=3),
    Reduction(r=0.25, mults=(1.0,), offset=1.0 / 3.0),
    Reduction(r=0.25, mults=(1.0,), outer=0.6931471805599453),
    Reduction(r=0.25, mults=(1.0,), outer=3.0, offset=-7.0, scale_pow=-2),
    Reduction(r=0.25, mults=(1.0,), outer=0.1, offset=2.0**-40),
    Reduction(r=0.25, mults=(1.0,), outer=0.125),
]

#: A small format (every pattern is checked) and one wider than
#: binary64 (68-bit significand).
SMALL = FPFormat(9, 4, "f9")
WIDE = FPFormat(80, 11, "f80")


@pytest.mark.parametrize("red", REDUCTIONS, ids=range(len(REDUCTIONS)))
@pytest.mark.parametrize("mode", list(RoundingMode))
def test_every_pattern_every_mode(red, mode):
    # Every pattern of a small format, NaN excepted: ±0 (with -0 under
    # RTO and RTN empty), subnormals, negative values, the largest finite
    # value (unbounded under the truncating modes) and the infinities.
    for bits in range(SMALL.num_bit_patterns):
        v = FPValue(SMALL, bits)
        if not v.is_nan:
            same(rounding_bounds(v, mode), red)


def test_negative_zero_under_rto_is_special():
    bounds = rounding_bounds(FPValue.zero(SMALL, sign=1), RTO)
    assert _pull_back(bounds, REDUCTIONS[0]) is None


def test_largest_finite_is_unbounded():
    top = FPValue.max_finite(SMALL)
    lo, hi, den = _pull_back(rounding_bounds(top, RTO), REDUCTIONS[6])
    assert lo is not None and hi is None
    lo, hi, den = _pull_back(
        rounding_bounds(FPValue.max_finite(SMALL, sign=1), RTO), REDUCTIONS[6]
    )
    assert lo is None and hi is not None


@pytest.mark.parametrize("red", REDUCTIONS, ids=range(len(REDUCTIONS)))
def test_wider_than_binary64(red):
    # Open endpoints of a 68-bit format are not doubles: they round
    # outward-in to the nearest double strictly inside.
    m = WIDE.mantissa_bits
    picks = [1, 2, 3, (1 << m) - 1, (1 << m) + 1, 12345678901234567,
             (1 << (m + 1)) - 3]
    for e in (0, 1, 2, 1000, 1023, 1024, 1030, 2000):
        for sig in picks:
            bits = (e << m) | (sig & ((1 << m) - 1))
            for sign in (0, WIDE.sign_mask):
                v = FPValue(WIDE, bits | sign)
                for mode in RoundingMode:
                    same(rounding_bounds(v, mode), red)


def test_nonpositive_scale_rejected():
    bounds = rounding_bounds(FPValue(SMALL, 0x35), RTO)
    for outer in (0.0, -1.0):
        with pytest.raises(ValueError):
            _pull_back(bounds, Reduction(r=0.0, mults=(1.0,), outer=outer))
