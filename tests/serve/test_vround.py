"""Vectorized format rounding must be bit-identical to the scalar path."""

import itertools
import math

import numpy as np
import pytest

from repro.fp import IEEE_MODES, RoundingMode, all_finite
from repro.fp.format import BFLOAT16, FLOAT32, P12, P14, P16, T8, T10, TENSORFLOAT32
from repro.libm.runtime import round_double_to
from repro.libm.vround import (
    decode_bits_to_doubles,
    round_doubles_to_bits,
    round_doubles_to_bits_checked,
    supports_vector_rounding,
)

ALL_MODES = tuple(IEEE_MODES) + (RoundingMode.RTO,)
#: Formats checked exhaustively (every finite value, every mode).
SMALL_FORMATS = (T8, T10, P12)
#: Wider formats checked on boundaries plus a deterministic sample.
WIDE_FORMATS = (P14, P16, BFLOAT16, TENSORFLOAT32, FLOAT32)


def boundary_doubles(fmt):
    """The values where the rounding cases switch."""
    mv = float(fmt.max_value)
    ot = float(fmt.overflow_threshold)
    sub = float(fmt.min_subnormal)
    vals = [
        0.0, -0.0, math.inf, -math.inf, math.nan,
        mv, ot, math.nextafter(ot, math.inf), math.nextafter(ot, 0.0),
        math.nextafter(mv, math.inf), 2.0 * mv, 1e308, -1e308,
        sub, sub / 2, math.nextafter(sub / 2, math.inf),
        math.nextafter(sub / 2, 0.0), float(fmt.min_normal),
        5e-324, -5e-324, 1.0, -1.0, 1.5, math.pi, -math.pi,
    ]
    return vals + [-v for v in vals]


def sample_doubles(fmt, rng):
    """Boundaries + random doubles + perturbed format values."""
    vals = boundary_doubles(fmt)
    vals += [
        math.ldexp(1.0 + rng.random(), int(e))
        for e in rng.integers(fmt.emin - 8, fmt.emax + 4, 300)
    ]
    finite = [v.to_float() for v in itertools.islice(all_finite(fmt), 800)]
    vals += finite
    vals += [f * (1.0 + 2.0**-40) for f in finite[:300]]
    vals += [-v for v in vals[-100:]]
    return np.array(vals)


def assert_matches_scalar(xs, fmt, mode):
    got = round_doubles_to_bits(xs, fmt, mode)
    want = np.array([round_double_to(float(x), fmt, mode).bits for x in xs])
    bad = got != want
    assert not bad.any(), (
        fmt, mode, xs[bad][:5], got[bad][:5], want[bad][:5],
    )


@pytest.mark.parametrize("fmt", SMALL_FORMATS, ids=lambda f: f.display_name)
@pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
def test_exhaustive_small_formats(fmt, mode):
    xs = np.array(
        [v.to_float() for v in all_finite(fmt)] + boundary_doubles(fmt)
    )
    assert_matches_scalar(xs, fmt, mode)


@pytest.mark.parametrize("fmt", WIDE_FORMATS, ids=lambda f: f.display_name)
@pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
def test_sampled_wide_formats(fmt, mode):
    rng = np.random.default_rng(12345)
    assert_matches_scalar(sample_doubles(fmt, rng), fmt, mode)


@pytest.mark.parametrize(
    "fmt", SMALL_FORMATS + WIDE_FORMATS, ids=lambda f: f.display_name
)
def test_supported(fmt):
    assert supports_vector_rounding(fmt)


def test_decode_round_trips_all_patterns():
    for fmt in (T8, T10, P12):
        vals = np.array([v.to_float() for v in all_finite(fmt)])
        bits = round_doubles_to_bits(vals, fmt, RoundingMode.RTZ)
        back = decode_bits_to_doubles(bits, fmt)
        assert np.array_equal(back.view(np.int64), vals.view(np.int64))


def test_membership_predicate():
    fmt = T10
    members = np.array(
        [v.to_float() for v in itertools.islice(all_finite(fmt), 500)]
        + [math.nan, math.inf, -math.inf, -0.0]
    )
    assert round_doubles_to_bits_checked(members, fmt, RoundingMode.RTZ)[1].all()
    outsiders = np.array(
        [1.0 + 2.0**-50, float(fmt.max_value) * 4.0, 5e-324, math.pi]
    )
    assert not round_doubles_to_bits_checked(outsiders, fmt, RoundingMode.RTZ)[1].any()


@pytest.mark.parametrize(
    "fmt", SMALL_FORMATS + WIDE_FORMATS, ids=lambda f: f.display_name
)
@pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
def test_checked_exactness_matches_decode_back(fmt, mode):
    # The fused exactness mask must agree with the independent
    # round-trip definition (RTZ-encode, decode, bit-compare) on every
    # sample, and be mode-independent.
    rng = np.random.default_rng(987)
    xs = sample_doubles(fmt, rng)
    bits, exact = round_doubles_to_bits_checked(xs, fmt, mode)
    assert np.array_equal(bits, round_doubles_to_bits(xs, fmt, mode))
    back = decode_bits_to_doubles(
        round_doubles_to_bits(xs, fmt, RoundingMode.RTZ), fmt
    )
    same = back.view(np.int64) == xs.view(np.int64)
    want = same | (np.isnan(xs) & np.isnan(back))
    bad = exact != want
    assert not bad.any(), (fmt, mode, xs[bad][:5])


def test_signed_zero_and_nan_canonicalization():
    fmt = T8
    bits = round_doubles_to_bits(
        np.array([0.0, -0.0, math.nan]), fmt, RoundingMode.RNE
    )
    assert bits[0] == round_double_to(0.0, fmt, RoundingMode.RNE).bits
    assert bits[1] == round_double_to(-0.0, fmt, RoundingMode.RNE).bits
    assert bits[0] != bits[1]
    assert bits[2] == round_double_to(math.nan, fmt, RoundingMode.RNE).bits
