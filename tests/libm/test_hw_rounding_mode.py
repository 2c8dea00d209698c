"""Results do not depend on the hardware rounding mode of the caller.

An application may call ``fesetround`` before it calls the library.  The
serving tiers must still return the bits they return under
``FE_TONEAREST``: every mini function, level and IEEE mode through the
vector and compiled tiers, every tiny one through the scalar tier, and
the paper family's shipped ``ln`` and ``log2`` on every finite bfloat16
input at both of its levels.  The mode is set with ctypes in the test's
own thread and always restored.
"""

import contextlib
import ctypes
import ctypes.util
import platform
import sys
from fractions import Fraction

import numpy as np
import pytest

from repro.fp import IEEE_MODES, RoundingMode, all_finite
from repro.funcs import MINI_CONFIG, PAPER_CONFIG, TINY_CONFIG
from repro.libm import compiled
from repro.libm.vround import decode_bits_to_doubles
from repro.mp.oracle import FUNCTION_NAMES, Oracle
from repro.serve import BatchEvaluator, ServingRegistry

#: <fenv.h> constants of glibc per architecture.
_FENV = {
    "x86_64": {"nearest": 0x000, "downward": 0x400, "upward": 0x800,
               "towardzero": 0xC00},
    "aarch64": {"nearest": 0x000000, "upward": 0x400000,
                "downward": 0x800000, "towardzero": 0xC00000},
}
FE = _FENV.get(platform.machine())
LIBM = (
    ctypes.CDLL(ctypes.util.find_library("m"))
    if sys.platform.startswith("linux") and FE is not None
    else None
)
if LIBM is not None:
    LIBM.fegetround.argtypes = []
    LIBM.fegetround.restype = ctypes.c_int
    LIBM.fesetround.argtypes = [ctypes.c_int]
    LIBM.fesetround.restype = ctypes.c_int
pytestmark = pytest.mark.skipif(
    LIBM is None, reason="needs glibc fesetround on x86_64 or aarch64"
)
DIRECTED = ("downward", "upward", "towardzero")
HAS_GCC = compiled.find_compiler() is not None
needs_gcc = pytest.mark.skipif(not HAS_GCC, reason="no gcc on PATH")


@contextlib.contextmanager
def hardware_mode(name):
    """Run the block under one hardware rounding mode of this thread."""
    before = LIBM.fegetround()
    assert LIBM.fesetround(FE[name]) == 0
    try:
        yield
    finally:
        LIBM.fesetround(before)


def finite_doubles(fmt):
    """Every finite input of ``fmt``, as doubles."""
    return decode_bits_to_doubles(
        np.array([v.bits for v in all_finite(fmt)], dtype=np.int64), fmt
    )


def bits_by_case(evaluator, tier, config, fn, inputs=None):
    """``{(level, mode): bits}`` over ``inputs`` at every level (default:
    each level's own finite inputs), all answered by ``tier``."""
    out = {}
    for level, fmt in enumerate(config.formats):
        xs = finite_doubles(fmt) if inputs is None else inputs
        for mode in IEEE_MODES:
            res = evaluator.evaluate(fn, xs, level=level, mode=mode)
            assert set(res.tiers) == {tier}
            out[level, mode] = res.bits_array.copy()
    return out


def pinned(config, tier):
    return BatchEvaluator(ServingRegistry(config.name), tiers=(tier,))


def assert_mode_independent(config, tier, fns=FUNCTION_NAMES, inputs=None):
    evaluator = pinned(config, tier)
    for fn in fns:
        want = bits_by_case(evaluator, tier, config, fn, inputs)
        for hw in DIRECTED:
            with hardware_mode(hw):
                got = bits_by_case(evaluator, tier, config, fn, inputs)
            for case, bits in want.items():
                bad = np.flatnonzero(got[case] != bits)
                assert bad.size == 0, (fn, hw, case, bad[:5])


@pytest.mark.parametrize("tier", [
    "vector", pytest.param("compiled", marks=needs_gcc),
])
def test_mini_tiers_ignore_the_hardware_mode(tier):
    assert_mode_independent(MINI_CONFIG, tier)


def test_tiny_scalar_tier_ignores_the_hardware_mode():
    assert_mode_independent(TINY_CONFIG, "scalar")


@pytest.mark.parametrize("tier", [
    "vector", pytest.param("compiled", marks=needs_gcc),
])
def test_paper_bfloat16_inputs_ignore_the_hardware_mode(tier):
    """The shipped paper ``ln`` and ``log2`` on all 65,280 finite
    bfloat16 inputs, rounded to bfloat16 and to tensorfloat32."""
    bfloat16 = PAPER_CONFIG.formats[0]
    assert bfloat16.total_bits == 16
    assert_mode_independent(
        PAPER_CONFIG, tier, fns=("ln", "log2"), inputs=finite_doubles(bfloat16)
    )


@pytest.mark.parametrize("tier", [
    "vector", "scalar", pytest.param("compiled", marks=needs_gcc),
])
@pytest.mark.parametrize("hw", ("nearest",) + DIRECTED)
def test_exact_powers_of_ten(tier, hw):
    """exp10(2) with RTZ at p16 is 100 exactly (pattern 22080), and the
    logs of 10, 100 and 1000 with RTP are the oracle's answers."""
    evaluator = pinned(MINI_CONFIG, tier)
    oracle = Oracle()
    fmt = MINI_CONFIG.formats[-1]
    xs = [10.0, 100.0, 1000.0]
    want = [
        oracle.correctly_rounded("log10", Fraction(x), fmt, RoundingMode.RTP).bits
        for x in xs
    ]
    with hardware_mode(hw):
        exp10 = evaluator.evaluate("exp10", [2.0], fmt="p16", mode="rtz")
        log10 = evaluator.evaluate("log10", xs, fmt="p16", mode="rtp")
    assert exp10.bits == [22080]
    assert log10.bits == want


@needs_gcc
def test_kernel_first_built_under_a_directed_mode(tmp_path, monkeypatch):
    """A compiled kernel built and loaded under ``FE_DOWNWARD`` answers
    like the vector tier does under ``FE_TONEAREST``."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(compiled, "_LOADED", {})
    evaluator = pinned(MINI_CONFIG, "compiled")
    with hardware_mode("downward"):
        first = evaluator.evaluate("exp10", [2.0], fmt="p16", mode="rtz")
    assert first.tiers == ["compiled"]
    assert first.bits == [22080]
    got = bits_by_case(evaluator, "compiled", MINI_CONFIG, "exp10")
    want = bits_by_case(pinned(MINI_CONFIG, "vector"), "vector", MINI_CONFIG, "exp10")
    for case, bits in want.items():
        assert np.array_equal(got[case], bits), case
