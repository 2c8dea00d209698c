"""The array verifier against the scalar one it replaced.

Every report field that a caller can see — ``total_checks``, ``wrong``,
``by_mode`` and the recorded failures in order — must equal the
reference's (:mod:`tests.verify.reference`): the shipped tiny artifacts
exhaustively, the mini artifacts on a seeded sample of every level,
broken libraries on both the vector and the scalar path, the
non-progressive adapter, and a format outside the vector envelope.
"""

import random
from fractions import Fraction

import pytest

from repro.core.polynomial import ProgressivePolynomial
from repro.core.search import GeneratedFunction, Piece
from repro.fp import IEEE_MODES, FPValue, RoundingMode, T8, T10
from repro.fp.enumerate import sample_finite
from repro.fp.format import FLOAT64
from repro.funcs import MINI_CONFIG, TINY_CONFIG, make_pipeline
from repro.libm.artifacts import load_generated
from repro.libm.baselines import GeneratedLibrary, Library
from repro.mp.oracle import FUNCTION_NAMES
from repro.verify import verify_exhaustive

from .reference import reference_verify

ALL_MODES = tuple(IEEE_MODES) + (RoundingMode.RTO,)
MINI_SAMPLE = 1000


def _fields(rep):
    return rep.total_checks, rep.wrong, rep.by_mode, rep.failures


def _shipped(fn, config, oracle, **kw):
    gen = load_generated(fn, config.name)
    return GeneratedLibrary(
        {fn: make_pipeline(fn, config, oracle)}, {fn: gen}, **kw
    )


def _assert_same(lib, fn, fmt, level, oracle, inputs=None, modes=ALL_MODES):
    got = verify_exhaustive(lib, fn, fmt, level, oracle, modes, inputs)
    want = reference_verify(lib, fn, fmt, level, oracle, modes, inputs)
    assert _fields(got) == _fields(want), (fn, fmt, level)
    return got


@pytest.mark.parametrize("fn", FUNCTION_NAMES)
def test_tiny_exhaustive_matches_reference(fn, oracle):
    lib = _shipped(fn, TINY_CONFIG, oracle)
    for level, fmt in enumerate(TINY_CONFIG.formats):
        rep = _assert_same(lib, fn, fmt, level, oracle)
        assert rep.all_correct


@pytest.mark.parametrize("fn", FUNCTION_NAMES)
def test_mini_sample_matches_reference(fn, oracle):
    lib = _shipped(fn, MINI_CONFIG, oracle)
    for level, fmt in enumerate(MINI_CONFIG.formats):
        inputs = sample_finite(fmt, MINI_SAMPLE, random.Random(level))
        rep = _assert_same(lib, fn, fmt, level, oracle, inputs)
        assert rep.total_checks == MINI_SAMPLE * len(ALL_MODES)
        assert rep.all_correct


class _BrokenLibrary(Library):
    """Off by a relative 2**-8 everywhere (the scalar, base-class path)."""

    label = "broken"

    def __init__(self, inner):
        self.inner = inner

    def raw(self, fn, xd, level):
        return self.inner.raw(fn, xd, level) * (1.0 + 2.0**-8)


def _corrupted(gen):
    """``gen`` with every coefficient scaled by 1 + 2**-9."""
    pieces = []
    for piece in gen.pieces:
        poly = piece.poly
        coeffs = tuple(
            tuple(c * (1 + Fraction(1, 1 << 9)) for c in group)
            for group in poly.coefficients
        )
        pieces.append(Piece(
            ProgressivePolynomial(poly.shapes, coeffs, poly.term_counts),
            piece.r_max,
        ))
    return GeneratedFunction(gen.name, gen.family_name, pieces, dict(gen.specials))


@pytest.mark.parametrize("fn", ["exp2", "log2", "sinpi"])
def test_broken_libraries_match_reference(fn, oracle):
    lib = _shipped(fn, TINY_CONFIG, oracle)
    corrupt = GeneratedLibrary(
        lib.pipelines, {fn: _corrupted(lib.functions[fn])}, label="corrupt"
    )
    for broken in (_BrokenLibrary(lib), corrupt):
        wrong = sum(
            _assert_same(broken, fn, fmt, level, oracle).wrong
            for level, fmt in enumerate(TINY_CONFIG.formats)
        )
        assert wrong > 0, broken.label


def test_non_progressive_adapter_matches_reference(oracle):
    lib = _shipped("cosh", TINY_CONFIG, oracle, progressive=False)
    _assert_same(lib, "cosh", T8, 0, oracle)


def test_scalar_fallback_outside_vector_envelope(oracle):
    # float64 inputs: no vector rounding, so the library rounds one input
    # at a time on the same bit-array harness (object-dtype patterns).
    lib = _shipped("log2", TINY_CONFIG, oracle)
    inputs = sample_finite(FLOAT64, 12, random.Random(3)) + [
        FPValue(FLOAT64, 0), FPValue(FLOAT64, FLOAT64.sign_mask),
    ]
    rep = _assert_same(
        lib, "log2", FLOAT64, 1, oracle, inputs, modes=(RoundingMode.RNE,)
    )
    assert rep.total_checks == len(inputs)
    assert rep.wrong > 0  # a t10 polynomial is no float64 log2


def test_duck_typed_library_with_scalar_rounding_only(oracle):
    inner = _shipped("exp2", TINY_CONFIG, oracle)

    class Scalar:
        label = "scalar-only"

        def rounded(self, fn, v, mode, level):
            return inner.rounded(fn, v, mode, level)

    rep = _assert_same(Scalar(), "exp2", T10, 1, oracle)
    assert rep.all_correct
