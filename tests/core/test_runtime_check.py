"""The batched runtime check against the per-tag one it replaced.

:func:`repro.core.search.runtime_interval_failures` runs the vector
kernel once per level and compares round-to-odd patterns; the reference
(:mod:`tests.core.reference`) runs the scalar runtime per tag and tests
membership in the oracle result's ``rounding_interval``.  Both must
return the same ``(level, x)`` list, in order.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro.core import collect_constraints, runtime_interval_failures
from repro.core.polynomial import ProgressivePolynomial
from repro.core.search import GeneratedFunction, Piece, _escapes_ro
from repro.fp import FPValue, RoundingMode
from repro.fp.format import FLOAT64
from repro.fp.rounding import round_real
from repro.funcs import TINY_CONFIG, make_pipeline
from repro.libm.artifacts import load_generated
from repro.libm.vround import decode_bits_to_doubles
from repro.mp.oracle import FUNCTION_NAMES

from .reference import reference_runtime_failures, ro_interval_contains


def _scaled(gen, factor, specials):
    """``gen`` with every coefficient times ``factor`` and ``specials``
    as its special-case table: a candidate the search has not finished."""
    pieces = []
    for piece in gen.pieces:
        poly = piece.poly
        coeffs = tuple(tuple(c * factor for c in g) for g in poly.coefficients)
        pieces.append(Piece(
            ProgressivePolynomial(poly.shapes, coeffs, poly.term_counts),
            piece.r_max,
        ))
    return GeneratedFunction(gen.name, gen.family_name, pieces, dict(specials))


@pytest.mark.parametrize("fn", FUNCTION_NAMES)
def test_same_failures_as_reference(fn, oracle):
    pipe = make_pipeline(fn, TINY_CONFIG, oracle)
    constraints, forced = collect_constraints(pipe)
    shipped = load_generated(fn, "tiny")
    candidates = [
        shipped,
        _scaled(shipped, 1 + Fraction(1, 1 << 9), forced),
        _scaled(shipped, 1 - Fraction(1, 1 << 12), forced),
    ]
    escapes = 0
    for gen in candidates:
        got = runtime_interval_failures(pipe, gen, constraints)
        assert got == reference_runtime_failures(pipe, gen, constraints)
        escapes += len(got)
    assert runtime_interval_failures(pipe, shipped, constraints) == []
    if fn not in ("ln", "log2", "log10"):
        assert escapes > 0  # the scaled candidates do leave some intervals


def _probe_doubles(fmt) -> np.ndarray:
    """Every value of ``fmt``, its neighbouring doubles and the midpoints
    between consecutive values, plus signed zeros, infinities and NaN."""
    mags = decode_bits_to_doubles(
        np.arange(FPValue.max_finite(fmt).bits + 1, dtype=np.int64), fmt
    )
    mids = (mags[:-1] + mags[1:]) / 2
    pos = np.concatenate([
        mags, mids, np.nextafter(mags, np.inf), np.nextafter(mags, 0.0),
        [2.0 * mags[-1], 5e-324, 1e300],
    ])
    return np.concatenate([pos, -pos, [0.0, -0.0, np.inf, -np.inf, np.nan]])


def _assert_rule_matches_intervals(target, ys):
    """Each double against its own RTO rounding, both neighbouring
    patterns, both zeros, the largest finite values and both infinities."""
    top = FPValue.max_finite(target).bits
    sign = target.sign_mask
    fixed = [0, sign, top, sign | top, FPValue.infinity(target).bits,
             FPValue.infinity(target, sign=1).bits]
    for y in ys.tolist():
        if np.isnan(y):
            own = FPValue.nan(target).bits
        elif np.isinf(y):
            own = (sign if y < 0 else 0) | top
        else:
            own = round_real(y, target, RoundingMode.RTO).bits
        wants = {own, *fixed}
        if own & (sign - 1) not in (0, top):
            wants |= {own - 1, own + 1}
        wants = sorted(w for w in wants if not FPValue(target, w).is_nan)
        got = _escapes_ro(np.full(len(wants), y), wants, target)
        want = [not ro_interval_contains(FPValue(target, w), y) for w in wants]
        assert got.tolist() == want, (y, wants)


def test_escape_rule_is_the_interval_rule():
    target = TINY_CONFIG.ro_target(0)
    _assert_rule_matches_intervals(target, _probe_doubles(target))


def test_escape_rule_outside_the_vector_envelope():
    # A double-width target has no vector rounding: the scalar path.
    rng = np.random.default_rng(5)
    ys = rng.integers(0, 1 << 63, 300, dtype=np.int64).view(np.float64)
    ys = np.concatenate([ys, -ys, [0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan]])
    _assert_rule_matches_intervals(FLOAT64, ys)
