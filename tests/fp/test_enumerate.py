"""Enumeration and sampling of format inputs."""

import random

import pytest

from repro import api
from repro.core import collect_constraints
from repro.fp import (
    FLOAT32,
    Kind,
    T8,
    T10,
    all_finite,
    all_patterns,
    count_finite,
    sample_finite,
    stratified_sample,
)
from repro.fp.enumerate import EXHAUSTIVE_LIMIT
from repro.funcs import PAPER_CONFIG, make_pipeline
from repro.mp import Oracle
from repro.verify import verify_exhaustive


class TestAllFinite:
    def test_count_matches(self):
        vals = list(all_finite(T8))
        assert len(vals) == count_finite(T8)
        assert all(v.is_finite for v in vals)

    def test_includes_both_zeros(self):
        bits = {v.bits for v in all_finite(T8)}
        assert 0 in bits and T8.sign_mask in bits

    def test_no_specials(self):
        assert all(not v.is_nan and not v.is_infinity for v in all_finite(T10))


class TestEnumerationLimit:
    """float32 has 2^32 patterns: every entry point that would enumerate
    them raises the same error at once, before building any input."""

    MESSAGE = (
        f"float32 has {1 << 32} bit patterns, more than the "
        f"{EXHAUSTIVE_LIMIT} enumerated one by one; pass sampled inputs instead"
    )

    @pytest.mark.parametrize("entry", [
        pytest.param(lambda tmp: all_finite(FLOAT32), id="all_finite"),
        pytest.param(
            # The library is never asked: the check comes first.
            lambda tmp: verify_exhaustive(None, "log2", FLOAT32, 2, Oracle()),
            id="verify_exhaustive",
        ),
        pytest.param(
            # Level 0 (bfloat16) is not verified, nor the missing
            # artifact loaded, before level 2 is rejected.
            lambda tmp: api.verify("log2", "paper", levels=[0, 2], directory=tmp),
            id="api.verify",
        ),
        pytest.param(
            lambda tmp: collect_constraints(
                make_pipeline("log2", PAPER_CONFIG, Oracle())
            ),
            id="collect_constraints",
        ),
    ])
    def test_float32_rejected_at_once(self, entry, tmp_path):
        with pytest.raises(ValueError) as err:
            entry(tmp_path)
        assert str(err.value) == self.MESSAGE


class TestAllPatterns:
    def test_complete(self):
        pats = list(all_patterns(T8))
        assert len(pats) == T8.num_bit_patterns
        kinds = {v.kind for v in pats}
        assert kinds == set(Kind)


class TestSampleFinite:
    def test_small_space_returns_everything(self):
        vals = sample_finite(T8, 10**6)
        assert len(vals) == count_finite(T8)

    def test_requested_size(self):
        vals = sample_finite(T10, 100, random.Random(0))
        assert len(vals) == 100
        assert all(v.is_finite for v in vals)

    def test_deterministic_with_seed(self):
        a = [v.bits for v in sample_finite(T10, 50, random.Random(3))]
        b = [v.bits for v in sample_finite(T10, 50, random.Random(3))]
        assert a == b

    def test_large_space_sampling(self):
        vals = sample_finite(FLOAT32, 200, random.Random(2))
        assert len(vals) == 200
        assert all(v.is_finite for v in vals)


class TestStratifiedSample:
    def test_covers_every_binade_and_sign(self):
        vals = stratified_sample(T10, per_binade=2, rng=random.Random(0))
        seen = {(v.sign, v.exponent_field) for v in vals}
        # Every non-special exponent field for both signs.
        expected = {
            (s, e) for s in (0, 1) for e in range(0, (1 << T10.exponent_bits) - 1)
        }
        assert seen == expected

    def test_small_mantissa_space_exhaustive(self):
        vals = stratified_sample(T8, per_binade=100, rng=random.Random(0))
        # T8 has 8 mantissas per binade: all of them taken.
        per = {}
        for v in vals:
            per.setdefault((v.sign, v.exponent_field), set()).add(v.mantissa_field)
        assert all(len(m) == 1 << T8.mantissa_bits for m in per.values())

    def test_float32_scale(self):
        vals = stratified_sample(FLOAT32, per_binade=4, rng=random.Random(0))
        assert len(vals) == 2 * 255 * 4
