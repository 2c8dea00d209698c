"""The comparison libraries: minimax, crlibm-style, generated adapters."""

import random
import time

import pytest

from repro.core import collect_constraints, generate_function
from repro.core.rlibm_all import generate_rlibm_all
from repro.fp import IEEE_MODES, RoundingMode, T10, all_finite, sample_finite
from repro.funcs import PAPER_CONFIG, TINY_CONFIG, make_pipeline
from repro.libm.baselines import (
    CrlibmStyleLibrary,
    GeneratedLibrary,
    build_minimax_function,
    build_minimax_library,
    kernel_functions,
    reduced_domain,
    wide_family_for,
    wide_format_for,
    wide_inputs_for,
)


class TestKernelMetadata:
    def test_all_functions_covered(self, oracle):
        from repro.funcs import PIPELINES

        for name in PIPELINES:
            pipe = make_pipeline(name, TINY_CONFIG, oracle)
            kernels = kernel_functions(pipe)
            assert len(kernels) == pipe.num_polys
            a, b = reduced_domain(pipe)
            assert a < b

    def test_kernels_match_pipeline_semantics(self, oracle):
        # exp2's kernel at r should equal 2^r.
        pipe = make_pipeline("exp2", TINY_CONFIG, oracle)
        (k,) = kernel_functions(pipe)
        assert k(0.25) == pytest.approx(2**0.25)


class TestMinimaxLibrary:
    @pytest.fixture(scope="class")
    def glibc_like(self, oracle):
        return build_minimax_library(
            TINY_CONFIG, ["exp2", "log2"], extra_bits=0, label="glibc-like",
            oracle=oracle,
        )

    def test_accurate_in_double(self, glibc_like, oracle):
        f = glibc_like
        pipe = f.pipelines["exp2"]
        for v in list(all_finite(T10))[::37]:
            xd = v.to_float()
            if pipe.special_value(xd) is not None:
                continue  # clamps / exact paths, not the polynomial
            y = f.raw("exp2", xd, 1)
            true = float(oracle.tight_value("exp2", v.value, 60))
            assert abs(y - true) / abs(true) < 2.0 ** -(T10.precision - 1)

    def test_not_correctly_rounded_everywhere(self, glibc_like, oracle):
        # A ~1-ulp library must be wrong for at least one (input, mode) on
        # the largest tiny format.
        wrong = 0
        for v in all_finite(T10):
            if not v.is_finite:
                continue
            for mode in IEEE_MODES:
                got = glibc_like.rounded("exp2", v, mode, 1)
                want = oracle.correctly_rounded("exp2", v.value, T10, mode)
                if got.bits != want.bits and not (
                    got.bits & ~T10.sign_mask == 0 and want.bits & ~T10.sign_mask == 0
                ):
                    wrong += 1
        assert wrong > 0
        # ... but it is *mostly* correct (about 1 ulp accurate).
        assert wrong < 0.05 * 6 * T10.num_bit_patterns

    def test_intel_like_more_terms(self, oracle):
        pipe = make_pipeline("exp2", TINY_CONFIG, oracle)
        glibc = build_minimax_function(pipe, extra_bits=0)
        intel = build_minimax_function(pipe, extra_bits=5)
        assert (
            intel.pieces[0].poly.term_counts[-1][0]
            >= glibc.pieces[0].poly.term_counts[-1][0]
        )


class TestCrlibmStyle:
    def test_wide_format_construction(self):
        w = wide_format_for(TINY_CONFIG, 4)
        assert w.total_bits == TINY_CONFIG.largest.total_bits + 4
        assert w.exponent_bits == TINY_CONFIG.largest.exponent_bits
        fam = wide_family_for(TINY_CONFIG, 4)
        assert fam.levels == 1
        assert fam.name == "tinywide"

    def test_wide_inputs_map_sampled_paper_levels(self):
        # float32 cannot be enumerated: the caller's per-level inputs,
        # sampled where a level is too large, are mapped into W as given.
        rng = random.Random(0)
        bf16, tf32, f32 = PAPER_CONFIG.formats
        per_level = [
            list(all_finite(bf16)),
            sample_finite(tf32, 8192, rng),
            sample_finite(f32, 8192, rng),
        ]
        wide = wide_family_for(PAPER_CONFIG)
        t0 = time.perf_counter()
        (mapped,) = wide_inputs_for(per_level, wide)
        assert time.perf_counter() - t0 < 10
        assert {w.fmt for w in mapped} == {wide.largest}
        # Every W value equals its source value, in order, once each
        # (both zeros are one value).
        sources = dict.fromkeys(v.value for level in per_level for v in level)
        assert [w.value for w in mapped] == list(sources)

    @pytest.fixture(scope="class")
    def crlibm_like(self, oracle):
        wide_family = wide_family_for(TINY_CONFIG, 4)
        pipe = make_pipeline("exp2", wide_family, oracle)
        # Generate from the tiny family's inputs expressed in W.
        wide_inputs = wide_inputs_for(
            [list(all_finite(fmt)) for fmt in TINY_CONFIG.formats], wide_family
        )
        gen = generate_function(pipe, inputs_per_level=wide_inputs)
        wide_lib = GeneratedLibrary({"exp2": pipe}, {"exp2": gen}, label="wide")
        return CrlibmStyleLibrary(wide_lib, wide_family.largest)

    def test_correct_at_wide_format(self, crlibm_like, oracle):
        w = crlibm_like.wide_format
        for v in list(all_finite(T10))[::17]:
            xd = v.to_float()
            y = crlibm_like.wide.raw("exp2", xd, 0)
            from repro.libm import round_double_to

            got = round_double_to(y, w, RoundingMode.RNE)
            want = oracle.correctly_rounded("exp2", v.value, w, RoundingMode.RNE)
            assert got.bits == want.bits

    def test_double_rounding_makes_errors(self, crlibm_like, oracle):
        """Repurposing the wide-format CR library for T10 must produce at
        least one wrong result — the paper's CR-LIBM column."""
        wrong = 0
        for v in all_finite(T10):
            for mode in (RoundingMode.RNE,):
                got = crlibm_like.rounded("exp2", v, mode, 1)
                want = oracle.correctly_rounded("exp2", v.value, T10, mode)
                if got.bits != want.bits and not (
                    got.bits & ~T10.sign_mask == 0 and want.bits & ~T10.sign_mask == 0
                ):
                    wrong += 1
        assert wrong > 0
        # The tiny wide format has only 4 extra bits, so double rounding
        # bites a few percent of inputs; it must still be rare.
        assert wrong < 0.10 * T10.num_bit_patterns


class TestGeneratedLibraryAdapters:
    def test_progressive_vs_full(self, oracle, tiny_generated):
        pipe, gen = tiny_generated("exp2")
        prog = GeneratedLibrary({"exp2": pipe}, {"exp2": gen}, label="prog")
        flat = GeneratedLibrary(
            {"exp2": pipe}, {"exp2": gen}, label="flat", progressive=False
        )
        # The non-progressive adapter always evaluates the full polynomial.
        assert flat.raw("exp2", 0.21875, 0) == prog.raw("exp2", 0.21875, 1)

    def test_rlibm_all_adapter_correct(self, oracle):
        pipe = make_pipeline("exp2", TINY_CONFIG, oracle)
        cons, _ = collect_constraints(pipe)
        gen = generate_rlibm_all(pipe, cons, max_terms=5)
        lib = GeneratedLibrary(
            {"exp2": pipe}, {"exp2": gen}, label="rlibm-all", progressive=False
        )
        for v in list(all_finite(T10))[::13]:
            got = lib.rounded("exp2", v, RoundingMode.RNE, 1)
            want = oracle.correctly_rounded("exp2", v.value, T10, RoundingMode.RNE)
            assert got.bits == want.bits or (
                got.bits & ~T10.sign_mask == 0 and want.bits & ~T10.sign_mask == 0
            )
