"""End-to-end generation on the tiny family."""

import math
from fractions import Fraction

import pytest

from repro.core import (
    collect_constraints,
    evaluate_generated,
    generate_function,
    runtime_interval_failures,
)
from repro.core.search import (
    GeneratedFunction,
    GenerationError,
    Piece,
    _absorb_runtime_failures,
    _split_by_r,
    round_sizes,
)
from repro.core.polynomial import ProgressivePolynomial
from repro.fp import RoundingMode, all_finite, round_real
from repro.funcs import TINY_CONFIG, make_pipeline


class TestGenerateFunction:
    def test_exp2_succeeds(self, tiny_generated):
        pipe, gen = tiny_generated("exp2")
        assert gen.name == "exp2"
        assert gen.num_pieces >= 1
        assert gen.stats.constraints > 100
        assert gen.stats.wall_seconds > 0

    def test_term_counts_monotone(self, tiny_generated):
        for name in ("exp2", "log2", "sinh"):
            _, gen = tiny_generated(name)
            for piece in gen.pieces:
                counts = piece.poly.term_counts
                for lo_counts, hi_counts in zip(counts, counts[1:]):
                    assert all(a <= b for a, b in zip(lo_counts, hi_counts))

    def test_progressive_gap_log(self, tiny_generated):
        # T8's mantissa equals the log table width, so its reduced input is
        # always 0 and one term (or none) suffices: a strict gap.
        _, gen = tiny_generated("log2")
        counts = gen.pieces[0].poly.term_counts
        assert counts[0][0] < counts[-1][0]

    def test_no_runtime_failures_after_generation(self, tiny_generated, oracle):
        pipe, gen = tiny_generated("log2")
        constraints, _ = collect_constraints(pipe)
        assert runtime_interval_failures(pipe, gen, constraints) == []

    def test_specials_within_budget(self, tiny_generated):
        for name in ("exp2", "log2", "sinpi", "cosh"):
            _, gen = tiny_generated(name)
            assert len(gen.specials) <= 4 * gen.num_pieces

    def test_correctly_rounded_exhaustive_rne(self, tiny_generated, oracle):
        pipe, gen = tiny_generated("exp2")
        for level, fmt in enumerate(TINY_CONFIG.formats):
            for v in all_finite(fmt):
                xd = v.to_float()
                y = evaluate_generated(pipe, gen, xd, level)
                if math.isnan(y):
                    continue
                want = oracle.correctly_rounded(
                    "exp2", v.value, fmt, RoundingMode.RNE
                )
                if math.isinf(y):
                    got = round_real(
                        Fraction(2) ** 3000 * (1 if y > 0 else -1), fmt, RoundingMode.RNE
                    )
                else:
                    got = round_real(Fraction(y) if y else Fraction(0), fmt, RoundingMode.RNE)
                assert got.bits == want.bits or (
                    got.bits & ~fmt.sign_mask == 0 and want.bits & ~fmt.sign_mask == 0
                ), (xd, level)

    def test_piece_dispatch(self, tiny_generated):
        _, gen = tiny_generated("exp2")
        if gen.num_pieces == 1:
            assert gen.piece_for(0.0) is gen.pieces[0].poly
        else:
            assert gen.piece_for(-1e9) is gen.pieces[0].poly
            assert gen.piece_for(1e9) is gen.pieces[-1].poly

    def test_storage_accounting(self, tiny_generated):
        _, gen = tiny_generated("exp2")
        total_coeffs = sum(
            sum(len(cs) for cs in p.poly.coefficients) for p in gen.pieces
        )
        assert gen.storage_bytes == 8 * total_coeffs


class TestGenerationError:
    """The search's failure paths: budget exhaustion must raise, not loop."""

    def test_term_budget_exhaustion_raises(self, oracle):
        # exp2 on the tiny family cannot fit a single term even with the
        # maximum 4 sub-domains: phase 1 of _try_config never satisfies
        # the system, every nsplits attempt fails, and the outer loop
        # must surface a GenerationError naming the budgets.
        pipe = make_pipeline("exp2", TINY_CONFIG, oracle)
        with pytest.raises(GenerationError, match=r"within 1 terms and 1 sub-domains"):
            generate_function(pipe, max_terms=1, max_subdomains=1)

    def test_exhaustion_respects_subdomain_budget(self, oracle):
        pipe = make_pipeline("exp2", TINY_CONFIG, oracle)
        with pytest.raises(GenerationError) as err:
            generate_function(pipe, max_terms=1, max_subdomains=4)
        # The give-up message names the budgets and the last round's reason.
        assert str(err.value) == (
            "could not generate exp2 within 1 terms and 4 sub-domains "
            "(exp2: unsatisfiable sub-domain at 4 splits)"
        )

    def test_zero_subdomains_rejected_before_the_sweep(self, oracle):
        pipe = make_pipeline("log2", TINY_CONFIG, oracle)
        calls = oracle.stats.calls
        with pytest.raises(ValueError, match="max_subdomains"):
            generate_function(pipe, max_subdomains=0)
        assert oracle.stats.calls == calls

    def _zeroed(self, gen):
        """A copy of ``gen`` whose every coefficient is zero: the runtime
        re-check fails on nearly every input."""
        pieces = []
        for p in gen.pieces:
            poly = ProgressivePolynomial(
                shapes=p.poly.shapes,
                coefficients=tuple(
                    tuple(0.0 for _ in group) for group in p.poly.coefficients
                ),
                term_counts=p.poly.term_counts,
            )
            pieces.append(Piece(poly, p.r_max))
        return GeneratedFunction(gen.name, gen.family_name, pieces, {})

    def test_runtime_failure_cap_raises(self, tiny_generated, oracle):
        pipe, gen = tiny_generated("exp2")
        broken = self._zeroed(gen)
        constraints, _ = collect_constraints(pipe)
        with pytest.raises(GenerationError, match=r"exceed the special-case budget"):
            _absorb_runtime_failures(pipe, broken, constraints, budget=4)

    def test_runtime_failures_within_budget_become_specials(
        self, tiny_generated, oracle
    ):
        # The clean artifact has zero residual failures, so any budget
        # absorbs them and the specials dict is unchanged.
        pipe, gen = tiny_generated("log2")
        constraints, _ = collect_constraints(pipe)
        before = dict(gen.specials)
        _absorb_runtime_failures(pipe, gen, constraints, budget=0)
        assert gen.specials == before


class TestSplitByR:
    def make_constraints(self, pipe):
        cons, _ = collect_constraints(pipe)
        return cons

    def test_single_split_identity(self, oracle):
        pipe = make_pipeline("exp2", TINY_CONFIG, oracle)
        cons = self.make_constraints(pipe)
        buckets, bounds = _split_by_r(cons, 1)
        assert bounds == []
        assert len(buckets[0]) == len(cons)

    def test_two_way_split_partitions(self, oracle):
        pipe = make_pipeline("exp2", TINY_CONFIG, oracle)
        cons = self.make_constraints(pipe)
        buckets, bounds = _split_by_r(cons, 2)
        assert len(bounds) == 1
        assert sum(len(b) for b in buckets) == len(cons)
        # bisect_right semantics: the bound itself belongs to the upper
        # bucket, both here and in GeneratedFunction.piece_for.
        assert all(float(c.x) < bounds[0] for c in buckets[0])
        assert all(float(c.x) >= bounds[0] for c in buckets[1])


class TestCollectConstraints:
    def test_merging_reduces_rows(self, oracle):
        pipe = make_pipeline("cosh", TINY_CONFIG, oracle)
        cons, specials = collect_constraints(pipe)
        # cosh is even: +x and -x merge, so there must be multi-tag rows.
        assert any(len(c.tags) > 1 for c in cons)

    def test_intervals_nonempty(self, oracle):
        pipe = make_pipeline("exp2", TINY_CONFIG, oracle)
        cons, _ = collect_constraints(pipe)
        for c in cons:
            if c.lo is not None and c.hi is not None:
                assert c.lo <= c.hi

    def test_levels_have_wider_intervals_when_smaller(self, oracle):
        # A value present at both levels: the smaller format's interval
        # must contain the larger format's (coarser grid, more freedom).
        pipe = make_pipeline("exp2", TINY_CONFIG, oracle)
        cons, _ = collect_constraints(pipe)
        by_x = {}
        for c in cons:
            if c.lo is None or c.hi is None:
                continue
            by_x.setdefault(c.x, {})[c.level] = c
        shared = 0
        for x, per_level in by_x.items():
            if 0 in per_level and 1 in per_level:
                small, big = per_level[0], per_level[1]
                if small.tags[0][1] == big.tags[0][1]:  # same input value
                    shared += 1
                    assert small.hi - small.lo >= (big.hi - big.lo) / 2
        assert shared > 10


class TestRounds:
    """The round sizes alone: no pipeline, no search."""

    @pytest.mark.parametrize(
        "max_subdomains, sizes",
        [(1, [1]), (2, [1, 2]), (3, [1, 2]), (4, [1, 2, 4]), (8, [1, 2, 4, 8])],
    )
    def test_split_counts_double_within_the_budget(self, max_subdomains, sizes):
        assert round_sizes(max_subdomains) == sizes

    @pytest.mark.parametrize("max_subdomains", [0, -1])
    def test_budget_without_a_round_is_rejected(self, max_subdomains):
        with pytest.raises(ValueError, match="max_subdomains"):
            round_sizes(max_subdomains)
