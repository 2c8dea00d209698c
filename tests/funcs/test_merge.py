"""merge_constraints: interval intersection and forced special cases."""

from fractions import Fraction

from repro.funcs.base import GenOutcome, merge_constraints

from ..helpers import exact_bounds, reduced

F = Fraction


def outcome(x, level, lo, hi, mults=(F(1),), tag=None):
    return GenOutcome(
        constraint=reduced(
            x, level, lo, hi, mults, tags=(tag or (level, float(x)),)
        )
    )


def special_output(level, xd):
    return 42.0  # sentinel


class TestMerging:
    def test_distinct_keys_pass_through(self):
        outs = [
            outcome(1, 0, F(0), F(1)),
            outcome(2, 0, F(0), F(1)),
            outcome(1, 1, F(0), F(1)),
        ]
        merged, specials = merge_constraints(outs, special_output)
        assert len(merged) == 3
        assert not specials

    def test_same_key_intersects(self):
        outs = [
            outcome(1, 0, F(0), F(10), tag=(0, 1.0)),
            outcome(1, 0, F(5), F(20), tag=(0, -1.0)),
        ]
        merged, specials = merge_constraints(outs, special_output)
        assert len(merged) == 1
        c = merged[0]
        assert exact_bounds(c) == (F(5), F(10))
        assert set(c.tags) == {(0, 1.0), (0, -1.0)}
        assert not specials

    def test_conflict_becomes_special(self):
        outs = [
            outcome(1, 0, F(0), F(1), tag=(0, 1.0)),
            outcome(1, 0, F(2), F(3), tag=(0, -1.0)),
        ]
        merged, specials = merge_constraints(outs, special_output)
        assert len(merged) == 1
        assert merged[0].tags == ((0, 1.0),)
        assert specials == {(0, -1.0): 42.0}

    def test_explicit_special_outcomes_collected(self):
        outs = [
            GenOutcome(special=(1, 0.5, 7.0)),
            outcome(1, 0, F(0), F(1)),
        ]
        merged, specials = merge_constraints(outs, special_output)
        assert specials == {(1, 0.5): 7.0}
        assert len(merged) == 1

    def test_different_mults_not_merged(self):
        outs = [
            outcome(1, 0, F(0), F(1), mults=(F(2),)),
            outcome(1, 0, F(5), F(6), mults=(F(3),)),
        ]
        merged, _ = merge_constraints(outs, special_output)
        assert len(merged) == 2

    def test_none_constraints_skipped(self):
        merged, specials = merge_constraints([GenOutcome()], special_output)
        assert merged == [] and specials == {}

    def test_triple_merge_chain(self):
        outs = [
            outcome(1, 0, F(0), F(10), tag=(0, 1.0)),
            outcome(1, 0, F(2), F(8), tag=(0, 2.0)),
            outcome(1, 0, F(4), F(6), tag=(0, 3.0)),
        ]
        merged, specials = merge_constraints(outs, special_output)
        assert len(merged) == 1
        assert exact_bounds(merged[0]) == (F(4), F(6))
        assert len(merged[0].tags) == 3
