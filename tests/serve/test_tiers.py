"""The tier table: dispatch order, wire codes, removed shims, custom dispatch."""

import pytest

from repro.serve import BatchEvaluator, ServingRegistry, default_tier_registry
from repro.serve.tiers import resolve_tiers


class TestDefaultRegistry:
    def test_dispatch_order_is_cheapest_first(self):
        # The table gather outranks the fused C pass, which outranks the
        # numpy kernel sweep; the oracle is last.
        assert default_tier_registry().names() == (
            "table", "compiled", "vector", "scalar", "oracle",
        )

    def test_wire_codes_are_the_frozen_contract(self):
        # The u8 tier code in every FRAME_RESULT: vector/scalar/oracle at
        # 0-2, table 3, compiled 4, whatever the dispatch order.
        reg = default_tier_registry()
        assert reg.wire_codes() == {
            "vector": 0, "scalar": 1, "oracle": 2, "table": 3, "compiled": 4,
        }
        assert reg.wire_names() == (
            "vector", "scalar", "oracle", "table", "compiled",
        )

    def test_resolve_tiers_spellings(self):
        reg = default_tier_registry()
        assert resolve_tiers(None) is reg
        sub = resolve_tiers(("vector", "scalar", "oracle"))
        assert sub.names() == ("vector", "scalar", "oracle")
        # Subsets keep the original codes: same wire dialect, fewer tiers.
        assert sub.wire_codes() == {"vector": 0, "scalar": 1, "oracle": 2}
        assert sub.wire_names() == reg.wire_names()
        # ... and the built-in dispatch order, whatever order they are named in.
        assert resolve_tiers(("oracle", "table", "vector")).names() == (
            "table", "vector", "oracle",
        )

    def test_unknown_tier_name_is_refused(self):
        with pytest.raises(KeyError, match="unknown tier 'nope'.*table"):
            resolve_tiers(("vector", "nope"))
        with pytest.raises(KeyError, match="unknown tier 'nope'"):
            BatchEvaluator(ServingRegistry("tiny"), tiers=("nope",))


class TestDeprecatedShims:
    """The deprecated ``TIERS``/``TIER_*`` constants were removed: tier
    names are plain strings and the table is the tier registry."""

    def test_unknown_attribute_still_raises(self):
        import repro.serve
        import repro.serve.evaluator as evaluator

        for name in ("TIER_NOPE", "TIERS", "TIER_VECTOR"):
            with pytest.raises(AttributeError):
                getattr(evaluator, name)
            with pytest.raises(AttributeError):
                getattr(repro.serve, name)


class TestCustomDispatch:
    def test_subset_without_full_coverage_raises(self):
        # A vector-only evaluator cannot answer non-member inputs; the
        # dispatch must fail loudly, not return zeros.
        ev = BatchEvaluator(ServingRegistry("tiny"), tiers=("vector",))
        import math

        with pytest.raises(RuntimeError, match="no serving tier claimed"):
            ev.evaluate("exp2", [math.pi], fmt="t8")

    def test_polynomial_subset_matches_default(self):
        reg = ServingRegistry("tiny")
        full = BatchEvaluator(reg)
        poly = BatchEvaluator(reg, tiers=("vector", "scalar", "oracle"))
        a = full.evaluate("log2", [1.0, 1.5, 3.7], fmt="t8")
        b = poly.evaluate("log2", [1.0, 1.5, 3.7], fmt="t8")
        assert a.bits == b.bits
        assert b.tiers == ["vector", "vector", "scalar"]
