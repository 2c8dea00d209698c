"""TierRegistry: ordering, wire-code stability, removed shims, custom dispatch."""

import pytest
from hypothesis import given, strategies as st

from repro.serve import BatchEvaluator, ServingRegistry, default_tier_registry
from repro.serve.tiers import (
    CLAIMS_ALL,
    Tier,
    TierRegistry,
    UNCLAIMED,
    resolve_tiers,
)


def _tier(name, code, rank):
    return Tier(
        name, code=code, rank=rank,
        claims=lambda ctx: CLAIMS_ALL,
        evaluate=lambda ctx, sel: (None, None, None),
    )


class TestDefaultRegistry:
    def test_dispatch_order_is_cheapest_first(self):
        # The table gather outranks the fused C pass, which outranks the
        # numpy kernel sweep; the oracle is last.
        assert default_tier_registry().names() == (
            "table", "compiled", "vector", "scalar", "oracle",
        )

    def test_wire_codes_are_the_frozen_contract(self):
        # vector/scalar/oracle predate the registry and keep their codes
        # forever; table was appended at 3, compiled at 4.  Changing any
        # of these numbers breaks every mixed-version fleet.
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
        assert resolve_tiers(reg) is reg
        sub = resolve_tiers(("vector", "scalar", "oracle"))
        assert sub.names() == ("vector", "scalar", "oracle")
        # Subsets keep the original codes: same wire dialect, fewer tiers.
        assert sub.wire_codes() == {"vector": 0, "scalar": 1, "oracle": 2}


class TestRegistryInvariants:
    def test_duplicate_name_rejected(self):
        reg = TierRegistry([_tier("a", 0, 0)])
        with pytest.raises(ValueError, match="already registered"):
            reg.register(_tier("a", 1, 1))

    def test_duplicate_code_rejected(self):
        reg = TierRegistry([_tier("a", 0, 0)])
        with pytest.raises(ValueError, match="already taken"):
            reg.register(_tier("b", 0, 1))

    def test_code_outside_wire_range_rejected(self):
        # 255 is the in-flight UNCLAIMED sentinel; codes must stay below.
        with pytest.raises(ValueError, match="wire range"):
            _tier("x", UNCLAIMED, 0)
        with pytest.raises(ValueError, match="wire range"):
            _tier("x", -1, 0)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown tier"):
            TierRegistry().get("nope")

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=254),
                st.integers(min_value=-100, max_value=100),
            ),
            min_size=1,
            max_size=12,
            unique_by=lambda t: t[0],
        )
    )
    def test_ordering_and_wire_layout_properties(self, specs):
        # For any registry: iteration is sorted by rank, wire_names is
        # indexed by code, and a name subset never changes either.
        tiers = [
            _tier(f"t{code}", code, rank) for code, rank in specs
        ]
        reg = TierRegistry(tiers)
        ranks = [t.rank for t in reg]
        assert ranks == sorted(ranks)
        wire = reg.wire_names()
        assert len(wire) == max(code for code, _ in specs) + 1
        for t in tiers:
            assert wire[t.code] == t.name
        # Unassigned codes hold a placeholder, never a tier name.
        names = {t.name for t in tiers}
        assert all(w == "?" for i, w in enumerate(wire) if w not in names)
        some = [t.name for t in tiers][:: 2]
        sub = reg.subset(some)
        assert {t.code for t in sub} <= {t.code for t in reg}
        for name in some:
            assert sub.get(name).code == reg.get(name).code
            assert sub.get(name).rank == reg.get(name).rank


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
