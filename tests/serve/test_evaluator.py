"""BatchEvaluator: bit-identity with the scalar runtime + fallback tiers."""

import math

import numpy as np
import pytest

from repro.fp import IEEE_MODES, RoundingMode, all_finite
from repro.funcs import TINY_CONFIG
from repro.libm.runtime import RlibmProg
from repro.serve import BatchEvaluator, ServingRegistry

from ..helpers import POLY_TIER

# Tier names are plain strings (repro.serve.tiers); the old TIER_*
# constants are deprecated shims, tested in test_tiers.py.  Member
# inputs go to POLY_TIER: compiled where gcc is on PATH, else vector.
TIER_SCALAR, TIER_ORACLE = "scalar", "oracle"


@pytest.fixture(scope="module")
def registry():
    # The shipped tiny artifacts, loaded once.
    return ServingRegistry("tiny")


@pytest.fixture(scope="module")
def evaluator(registry):
    return BatchEvaluator(registry)


@pytest.fixture(scope="module")
def scalar_lib():
    return RlibmProg.from_artifacts(TINY_CONFIG)


@pytest.mark.parametrize("fn", ("exp2", "log2", "sinpi"))
def test_bit_identical_all_formats_and_modes(fn, evaluator, scalar_lib):
    for level, fmt in enumerate(TINY_CONFIG.formats):
        vals = list(all_finite(fmt))
        xs = [v.to_float() for v in vals]
        scalar_fn = scalar_lib.function(fn)
        for mode in IEEE_MODES:
            res = evaluator.evaluate(fn, xs, fmt=fmt.display_name, mode=mode)
            want = [scalar_fn.rounded(v, mode).bits for v in vals]
            assert res.bits == want, (fn, fmt, mode)
            assert res.tiers == [POLY_TIER] * len(xs)


def test_level_resolution_aliases(evaluator):
    a = evaluator.evaluate("exp2", [1.5], level=0)
    b = evaluator.evaluate("exp2", [1.5], fmt="t8")
    c = evaluator.evaluate("exp2", [1.5], fmt=TINY_CONFIG.formats[0])
    d = evaluator.evaluate("exp2", [1.5], fmt=0)
    assert a.bits == b.bits == c.bits == d.bits
    assert a.level == b.level == c.level == d.level == 0
    widest = evaluator.evaluate("exp2", [1.5])
    assert widest.level == TINY_CONFIG.levels - 1


def test_out_of_format_inputs_fall_back_to_scalar(evaluator):
    # pi is no value of t10; the progressive guarantee doesn't cover it,
    # so the element must take the scalar tier (and still round the
    # scalar runtime's double).
    res = evaluator.evaluate("exp2", [1.0, math.pi], level=1)
    assert res.tiers == [POLY_TIER, TIER_SCALAR]
    scalar = evaluator.registry.scalars["exp2"]
    from repro.libm.runtime import round_double_to

    want = round_double_to(
        scalar(math.pi, 1), res.fmt, RoundingMode.RNE
    ).bits
    assert res.bits[1] == want


def test_specials_round_trip(evaluator):
    res = evaluator.evaluate("exp2", [math.nan, math.inf, -math.inf, -0.0, 0.0])
    assert math.isnan(res.values[0])
    assert res.values[1] == math.inf
    assert res.values[2] == 0.0
    assert res.values[3] == res.values[4] == 1.0
    assert all(t == POLY_TIER for t in res.tiers)


def test_missing_artifact_uses_oracle_tier(tmp_path):
    # An empty artifact directory: every function is missing, and the
    # evaluator must degrade to the mpmath oracle yet stay correct.
    reg = ServingRegistry("tiny", tmp_path, names=("exp2",))
    assert reg.missing == {"exp2"}
    ev = BatchEvaluator(reg)
    res = ev.evaluate("exp2", [3.0, 0.5, math.nan, math.inf], fmt="t8")
    assert res.tiers == [TIER_ORACLE] * 4
    assert res.values[0] == 8.0
    assert res.values[1] == math.sqrt(2.0) or abs(res.values[1] - math.sqrt(2)) < 0.1
    assert math.isnan(res.values[2])
    assert res.values[3] == math.inf
    # The oracle tier result equals the full library's rounded result.
    full = BatchEvaluator(ServingRegistry("tiny", names=("exp2",)))
    want = full.evaluate("exp2", [3.0, 0.5], fmt="t8")
    assert res.bits[:2] == want.bits


def test_oracle_tier_all_modes_match_scalar_path(tmp_path, scalar_lib):
    reg = ServingRegistry("tiny", tmp_path, names=("log2",))
    ev = BatchEvaluator(reg)
    vals = [v for v in all_finite(TINY_CONFIG.formats[0])][::17]
    xs = [v.to_float() for v in vals]
    for mode in IEEE_MODES:
        res = ev.evaluate("log2", xs, fmt="t8", mode=mode)
        want = [scalar_lib.log2.rounded(v, mode).bits for v in vals]
        assert res.bits == want, mode


def test_unknown_function_and_format(evaluator):
    with pytest.raises(KeyError):
        evaluator.evaluate("nope", [1.0])
    with pytest.raises(ValueError):
        evaluator.evaluate("exp2", [1.0], fmt="float128")
    with pytest.raises(ValueError):
        evaluator.evaluate("exp2", [1.0], level=17)
    with pytest.raises(ValueError):
        evaluator.evaluate("exp2", [1.0], fmt="t8", level=0)
    with pytest.raises(ValueError):
        evaluator.evaluate("exp2", [1.0], mode="to-nearest-odd")


def test_metrics_accumulate(registry):
    ev = BatchEvaluator(registry)
    ev.evaluate("exp2", [1.0, 2.0, 3.0])
    ev.evaluate("log2", [1.0])
    snap = ev.metrics.snapshot()
    assert snap["requests_by_fn"] == {"exp2": 1, "log2": 1}
    assert snap["inputs_by_fn"] == {"exp2": 3, "log2": 1}
    assert snap["results_by_tier"][POLY_TIER] == 4
    assert snap["batch_sizes"]["count"] == 2
    assert snap["eval_latency_s"]["count"] == 2


def test_evaluate_one(evaluator):
    v = evaluator.evaluate_one("exp2", 3.0, fmt="t8")
    assert v.to_float() == 8.0


def test_batch_result_fpvalues(evaluator):
    res = evaluator.evaluate("exp2", [1.0, 2.0], fmt="t10")
    decoded = res.fpvalues()
    assert [v.to_float() for v in decoded] == [2.0, 4.0]
    assert np.array_equal(res.values, [2.0, 4.0])
