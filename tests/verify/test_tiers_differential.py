"""Every serving tier against the oracle, bit for bit.

A :class:`~repro.serve.BatchEvaluator` pinned to one tier at a time —
``table`` (tables built into a scratch directory), ``compiled`` (needs
gcc), ``vector`` and ``scalar`` — answers every tiny function at every
level in all six modes, and the verification harness checks each answer
against the oracle.  The compiled-first dispatch is checked the same
way: served by the C kernel with gcc, by the vector tier without it.
"""

import shutil

import pytest

from repro.fp import IEEE_MODES, RoundingMode, count_finite
from repro.funcs import TINY_CONFIG
from repro.libm import compiled
from repro.libm import tables as tbl
from repro.libm.artifacts import ARTIFACT_DIR
from repro.libm.vround import decode_bits_to_doubles
from repro.mp.oracle import FUNCTION_NAMES
from repro.serve import BatchEvaluator, ServingRegistry
from repro.verify import verify_exhaustive

MODES = tuple(IEEE_MODES) + (RoundingMode.RTO,)
HAS_GCC = compiled.find_compiler() is not None


class TierLibrary:
    """The verifier's library interface over one evaluator; remembers
    which tiers answered."""

    def __init__(self, evaluator, label):
        self.evaluator = evaluator
        self.label = label
        self.answered_by = set()

    def rounded_bits(self, fn, xs, fmt, level, mode):
        res = self.evaluator.evaluate(
            fn, decode_bits_to_doubles(xs, fmt), level=level, mode=mode
        )
        self.answered_by.update(res.tiers)
        return res.bits_array


@pytest.fixture(scope="module")
def tiny_dir(tmp_path_factory):
    """The shipped tiny artifacts plus a table per function, format and mode."""
    out = tmp_path_factory.mktemp("tiny-tables")
    for path in ARTIFACT_DIR.glob("tiny_*.json"):
        shutil.copy(path, out / path.name)
    for fn in FUNCTION_NAMES:
        for level in range(TINY_CONFIG.levels):
            for mode in MODES:
                tbl.build_table(
                    fn, TINY_CONFIG, level=level, mode=mode, directory=out
                )
    return out


def _verify_all(lib, oracle):
    for fn in FUNCTION_NAMES:
        for level, fmt in enumerate(TINY_CONFIG.formats):
            rep = verify_exhaustive(lib, fn, fmt, level, oracle, MODES)
            assert rep.all_correct, (lib.label, fn, fmt, rep.failures[:3])
            assert rep.total_checks == count_finite(fmt) * len(MODES)


@pytest.mark.parametrize("tier", [
    "table",
    pytest.param("compiled", marks=pytest.mark.skipif(
        not HAS_GCC, reason="no gcc on PATH")),
    "vector",
    "scalar",
])
def test_pinned_tier_equals_oracle(tier, tiny_dir, oracle):
    registry = ServingRegistry("tiny", tiny_dir)
    lib = TierLibrary(BatchEvaluator(registry, tiers=(tier,)), tier)
    _verify_all(lib, oracle)
    assert lib.answered_by == {tier}


def test_compiled_first_dispatch_equals_oracle(tiny_dir, oracle):
    registry = ServingRegistry("tiny", tiny_dir)
    evaluator = BatchEvaluator(registry, tiers=("compiled", "vector", "scalar"))
    lib = TierLibrary(evaluator, "compiled-first")
    _verify_all(lib, oracle)
    assert lib.answered_by == {"compiled" if HAS_GCC else "vector"}
