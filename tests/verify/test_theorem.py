"""The round-to-odd theorem holds on generated code for derived formats.

The theorem (paper Section 2.3): a polynomial producing the correctly
rounded round-to-odd result for the (n+2)-bit format yields correctly
rounded results for *every* format with k bits of storage,
|E| + 1 < k <= n (same exponent width), under all five IEEE modes.

The generated libraries only carry explicit levels for the family's
formats; these checks cover the *derived* formats in between — e.g. for
the mini family's P16 level, the 13- and 15-bit F(k,5) formats that have
no level of their own.  Everything is measured against the oracle through
:func:`repro.verify.verify_exhaustive`, so the theorem is validated, not
assumed.
"""

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import pytest

from repro.fp import FPFormat, count_finite
from repro.fp.encode import FPValue
from repro.fp.enumerate import sample_finite
from repro.fp.rounding import IEEE_MODES, RoundingMode
from repro.funcs import TINY_CONFIG
from repro.libm.baselines import GeneratedLibrary
from repro.mp.oracle import Oracle
from repro.verify import verify_exhaustive


@dataclass
class DerivedFormatReport:
    """Verification outcome for one theorem-derived format."""

    fmt: FPFormat
    total_checks: int = 0
    wrong: int = 0
    examples: List[tuple] = field(default_factory=list)

    @property
    def all_correct(self) -> bool:
        """True when every check matched the oracle."""
        return self.wrong == 0


def derived_formats(family, level: int) -> List[FPFormat]:
    """All k-bit formats covered by a level's round-to-odd target but not
    explicitly part of the family."""
    fmt = family.formats[level]
    lower = family.formats[level - 1].total_bits if level > 0 else fmt.exponent_bits + 2
    out = []
    for k in range(max(lower + 1, fmt.exponent_bits + 3), fmt.total_bits):
        candidate = FPFormat(k, fmt.exponent_bits)
        if candidate not in family.formats:
            out.append(candidate)
    return out


def verify_derived_format(
    pipeline,
    generated,
    level: int,
    fmt: FPFormat,
    oracle: Oracle,
    modes: Sequence[RoundingMode] = IEEE_MODES,
    inputs: Optional[Iterable[FPValue]] = None,
    max_examples: int = 8,
) -> DerivedFormatReport:
    """Evaluate the level's polynomial on every ``fmt`` input and compare
    the re-rounded double against the oracle for all requested modes
    (the :func:`verify_exhaustive` sweep, at a format that has no level of
    its own)."""
    fn = pipeline.name
    library = GeneratedLibrary({fn: pipeline}, {fn: generated})
    rep = verify_exhaustive(
        library, fn, fmt, level, oracle, modes, inputs,
        max_recorded_failures=max_examples,
    )
    return DerivedFormatReport(
        fmt,
        rep.total_checks,
        rep.wrong,
        [(f.input_bits, f.mode, f.got_bits, f.want_bits) for f in rep.failures],
    )


def verify_theorem(
    pipeline,
    generated,
    oracle: Oracle,
    modes: Sequence[RoundingMode] = IEEE_MODES,
    sample_per_format: Optional[int] = None,
) -> Dict[str, DerivedFormatReport]:
    """Check every derived format of every level; returns reports keyed by
    format display name."""
    out: Dict[str, DerivedFormatReport] = {}
    for level in range(pipeline.family.levels):
        for fmt in derived_formats(pipeline.family, level):
            if sample_per_format:
                inputs = sample_finite(fmt, sample_per_format, random.Random(0))
            else:
                inputs = None
            out[fmt.display_name] = verify_derived_format(
                pipeline, generated, level, fmt, oracle, modes, inputs
            )
    return out


class TestDerivedFormats:
    def test_tiny_family_derived(self):
        # T8 = F(8,4) and T10 = F(10,4): level 1 covers F(9,4); level 0
        # covers F(7,4) (k > |E|+1 = 5 -> k in {7}).
        d0 = derived_formats(TINY_CONFIG, 0)
        d1 = derived_formats(TINY_CONFIG, 1)
        assert FPFormat(7, 4) in d0
        assert d1 == [FPFormat(9, 4)]

    def test_family_members_excluded(self):
        for level in range(TINY_CONFIG.levels):
            for fmt in derived_formats(TINY_CONFIG, level):
                assert fmt not in TINY_CONFIG.formats


class TestTheoremHolds:
    @pytest.mark.parametrize("name", ["exp2", "log2", "sinh", "cospi"])
    def test_derived_formats_correct(self, name, oracle, tiny_generated):
        pipe, gen = tiny_generated(name)
        reports = verify_theorem(pipe, gen, oracle)
        assert reports, "no derived formats found"
        for fmt_name, rep in reports.items():
            assert rep.all_correct, (
                name,
                fmt_name,
                rep.wrong,
                rep.examples[:3],
            )
            assert rep.total_checks > 0

    def test_single_format_entry(self, oracle, tiny_generated):
        pipe, gen = tiny_generated("exp2")
        rep = verify_derived_format(
            pipe, gen, 1, FPFormat(9, 4), oracle
        )
        assert rep.all_correct
        # Every finite pattern under all five IEEE modes.
        assert rep.total_checks == count_finite(FPFormat(9, 4)) * 5
