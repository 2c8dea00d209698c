"""The scalar verifier the array harness replaced, kept as a test oracle.

:func:`reference_verify` checks one input and one mode at a time through
``library.rounded`` (the scalar runtime), and :func:`reference_rounded_all`
decides every mode from the Ziv enclosure mode by mode, with one
``round_ratio_bits`` call per endpoint and mode.  The differential tests
require :func:`repro.verify.verify_exhaustive` to produce the same report.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Optional, Sequence

from repro.fp.encode import FPValue
from repro.fp.enumerate import all_finite
from repro.fp.format import FPFormat
from repro.fp.rounding import IEEE_MODES, RoundingMode, round_ratio_bits, round_real
from repro.mp.oracle import Oracle, OraclePrecisionError, exact_value
from repro.verify import Failure, VerificationReport


def reference_rounded_all(
    oracle: Oracle,
    fn: str,
    x: Fraction,
    fmt: FPFormat,
    modes: Sequence[RoundingMode],
) -> Dict[RoundingMode, FPValue]:
    """Every mode's correctly rounded result, decided mode by mode."""
    exact = exact_value(fn, x)
    if exact is not None:
        return {m: round_real(exact, fmt, m) for m in modes}
    shortcut = oracle._range_shortcut(fn, x, fmt)
    if shortcut is not None:
        return {m: round_real(shortcut, fmt, m) for m in modes}
    out: Dict[RoundingMode, FPValue] = {}
    prec = oracle.initial_precision(fn, x, fmt)
    remaining = list(modes)
    while prec <= oracle.max_prec and remaining:
        fi = oracle.enclosure(fn, x, prec)
        scale = 1 << fi.prec
        still = []
        for m in remaining:
            lo = round_ratio_bits(fi.lo, scale, fmt, m)
            if lo == round_ratio_bits(fi.hi, scale, fmt, m):
                out[m] = FPValue(fmt, lo)
            else:
                still.append(m)
        remaining = still
        prec *= 2
    if remaining:
        raise OraclePrecisionError(f"{fn}({x}) undecided for {remaining}")
    return out


def reference_verify(
    library,
    fn: str,
    fmt: FPFormat,
    level: int,
    oracle: Oracle,
    modes: Sequence[RoundingMode] = IEEE_MODES,
    inputs: Optional[Iterable[FPValue]] = None,
    canonical_zeros: bool = True,
    max_recorded_failures: int = 32,
) -> VerificationReport:
    """One scalar ``library.rounded`` call per input and mode."""
    report = VerificationReport(library.label, fn, fmt)
    report.by_mode = {m: 0 for m in modes}
    inputs = inputs if inputs is not None else all_finite(fmt)
    for v in inputs:
        expected_special = _domain_result(fn, v, fmt)
        if expected_special is not None:
            for mode in modes:
                got = library.rounded(fn, v, mode, level)
                report.total_checks += 1
                if got.bits != expected_special.bits and not (
                    got.is_nan and expected_special.is_nan
                ):
                    report.wrong += 1
                    report.by_mode[mode] += 1
                    if len(report.failures) < max_recorded_failures:
                        report.failures.append(
                            Failure(v.bits, mode, got.bits, expected_special.bits)
                        )
            continue
        want = reference_rounded_all(oracle, fn, v.value, fmt, modes)
        for mode in modes:
            got = library.rounded(fn, v, mode, level)
            report.total_checks += 1
            if _same(got, want[mode], fmt, canonical_zeros):
                continue
            report.wrong += 1
            report.by_mode[mode] += 1
            if len(report.failures) < max_recorded_failures:
                report.failures.append(
                    Failure(v.bits, mode, got.bits, want[mode].bits)
                )
    return report


def _domain_result(fn: str, v: FPValue, fmt: FPFormat) -> Optional[FPValue]:
    if fn in ("ln", "log2", "log10"):
        if v.kind is not None and v.is_finite and v.value < 0:
            return FPValue.nan(fmt)
        if v.is_finite and v.value == 0:
            return FPValue.infinity(fmt, sign=1)
    return None


def _same(got: FPValue, want: FPValue, fmt: FPFormat, canonical_zeros: bool) -> bool:
    if got.bits == want.bits:
        return True
    if canonical_zeros:
        mask = ~fmt.sign_mask
        if (got.bits & mask) == 0 and (want.bits & mask) == 0:
            return True
    return False
