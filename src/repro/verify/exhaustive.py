"""Exhaustive correctness checking of library implementations.

For every input bit pattern of a format (or a provided sample), compare
the library's rounded result with the oracle under the requested rounding
modes.  Zero results are compared by value rather than sign by default
(the IEEE sign-of-zero conventions for sinpi differ between sources and
carry no numeric information).

The sweep works on arrays: the inputs are one bit array, the oracle
answers every mode of an input in one call, the library rounds the whole
array once per mode (:meth:`~repro.libm.baselines.Library.rounded_bits`),
and the comparison is one ``(inputs, modes)`` boolean matrix.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..fp.encode import FPValue
from ..fp.enumerate import check_enumerable, count_finite
from ..fp.format import FPFormat
from ..fp.rounding import IEEE_MODES, RoundingMode
from ..mp.oracle import Oracle


@dataclass
class Failure:
    """One wrong (input, mode) pair with the observed/expected bits."""

    input_bits: int
    mode: RoundingMode
    got_bits: int
    want_bits: int


@dataclass
class VerificationReport:
    """Aggregate result of one (library, function, format) sweep."""

    library: str
    function: str
    fmt: FPFormat
    total_checks: int = 0
    wrong: int = 0
    failures: List[Failure] = field(default_factory=list)
    by_mode: Dict[RoundingMode, int] = field(default_factory=dict)
    #: Sweep wall-clock and the share of it the oracle's Ziv loops took
    #: (summed across workers for sharded sweeps), and how many oracle
    #: queries an already cached enclosure decided.
    wall_seconds: float = 0.0
    oracle_seconds: float = 0.0
    oracle_reuses: int = 0
    #: Processes the sweep ran on: 1 is in-process.
    workers: int = 1

    @property
    def all_correct(self) -> bool:
        """True when every check matched the oracle."""
        return self.wrong == 0

    def summary(self) -> str:
        """One-line human-readable verdict."""
        status = "OK" if self.all_correct else f"{self.wrong} WRONG"
        return (
            f"{self.library:>12} {self.function:<6} {self.fmt.display_name:<6}"
            f" {self.total_checks:>8} checks: {status}"
        )


def verify_exhaustive(
    library,
    fn: str,
    fmt: FPFormat,
    level: int,
    oracle: Oracle,
    modes: Sequence[RoundingMode] = IEEE_MODES,
    inputs: Optional[Iterable[FPValue]] = None,
    canonical_zeros: bool = True,
    max_recorded_failures: int = 32,
    jobs: int = 1,
) -> VerificationReport:
    """Check ``library``'s ``fn`` on every input of ``fmt`` for ``modes``.

    Failures are recorded input-major, then in ``modes`` order.
    ``jobs > 1`` shards the sweep across up to ``jobs`` worker processes
    when it has enough inputs to pay for them
    (:func:`~repro.parallel.pool.workers_for`, the rule the generation
    sweep uses); a smaller sweep runs in-process.  The merged report
    (counters, per-mode counts, recorded failures) is identical to the
    serial one for any worker count; ``workers`` says how many ran.
    Without ``inputs``, a format too large to enumerate
    (:func:`~repro.fp.enumerate.check_enumerable`) is a ``ValueError``.
    """
    if inputs is None:
        check_enumerable(fmt)
    if jobs and jobs > 1:
        from ..parallel.pool import shard_verify, workers_for

        if inputs is not None:
            inputs = list(inputs)
        workers = workers_for(
            len(inputs) if inputs is not None else count_finite(fmt), jobs
        )
        if workers > 1:
            return shard_verify(
                library, fn, fmt, level, oracle, modes, inputs,
                canonical_zeros, max_recorded_failures, jobs=workers,
            )
    t0 = time.perf_counter()
    oracle_sec0, reuses0 = oracle.stats.seconds, oracle.stats.reuses
    modes = tuple(modes)
    report = VerificationReport(library.label, fn, fmt)
    report.by_mode = {m: 0 for m in modes}
    xs = _input_bits(fmt, inputs)
    want = _expected_bits(fn, xs, fmt, oracle, modes)
    rounded_bits = getattr(library, "rounded_bits", None)
    if rounded_bits is None:  # a library object that only rounds scalars
        from ..libm.baselines import Library

        rounded_bits = functools.partial(Library.rounded_bits, library)
    got = np.empty_like(want)
    for j, mode in enumerate(modes):
        got[:, j] = rounded_bits(fn, xs, fmt, level, mode)
    bad = ~_same(got, want, fmt, canonical_zeros)
    report.total_checks = bad.size
    report.wrong = int(bad.sum())
    for mode, n in zip(modes, bad.sum(axis=0).tolist()):
        report.by_mode[mode] += n
    rows, cols = np.nonzero(bad)
    for i, j in zip(
        rows[:max_recorded_failures].tolist(),
        cols[:max_recorded_failures].tolist(),
    ):
        report.failures.append(
            Failure(int(xs[i]), modes[j], int(got[i, j]), int(want[i, j]))
        )
    report.wall_seconds = time.perf_counter() - t0
    report.oracle_seconds = oracle.stats.seconds - oracle_sec0
    report.oracle_reuses = oracle.stats.reuses - reuses0
    return report


def _input_bits(fmt: FPFormat, inputs: Optional[Iterable[FPValue]]) -> np.ndarray:
    """The inputs' bit patterns in sweep order: by default every finite
    pattern, positive magnitudes ascending, then the negatives."""
    if inputs is not None:
        dtype = np.int64 if fmt.total_bits < 64 else object
        return np.array([v.bits for v in inputs], dtype=dtype)
    mags = np.arange(FPValue.max_finite(fmt).bits + 1, dtype=np.int64)
    return np.concatenate([mags, mags | fmt.sign_mask])


def _expected_bits(
    fn: str,
    xs: np.ndarray,
    fmt: FPFormat,
    oracle: Oracle,
    modes: Tuple[RoundingMode, ...],
) -> np.ndarray:
    """The ``(inputs, modes)`` matrix of correct patterns: IEEE special
    results outside the oracle's real domain (a logarithm of zero is -inf,
    of a negative value NaN), the oracle's for every other input."""
    want = np.empty((len(xs), len(modes)), dtype=xs.dtype)
    real = np.ones(len(xs), dtype=bool)
    if fn in ("ln", "log2", "log10"):
        finite = (xs & fmt.exponent_mask) != fmt.exponent_mask
        zero = (xs & (fmt.sign_mask - 1)) == 0
        negative = finite & ~zero & ((xs & fmt.sign_mask) != 0)
        want[zero] = FPValue.infinity(fmt, sign=1).bits
        want[negative] = FPValue.nan(fmt).bits
        real = ~(zero | negative)
    idx = np.flatnonzero(real)
    rows = []
    for b in xs[idx].tolist():
        right = oracle.correctly_rounded_all(fn, FPValue(fmt, b).value, fmt, modes)
        rows.append([right[m].bits for m in modes])
    if rows:
        want[idx] = rows
    return want


def _same(
    got: np.ndarray, want: np.ndarray, fmt: FPFormat, canonical_zeros: bool
) -> np.ndarray:
    """Element-wise match: equal patterns, any two NaNs, and (with
    ``canonical_zeros``) zeros of either sign."""
    ok = got == want
    ok |= _is_nan(got, fmt) & _is_nan(want, fmt)
    if canonical_zeros:
        magnitude = fmt.sign_mask - 1
        ok |= ((got & magnitude) == 0) & ((want & magnitude) == 0)
    return ok


def _is_nan(bits: np.ndarray, fmt: FPFormat) -> np.ndarray:
    return ((bits & fmt.exponent_mask) == fmt.exponent_mask) & (
        (bits & fmt.mantissa_mask) != 0
    )
