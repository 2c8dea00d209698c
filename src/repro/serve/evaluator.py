"""Batch evaluation with graceful degradation.

:class:`BatchEvaluator` is the serving core, shared by the in-process
API, the TCP server and the ``repro.api.evaluate`` facade.  One call
answers "round ``fn`` at these inputs to this ``(format, mode, level)``"
for a whole batch, dispatching each element to the cheapest registered
tier (:mod:`repro.serve.tiers`) that still guarantees the correctly
rounded answer:

``table``
    A dense precomputed ``.tbl`` result table (built offline by
    :func:`repro.libm.tables.build_table`) answers member inputs of
    small formats with one ``np.take`` on a memory-mapped array — no
    polynomial evaluation at all.  Used when a fresh table for
    ``(fn, format, mode)`` sits next to the artifact.

``compiled``
    The artifact's generated C, built once by gcc
    (:mod:`repro.libm.compiled`), evaluates, rounds and decodes member
    inputs in one fused pass — bit-identical to the vector tier, which
    answers instead when there is no compiler or the kernel fails its
    load-time self-check.

``vector``
    The numpy kernel sweeps the batch in one call and the result
    doubles are rounded to bit patterns with the vectorized integer
    rounding — bit-identical to the scalar path (both halves are tested
    exhaustively).  Used when the artifact is loaded and the input is a
    member value of the requested format.

``scalar``
    The scalar runtime (``evaluate_generated`` + exact rational
    rounding), element-wise.  Used for inputs that are *not* values of
    the requested format (the progressive guarantee is stated per
    format, so such inputs leave the fast path's proven domain) and for
    formats outside the vector-rounding envelope.

``oracle``
    The mpmath-style Ziv oracle.  Used when the function's artifact is
    missing entirely: the range-reduction pipeline still exists, so
    structural specials (NaN, infinities) are answered structurally and
    every finite input is rounded correctly — just slowly.

The tier that produced each result is reported per element, so callers
(and the ``stats`` endpoint) can see degradation rather than silently
paying for it.

The oracle tier sits behind a :class:`~repro.resilience.CircuitBreaker`:
Ziv evaluations are orders of magnitude slower than the other tiers, so
when they start erroring or blowing their latency budget the breaker
opens and oracle-tier batches are *shed* with
:class:`OracleUnavailable` (the server maps it to a structured
``oracle_unavailable`` error) instead of queuing unbounded slow work.
The artifact-backed tiers are never shed — they carry the correctness
proof and their latency is bounded.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Union

import numpy as np

from ..fp.encode import FPValue
from ..fp.format import FPFormat
from ..fp.rounding import RoundingMode
from ..libm.vround import decode_bits_to_doubles, supports_vector_rounding
from ..resilience.breaker import CircuitBreaker
from .metrics import ServerMetrics
from .registry import ServingRegistry
from .tiers import (
    CLAIMS_ALL,
    CLAIMS_MEMBERS,
    CLAIMS_NONE,
    EvalContext,
    OracleUnavailable,
    TierRegistry,
    UNCLAIMED,
    default_tier_registry,
    resolve_tiers,
)

__all__ = [
    "BatchEvaluator",
    "BatchResult",
    "OracleUnavailable",
    "resolve_mode",
]

#: Wire-code → name table of the built-in tiers (codes are frozen; see
#: :mod:`repro.serve.tiers`).  Module-internal: results built from name
#: lists or code arrays convert through this.
_WIRE_NAMES = default_tier_registry().wire_names()
_WIRE_CODES = default_tier_registry().wire_codes()

def resolve_mode(mode: Union[str, RoundingMode]) -> RoundingMode:
    """A :class:`RoundingMode` from its enum or wire spelling (``"rne"``)."""
    if isinstance(mode, RoundingMode):
        return mode
    try:
        return RoundingMode(str(mode).lower())
    except ValueError:
        raise ValueError(
            f"unknown rounding mode {mode!r}; choose from "
            f"{[m.value for m in RoundingMode]}"
        ) from None


class _LazyArray:
    """One result column held as a numpy array, a list, or both.

    The evaluator produces numpy arrays (the hot path never builds a
    Python list); JSON serialization and the historical list-typed
    accessors convert on first use and cache.  Either representation can
    seed the other, so a :class:`BatchResult` built from lists (tests,
    small call sites) still exposes arrays for the binary protocol.
    """

    __slots__ = ("_array", "_list", "dtype")

    def __init__(self, value, dtype):
        self.dtype = dtype
        self._array = self._list = None
        self.assign(value)

    def assign(self, value) -> None:
        self._array = self._list = None
        if value is None:
            self._list = []
        elif isinstance(value, np.ndarray):
            self._array = value
        else:
            self._list = list(value)

    def as_array(self) -> np.ndarray:
        if self._array is None:
            self._array = np.asarray(self._list, dtype=self.dtype)
        return self._array

    def as_list(self) -> list:
        if self._list is None:
            self._list = self._array.tolist()
        return self._list

    def __len__(self) -> int:
        return len(self._list if self._array is None else self._array)


class BatchResult:
    """Correctly rounded results for one batch.

    The per-element columns (``bits``, ``values``, ``raw``, ``tiers``)
    read as plain Python lists, exactly as they always have; the
    ``*_array`` / ``tier_codes`` accessors expose the same data as numpy
    arrays without a conversion, which is what the binary frame protocol
    and the coalescing dispatcher's zero-copy slicing use.
    """

    def __init__(
        self,
        fn: str,
        family: str,
        fmt: FPFormat,
        level: int,
        mode: RoundingMode,
        bits=None,
        values=None,
        raw=None,
        tiers=None,
        wall_seconds: float = 0.0,
    ):
        self.fn = fn
        self.family = family
        self.fmt = fmt
        self.level = level
        self.mode = mode
        self._bits = _LazyArray(bits, np.int64)
        self._values = _LazyArray(values, np.float64)
        self._raw = _LazyArray(raw, np.float64)
        self._tiers = _TierColumn(tiers)
        self.wall_seconds = wall_seconds

    # -- list views (the historical field types) -----------------------
    @property
    def bits(self) -> List[int]:
        """Result bit patterns in ``fmt``, one per input."""
        return self._bits.as_list()

    @bits.setter
    def bits(self, value) -> None:
        self._bits.assign(value)

    @property
    def values(self) -> List[float]:
        """The rounded results decoded back to doubles (NaN patterns → NaN)."""
        return self._values.as_list()

    @values.setter
    def values(self, value) -> None:
        self._values.assign(value)

    @property
    def raw(self) -> List[float]:
        """Raw double outputs of the progressive runtime (pre-rounding);
        for the oracle and table tiers this is the decoded rounded value
        itself."""
        return self._raw.as_list()

    @raw.setter
    def raw(self, value) -> None:
        self._raw.assign(value)

    @property
    def tiers(self) -> List[str]:
        """Which tier produced each element: table/compiled/vector/scalar/
        oracle."""
        return self._tiers.as_names()

    @tiers.setter
    def tiers(self, value) -> None:
        self._tiers.assign(value)

    # -- array views (zero-copy hot path) ------------------------------
    @property
    def bits_array(self) -> np.ndarray:
        """``bits`` as an int64 array (no conversion on the hot path)."""
        return self._bits.as_array()

    @property
    def values_array(self) -> np.ndarray:
        """``values`` as a float64 array."""
        return self._values.as_array()

    @property
    def raw_array(self) -> np.ndarray:
        """``raw`` as a float64 array."""
        return self._raw.as_array()

    @property
    def tier_codes(self) -> np.ndarray:
        """``tiers`` as uint8 wire codes (see
        :meth:`repro.serve.tiers.TierRegistry.wire_names`)."""
        return self._tiers.as_codes()

    def __len__(self) -> int:
        return len(self._bits)

    def fpvalues(self) -> List[FPValue]:
        """The results as decoded :class:`FPValue` objects."""
        return [FPValue(self.fmt, b) for b in self.bits]


class _TierColumn:
    """The tier column: uint8 wire codes and/or the historical string list."""

    __slots__ = ("_codes", "_names")

    def __init__(self, value):
        self.assign(value)

    def assign(self, value) -> None:
        self._codes = self._names = None
        if value is None:
            self._names = []
        elif isinstance(value, np.ndarray):
            self._codes = value
        else:
            value = list(value)
            if value and not isinstance(value[0], str):
                self._codes = np.asarray(value, dtype=np.uint8)
            else:
                self._names = value

    def as_codes(self) -> np.ndarray:
        if self._codes is None:
            self._codes = np.asarray(
                [_WIRE_CODES[t] for t in self._names], dtype=np.uint8
            )
        return self._codes

    def as_names(self) -> List[str]:
        if self._names is None:
            self._names = [_WIRE_NAMES[c] for c in self._codes.tolist()]
        return self._names

    def __len__(self) -> int:
        return len(self._names if self._codes is None else self._codes)


def _decode(bits: np.ndarray, fmt: FPFormat) -> np.ndarray:
    """Doubles for result bit patterns (the ``values`` column)."""
    if supports_vector_rounding(fmt):
        return decode_bits_to_doubles(bits, fmt)
    return np.asarray(
        [FPValue(fmt, int(b)).to_float() for b in bits.tolist()],
        dtype=np.float64,
    )


def _assemble(answers, n: int, fmt: FPFormat):
    """Scatter several tiers' ``(sel, (bits, raw, values))`` answers
    into whole-batch columns."""
    bits = np.zeros(n, dtype=np.int64)
    raw = np.zeros(n, dtype=np.float64)
    values = np.zeros(n, dtype=np.float64)
    raw_from_values = np.zeros(n, dtype=bool)
    have_values = np.zeros(n, dtype=bool)
    for sel, (tier_bits, tier_raw, tier_values) in answers:
        bits[sel] = tier_bits
        if tier_values is not None:
            values[sel] = tier_values
            have_values[sel] = True
        if tier_raw is None:
            raw_from_values[sel] = True
        else:
            raw[sel] = tier_raw
    if not have_values.all():
        # Decode only where some tier produced bare bit patterns.
        values = np.where(have_values, values, _decode(bits, fmt))
    if raw_from_values.any():
        raw = np.where(raw_from_values, values, raw)
    return bits, raw, values


class BatchEvaluator:
    """In-process batch-evaluation API over a :class:`ServingRegistry`.

    ``tiers`` selects the dispatch table: ``None`` (the process-global
    default registry — table/compiled/vector/scalar/oracle), a
    :class:`~repro.serve.tiers.TierRegistry`, or a sequence of built-in
    tier names (``tiers=("vector", "scalar", "oracle")`` disables the
    table tier without touching wire codes).
    """

    def __init__(
        self,
        registry: ServingRegistry,
        metrics: Optional[ServerMetrics] = None,
        breaker: Optional[CircuitBreaker] = None,
        tiers: Union[None, TierRegistry, Sequence[str]] = None,
    ):
        self.registry = registry
        self.metrics = metrics or ServerMetrics()
        self.tiers = resolve_tiers(tiers)
        #: Guards the oracle tier only; ``None`` disables shedding.
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            failure_threshold=5, recovery_time=5.0, latency_budget=None
        )

    # ------------------------------------------------------------------
    def evaluate(
        self,
        fn: str,
        inputs: Sequence[float],
        *,
        fmt: Optional[Union[str, int, FPFormat]] = None,
        level: Optional[int] = None,
        mode: Union[str, RoundingMode] = RoundingMode.RNE,
        n_requests: int = 1,
    ) -> BatchResult:
        """Correctly rounded bit patterns for a batch of double inputs.

        Walks the tier registry in rank order; each tier claims the
        still-unanswered inputs its capability covers.  ``n_requests``
        is how many client requests this batch answers — the coalescing
        dispatcher passes the fused-request count so the metrics count
        each client request exactly once.
        """
        t0 = time.perf_counter()
        reg = self.registry
        level, fmt = reg.resolve_level(fmt, level)
        mode = resolve_mode(mode)
        if fn not in reg.pipelines:
            raise KeyError(f"unknown function {fn!r}")
        xs = np.ascontiguousarray(np.asarray(inputs, dtype=np.float64))
        n = xs.size
        result = BatchResult(fn, reg.family.name, fmt, level, mode)
        ctx = EvalContext(
            reg, fn, fmt, level, mode, xs, breaker=self.breaker,
            tiers=self.tiers,
        )

        codes = np.full(n, UNCLAIMED, dtype=np.uint8)
        answers = []  # (sel, (bits, raw, values)) in dispatch order
        tier_counts = {}
        remaining = n
        for tier in self.tiers:
            if remaining == 0:
                break
            claim = tier.claims(ctx)
            if claim == CLAIMS_NONE:
                continue
            if claim == CLAIMS_MEMBERS:
                take = ctx.member
            elif claim == CLAIMS_ALL:
                take = None
            else:  # pragma: no cover - claims verdicts are closed
                raise ValueError(
                    f"tier {tier.name!r} returned bad claim {claim!r}"
                )
            if remaining < n:
                unclaimed = codes == UNCLAIMED
                take = unclaimed if take is None else unclaimed & take
            count = remaining if take is None else int(np.count_nonzero(take))
            if count == 0:
                continue
            # The hot path: one tier answers the whole batch — index with
            # a slice so nothing is copied on the way in.
            sel = slice(None) if count == n else np.nonzero(take)[0]
            answers.append((sel, tier.evaluate(ctx, sel)))
            codes[sel] = tier.code
            tier_counts[tier.name] = count
            remaining -= count
        if remaining:
            raise RuntimeError(
                f"no serving tier claimed {remaining} of {n} inputs for "
                f"{fn!r} in {fmt.display_name} (tiers: "
                f"{', '.join(self.tiers.names())})"
            )

        if len(answers) == 1:
            # One tier answered everything: its arrays are the result.
            bits, raw, values = answers[0][1]
            if values is None:
                values = _decode(bits, fmt)
            if raw is None or raw is values:
                # Tiers with no pre-rounding double (table lookups) report
                # the decoded rounded value as raw, like the oracle tier
                # (a copy: the two columns never share memory).
                raw = values.copy()
        else:
            bits, raw, values = _assemble(answers, n, fmt)
        result.bits = bits
        result.raw = raw
        result.values = values
        result.tiers = codes
        result.wall_seconds = time.perf_counter() - t0
        self.metrics.record_batch(
            fn, n, tier_counts, result.wall_seconds, n_requests=n_requests
        )
        return result

    def evaluate_one(
        self,
        fn: str,
        x: float,
        *,
        fmt: Optional[Union[str, int, FPFormat]] = None,
        level: Optional[int] = None,
        mode: Union[str, RoundingMode] = RoundingMode.RNE,
    ) -> FPValue:
        """Single-input convenience wrapper: the rounded :class:`FPValue`."""
        res = self.evaluate(fn, [x], fmt=fmt, level=level, mode=mode)
        return FPValue(res.fmt, res.bits[0])
