"""The serving tiers and their fixed dispatch table.

A :class:`Tier` bundles a *name*, a *wire code*, a capability predicate
(:attr:`Tier.claims`) and an evaluation function.  The five built-in
tiers form one immutable :class:`TierRegistry` in dispatch order —
table (a mapped ``np.take``), compiled (one fused C pass), vector (numpy
kernel sweep), scalar, oracle — which is what
:class:`~repro.serve.evaluator.BatchEvaluator` dispatches through and
what :mod:`repro.serve.frames` derives its wire tables from.

Wire codes are independent of dispatch order: ``vector=0, scalar=1,
oracle=2, table=3, compiled=4``.  A result's per-element ``uint8`` tier
code indexes :meth:`TierRegistry.wire_names`.

Capability model
----------------

``tier.claims(ctx)`` answers for one batch: ``"none"`` (tier cannot
serve this ``(fn, format)``), ``"members"`` (tier serves the inputs that
are exact member values of the requested format) or ``"all"`` (tier
serves every input).  The evaluator walks tiers in dispatch order and
hands each the still-unclaimed inputs its claim covers — so a table
serves member inputs, non-members drop to the scalar runtime, and the
slow oracle only ever runs when no artifact exists at all.

``BatchEvaluator(tiers=...)`` accepts a subset of the built-in names
for callers that want to pin or disable tiers (benchmarks disable the
table tier to measure the polynomial path); a subset keeps the
built-in codes and dispatch order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..fp.rounding import RoundingMode
from ..libm.runtime import round_double_to
from ..libm.vround import (
    round_doubles_to_bits,
    round_doubles_to_bits_checked,
    supports_vector_rounding,
)
from ..resilience.faults import maybe_raise, maybe_sleep

#: Sentinel code for "no tier claimed this element" while a batch is in
#: flight; it never appears in a finished result.
UNCLAIMED = 255


class OracleUnavailable(RuntimeError):
    """Oracle-tier work shed because its circuit breaker is open."""

    code = "oracle_unavailable"


class EvalContext:
    """Everything one batch dispatch needs, shared across tiers.

    The expensive derived views — the inputs' own encodings in the
    target format and the member-value mask — are computed lazily and
    exactly once: the table tier indexes with :attr:`enc`, and
    :attr:`member` falls out of the same round-trip, so a table-served
    batch pays one vectorized rounding pass total.  A tier in ``tiers``
    with an :attr:`Tier.encode` hook may supply that pass instead (the
    compiled tier does, once the function's kernel is loaded).
    """

    __slots__ = (
        "registry", "tiers", "fn", "fmt", "level", "mode", "xs", "n",
        "breaker", "_enc", "_member",
    )

    def __init__(
        self, registry, fn, fmt, level, mode, xs, breaker=None, tiers=(),
    ):
        self.registry = registry
        self.tiers = tiers
        self.fn = fn
        self.fmt = fmt
        self.level = level
        self.mode = mode
        self.xs = xs
        self.n = xs.size
        self.breaker = breaker
        self._enc = None
        self._member = None

    @property
    def enc(self) -> np.ndarray:
        """Each input's bit pattern under round-toward-zero into ``fmt``
        (for member values this *is* their encoding — the table index)."""
        if self._enc is None:
            self._encode()
        return self._enc

    @property
    def member(self) -> np.ndarray:
        """Mask of inputs that are exact member values of ``fmt``.

        The exactness verdict of the same fused rounding pass that
        produces :attr:`enc` (:func:`~repro.libm.vround.
        round_doubles_to_bits_checked`), so the table tier's index
        computation and the membership test cost one pass total.
        Formats outside the vector-rounding envelope report no members
        (they take the scalar path, as they always have).
        """
        if self._member is None:
            if not supports_vector_rounding(self.fmt):
                self._member = np.zeros(self.n, dtype=bool)
            else:
                self._encode()
        return self._member

    def _encode(self) -> None:
        for tier in self.tiers:
            if tier.encode is not None:
                out = tier.encode(self)
                if out is not None:
                    self._enc, self._member = out
                    return
        self._enc, self._member = round_doubles_to_bits_checked(
            self.xs, self.fmt, RoundingMode.RTZ
        )


#: ``claims`` verdicts.
CLAIMS_NONE = "none"
CLAIMS_MEMBERS = "members"
CLAIMS_ALL = "all"


@dataclass(frozen=True)
class Tier:
    """One serving tier: identity, wire code, behaviour.

    ``evaluate(ctx, sel)`` answers the selected inputs (``sel`` is an
    index array or ``slice(None)`` for the whole batch) with
    ``(bits, raw, values)``.  ``raw`` may be ``None`` when the tier has
    no pre-rounding double (table lookups), in which case the evaluator
    substitutes the decoded rounded value; ``values`` may be ``None``
    when the tier produces only bit patterns, in which case the
    evaluator decodes them — tiers that already hold the decoded
    doubles (the table tier's memoized body, the oracle's exact
    results) hand them over and skip that pass.

    ``encode(ctx)``, when set, may return :attr:`EvalContext.enc` and
    :attr:`EvalContext.member` for the batch, bit-identical to the
    vectorized RTZ pass, or ``None`` to leave that pass to numpy.
    """

    name: str
    code: int
    claims: Callable[[EvalContext], str]
    evaluate: Callable[
        [EvalContext, object],
        Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]],
    ]
    doc: str = ""
    encode: Optional[
        Callable[[EvalContext], Optional[Tuple[np.ndarray, np.ndarray]]]
    ] = None


class TierRegistry:
    """An immutable sequence of serving tiers in dispatch order.

    :meth:`wire_names` lays the built-in names out by *code* for the
    wire protocol; :meth:`subset` keeps the built-in codes, so a server
    running fewer tiers still speaks the same wire dialect.
    """

    __slots__ = ("_tiers",)

    def __init__(self, tiers: Iterable[Tier]):
        self._tiers: Tuple[Tier, ...] = tuple(tiers)

    def __iter__(self) -> Iterator[Tier]:
        """Tiers in dispatch order."""
        return iter(self._tiers)

    def names(self) -> Tuple[str, ...]:
        """Tier names in dispatch order."""
        return tuple(t.name for t in self._tiers)

    @staticmethod
    def wire_names() -> Tuple[str, ...]:
        """Every built-in tier's name laid out by wire code
        (``names[code] == name``)."""
        return tuple(t.name for t in sorted(_BUILTIN, key=lambda t: t.code))

    def wire_codes(self) -> Dict[str, int]:
        """``name -> code`` for every tier in this registry."""
        return {t.name: t.code for t in self._tiers}

    def subset(self, names: Sequence[str]) -> "TierRegistry":
        """The tiers named in ``names``, in this registry's dispatch order."""
        unknown = set(names) - set(self.names())
        if unknown:
            raise KeyError(
                f"unknown tier {sorted(unknown)[0]!r}; registered: "
                f"{list(self.names())}"
            )
        return TierRegistry(t for t in self._tiers if t.name in names)


# ----------------------------------------------------------------------
# The built-in tiers
# ----------------------------------------------------------------------
def _table_claims(ctx: EvalContext) -> str:
    if not supports_vector_rounding(ctx.fmt):
        return CLAIMS_NONE
    if ctx.registry.table_for(ctx.fn, ctx.level, ctx.mode) is None:
        return CLAIMS_NONE
    return CLAIMS_MEMBERS


def _table_eval(ctx: EvalContext, sel):
    table = ctx.registry.table_for(ctx.fn, ctx.level, ctx.mode)
    # Member inputs' RTZ encodings are their own bit patterns; the whole
    # tier is two gathers — result bits off the mmap'd body, decoded
    # doubles off the table's memoized decode.
    enc = ctx.enc[sel]
    return table.lookup(enc), None, table.lookup_values(enc, ctx.fmt)


def _compiled_claims(ctx: EvalContext) -> str:
    if not ctx.registry.vector_capable(ctx.fn, ctx.fmt):
        return CLAIMS_NONE
    if ctx.registry.compiled_for(ctx.fn) is None:
        return CLAIMS_NONE
    return CLAIMS_MEMBERS


def _compiled_eval(ctx: EvalContext, sel):
    lib = ctx.registry.compiled[ctx.fn]
    return lib.evaluate(ctx.xs[sel], ctx.level, ctx.mode)


def _compiled_encode(ctx: EvalContext):
    # Only an already-loaded kernel: the member test also runs for
    # table-served batches, which must never start a build.
    lib = ctx.registry.compiled.get(ctx.fn)
    if lib is None or not supports_vector_rounding(ctx.fmt):
        return None
    return lib.encode(ctx.xs, ctx.level)


def _vector_claims(ctx: EvalContext) -> str:
    if ctx.registry.vector_capable(ctx.fn, ctx.fmt):
        return CLAIMS_MEMBERS
    return CLAIMS_NONE


def _vector_eval(ctx: EvalContext, sel):
    raw = ctx.registry.kernels[ctx.fn](ctx.xs[sel], ctx.level)
    return round_doubles_to_bits(raw, ctx.fmt, ctx.mode), raw, None


def _scalar_claims(ctx: EvalContext) -> str:
    return CLAIMS_ALL if ctx.registry.has_artifact(ctx.fn) else CLAIMS_NONE


def _scalar_eval(ctx: EvalContext, sel):
    xs = ctx.xs[sel]
    scalar = ctx.registry.scalars[ctx.fn]
    bits = np.empty(xs.size, dtype=np.int64)
    raw = np.empty(xs.size, dtype=np.float64)
    for i, x in enumerate(xs.tolist()):
        y = scalar(x, ctx.level)
        bits[i] = round_double_to(y, ctx.fmt, ctx.mode).bits
        raw[i] = y
    return bits, raw, None


def _oracle_claims(ctx: EvalContext) -> str:
    return CLAIMS_NONE if ctx.registry.has_artifact(ctx.fn) else CLAIMS_ALL


def _oracle_eval(ctx: EvalContext, sel):
    if ctx.breaker is not None and not ctx.breaker.allow():
        raise OracleUnavailable(
            f"no artifact for {ctx.fn!r} and the oracle-tier circuit "
            f"breaker is open; retry after its recovery window"
        )
    xs = ctx.xs[sel]
    bits = np.empty(xs.size, dtype=np.int64)
    raw = np.empty(xs.size, dtype=np.float64)
    pipe = ctx.registry.pipeline(ctx.fn)
    try:
        maybe_sleep("oracle.slow")
        maybe_raise("oracle.error")
        for i, x in enumerate(xs.tolist()):
            # Structural specials come from the pipeline, which exists
            # without any generated artifact; they also cover domain
            # errors (log of non-positives) the oracle has no enclosure
            # for.
            y = pipe.special_value(x)
            if y is None:
                v = ctx.registry.oracle.correctly_rounded(
                    ctx.fn, Fraction(x), ctx.fmt, ctx.mode
                )
            else:
                v = round_double_to(y, ctx.fmt, ctx.mode)
            bits[i] = v.bits
            raw[i] = v.to_float()
    except Exception:
        if ctx.breaker is not None:
            ctx.breaker.record_failure()
        raise
    if ctx.breaker is not None:
        ctx.breaker.record_success()
    # The oracle's raw *is* the decoded rounded value, so it doubles as
    # the values column.
    return bits, raw, raw


#: The built-in tiers in dispatch order: the table's O(1) gather before
#: the fused C pass, before the numpy kernel sweep.  Codes are the wire
#: contract (vector / scalar / oracle at 0-2, table 3, compiled 4).
_BUILTIN = (
    Tier(
        "table", code=3, claims=_table_claims, evaluate=_table_eval,
        doc="dense precomputed .tbl lookup (np.take on an mmap'd array)",
    ),
    Tier(
        "compiled", code=4, claims=_compiled_claims,
        evaluate=_compiled_eval, encode=_compiled_encode,
        doc="gcc-built C kernel: evaluate, round and decode in one pass",
    ),
    Tier(
        "vector", code=0, claims=_vector_claims, evaluate=_vector_eval,
        doc="numpy kernel sweep + vectorized rounding",
    ),
    Tier(
        "scalar", code=1, claims=_scalar_claims, evaluate=_scalar_eval,
        doc="scalar runtime + exact rational rounding, element-wise",
    ),
    Tier(
        "oracle", code=2, claims=_oracle_claims, evaluate=_oracle_eval,
        doc="mpmath Ziv oracle (artifact missing), behind a circuit breaker",
    ),
)

_DEFAULT = TierRegistry(_BUILTIN)


def default_tier_registry() -> TierRegistry:
    """The registry of every built-in tier (table / compiled / vector /
    scalar / oracle), shared by every evaluator built without ``tiers=``."""
    return _DEFAULT


def resolve_tiers(tiers: Optional[Sequence[str]] = None) -> TierRegistry:
    """The default registry for ``None``, else the subset of built-in
    tiers named in ``tiers`` (an unknown name raises :class:`KeyError`)."""
    if tiers is None:
        return _DEFAULT
    return _DEFAULT.subset(tuple(tiers))
