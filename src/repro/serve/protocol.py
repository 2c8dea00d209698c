"""Requests and responses of the serving protocol.

Every connection speaks ``binary.v1`` frames (:mod:`repro.serve.frames`)
from its first byte, with no handshake.  Control ops and every error
travel as ``FRAME_JSON`` objects; an ``eval`` travels only as a
``FRAME_EVAL`` request answered by a ``FRAME_RESULT``.  Each
response carries the request's ``id``, so requests may be pipelined and
answered out of order.  Operations:

``eval``
    A ``FRAME_EVAL`` whose meta is ``{"id": 1, "fn": "exp2", "fmt":
    "p16", "mode": "rne"}``, followed by the input doubles.  ``fmt`` may
    be a format name or omitted in favour of ``"level": <int>``; ``mode``
    defaults to RNE; an optional ``"budget": <seconds>`` caps the
    server-side deadline below the server default.  The ``FRAME_RESULT``
    answer carries the result bit patterns, their decoded doubles and
    one tier code per element, indexing the fixed tier table
    (:func:`repro.serve.tiers.default_tier_registry` — table / compiled
    / vector / scalar / oracle).  An ``eval`` sent as a ``FRAME_JSON``
    object is answered with an error.

``stats``
    Metrics snapshot (counters, batch-size and latency histograms,
    per-tier result counts).  ``"/stats"`` is accepted as an alias.
    A fleet worker sums the per-key counters over every live worker;
    ``"scope": "local"`` asks for the answering worker's own snapshot
    (and likewise for ``metrics``).

``metrics``
    Unified observability dump: the response carries the metric
    registry as JSON under ``"metrics"`` and as Prometheus text
    exposition format under ``"prometheus"`` (scrape-ready).

``info``
    Registry description: family, formats, loaded + missing functions,
    and discovered ``.tbl`` table sidecars with their health
    (``available`` / ``loaded`` / ``stale`` / ``corrupt``).

``ping``
    Liveness probe.

``health``
    Readiness/degradation probe: overall ``status`` (``ok`` /
    ``degraded`` / ``draining``), in-flight request count vs. the
    pending bound, and the oracle-tier circuit breaker state.  A fleet
    worker reports the fleet's status (``down`` when no slot is ok),
    its own index as ``worker``, and one row per worker slot.

Error responses may carry a machine-readable ``code`` (``overloaded``,
``deadline_exceeded``, ``oracle_unavailable``, ``shutting_down``) so
clients can branch without parsing messages.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np


class ProtocolError(ValueError):
    """A malformed request (reported to the client, never fatal)."""


def parse_request(obj: dict) -> dict:
    """Normalize a ``FRAME_JSON`` request's op (raises :class:`ProtocolError`)."""
    op = obj.get("op")
    if not isinstance(op, str):
        raise ProtocolError("missing op")
    obj["op"] = op.lstrip("/").lower()
    return obj


def parse_eval_request(obj: dict) -> dict:
    """Validate a decoded ``FRAME_EVAL`` request; returns normalized fields."""
    inputs = obj.get("inputs")
    if not isinstance(inputs, np.ndarray):
        raise ProtocolError("an eval travels only as a FRAME_EVAL frame")
    if inputs.size == 0:
        raise ProtocolError("eval needs a non-empty batch of inputs")
    fn = obj.get("fn")
    if not isinstance(fn, str):
        raise ProtocolError("eval needs a string 'fn'")
    level = obj.get("level")
    if level is not None and not isinstance(level, int):
        raise ProtocolError("'level' must be an integer")
    fmt = obj.get("fmt")
    if fmt is not None and not isinstance(fmt, (str, int)):
        raise ProtocolError("'fmt' must be a format name or level index")
    return {
        "fn": fn,
        "inputs": inputs,
        "fmt": fmt,
        "level": level,
        "mode": obj.get("mode", "rne"),
    }


def error_response(req_id: Any, message: str, code: Optional[str] = None) -> dict:
    """The failure response body (request id echoed when present).

    ``code`` is a stable machine-readable tag for failures clients are
    expected to branch on: ``overloaded`` (backpressure shed),
    ``deadline_exceeded`` (per-request deadline), ``oracle_unavailable``
    (fallback-tier circuit breaker open), ``shutting_down`` (drain).
    Plain protocol/validation errors carry no code.
    """
    resp = {"id": req_id, "ok": False, "error": message}
    if code is not None:
        resp["code"] = code
    return resp
