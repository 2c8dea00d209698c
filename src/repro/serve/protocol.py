"""Wire protocol of the serving subsystem: newline-delimited JSON.

Each request is one JSON object per line; each response is one JSON
object per line carrying the request's ``id`` (so responses may be
pipelined and arrive out of order).  Operations:

``eval``
    ``{"op": "eval", "id": 1, "fn": "exp2", "inputs": [0.5, "nan"],
    "fmt": "p16", "mode": "rne"}`` — ``fmt`` may be a format name or
    omitted in favour of ``"level": <int>``; ``mode`` defaults to RNE.
    Inputs are JSON numbers, ``"nan"``/``"inf"``/``"-inf"`` tokens, or
    ``float.hex`` strings (``"0x1.8p+1"``) for bit-exact requests.
    Response: ``{"id": 1, "ok": true, "fn": ..., "fmt": ..., "level":
    ..., "mode": ..., "bits": [...], "values": [...], "tiers": [...]}``.
    ``tiers`` names the serving tier per element; the names and their
    binary-protocol codes come from the fixed tier table
    (:func:`repro.serve.tiers.default_tier_registry` — table / compiled
    / vector / scalar / oracle).  An optional ``"budget": <seconds>`` caps the
    server-side deadline below the server default.

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

Floats in responses use Python's JSON extension tokens (``NaN``,
``Infinity``); the bundled client parses them, and bit patterns are the
authoritative payload regardless.
"""

from __future__ import annotations

import json
from typing import Any, Optional

import numpy as np

from .evaluator import BatchResult


class ProtocolError(ValueError):
    """A malformed request (reported to the client, never fatal)."""


def parse_float_token(v: Any) -> float:
    """A double from a JSON number or a string spelling.

    Strings accept ``float.hex`` syntax for bit-exact inputs plus the
    usual ``nan``/``inf`` tokens that plain JSON cannot carry.
    """
    if isinstance(v, bool):
        raise ProtocolError(f"not a number: {v!r}")
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, str):
        try:
            return float.fromhex(v) if v.lower().startswith(("0x", "-0x")) else float(v)
        except ValueError:
            raise ProtocolError(f"unparseable input {v!r}") from None
    raise ProtocolError(f"not a number: {v!r}")


def parse_request(line: bytes) -> dict:
    """Decode one request line into a dict (raises :class:`ProtocolError`)."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise ProtocolError(f"bad JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object")
    op = obj.get("op")
    if not isinstance(op, str):
        raise ProtocolError("missing op")
    obj["op"] = op.lstrip("/").lower()
    return obj


def parse_eval_request(obj: dict) -> dict:
    """Validate an ``eval`` request; returns normalized fields."""
    fn = obj.get("fn")
    if not isinstance(fn, str):
        raise ProtocolError("eval needs a string 'fn'")
    raw_inputs = obj.get("inputs")
    if raw_inputs is None and "input" in obj:
        raw_inputs = [obj["input"]]
    if isinstance(raw_inputs, np.ndarray):
        # The binary frame path: already a float64 view, no token parsing.
        if raw_inputs.size == 0:
            raise ProtocolError("eval needs a non-empty 'inputs' list")
        inputs = raw_inputs
    elif not isinstance(raw_inputs, list) or not raw_inputs:
        raise ProtocolError("eval needs a non-empty 'inputs' list")
    else:
        inputs = [parse_float_token(v) for v in raw_inputs]
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


def eval_response(req_id: Any, result: BatchResult) -> dict:
    """The success response body for one ``eval`` request."""
    return {
        "id": req_id,
        "ok": True,
        "fn": result.fn,
        "family": result.family,
        "fmt": result.fmt.display_name,
        "level": result.level,
        "mode": result.mode.value,
        "bits": result.bits,
        "values": result.values,
        "tiers": result.tiers,
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


def encode_response(obj: dict) -> bytes:
    """One response line (compact JSON + newline, NaN tokens allowed)."""
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()
