"""Elastic generation worker: lease, compute, heartbeat, repeat.

A :class:`DistWorker` is a synchronous loop over the coordinator's
``dist.*`` ops: register, lease a unit, compute it, deliver the result,
until the coordinator answers ``drained``.  Workers are stateless and
elastic — any number may join or leave mid-run (scale-out is "start
another worker", crash recovery is "the lease expires"), because every
unit is deterministic in the spec alone.

While a unit computes, a background heartbeat thread renews its lease on
a *separate* connection every third of the TTL, so a long Clarkson round
does not look like a dead worker.  A worker that dies mid-unit simply
stops heartbeating; the coordinator's sweep requeues the unit.

Per-function constraint sweeps dominate unit cost, so workers memoize
``(family, fn) -> (pipeline, constraints, forced_specials)`` — every
piece of every round of a function reuses one sweep, same as the
single-host loop.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import socket
import threading
import time
from typing import Dict, Optional, Tuple

from ..core import (
    GenerationError,
    PieceUnitResult,
    assemble_function,
    collect_constraints,
    search_piece_unit,
)
from ..envcfg import env_float
from ..funcs import FAMILY_CONFIGS, make_pipeline
from ..libm.artifacts import generated_to_dict
from ..mp.oracle import Oracle
from ..obs import get_tracer
from ..resilience.faults import maybe_crash, maybe_sleep
from ..serve.client import ServeClient

logger = logging.getLogger("repro.dist")


class DistWorker:
    """One worker process's connection to the coordinator."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        worker_id: Optional[str] = None,
        oracle: Optional[Oracle] = None,
        timeout: float = 60.0,
        poll: Optional[float] = None,
        max_units: Optional[int] = None,
        heartbeat: bool = True,
    ):
        self.host = host
        self.port = port
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.timeout = timeout
        self.poll = (
            poll
            if poll is not None
            else env_float("REPRO_DIST_POLL", 0.2, minimum=0.01)
        )
        self.max_units = max_units
        #: Tests disable renewal to model a worker whose heartbeats are
        #: lost (partition) while it keeps computing.
        self.heartbeat = heartbeat
        self._oracle = oracle
        self._cache: Dict[Tuple[str, str], tuple] = {}
        self.completed = 0
        self.failed = 0
        # Heartbeat state shared with the renewal thread.
        self._hb_lock = threading.Lock()
        self._hb_unit: Optional[str] = None
        self._hb_stop = threading.Event()
        self._hb_period = 1.0

    # -- heartbeat -----------------------------------------------------
    def _heartbeat_loop(self) -> None:
        """Renew the current unit's lease on a dedicated connection."""
        client: Optional[ServeClient] = None
        while not self._hb_stop.wait(self._hb_period):
            with self._hb_lock:
                unit = self._hb_unit
            if unit is None:
                continue
            try:
                if client is None:
                    client = ServeClient(self.host, self.port, self.timeout)
                client.request(
                    {"op": "dist.heartbeat", "worker": self.worker_id,
                     "unit": unit}
                )
            except OSError:
                # The coordinator may be restarting; the lease sweep is
                # the arbiter, the worker just keeps computing.
                if client is not None:
                    try:
                        client.close()
                    except OSError:
                        pass
                    client = None
        if client is not None:
            try:
                client.close()
            except OSError:
                pass

    # -- unit execution ------------------------------------------------
    def _pipeline_for(self, family: str, fn: str) -> tuple:
        key = (family, fn)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if self._oracle is None:
            self._oracle = Oracle()
        config = FAMILY_CONFIGS[family]
        pipe = make_pipeline(fn, config, self._oracle)
        logger.info("%s: sweeping constraints for %s/%s",
                    self.worker_id, family, fn)
        cons, forced = collect_constraints(pipe)
        self._cache[key] = (pipe, cons, forced)
        return self._cache[key]

    def execute_unit(self, unit: dict) -> dict:
        """Compute one leased unit; returns the wire result object."""
        pipe, cons, forced = self._pipeline_for(unit["family"], unit["fn"])
        params = unit["params"]
        if unit["kind"] == "piece":
            result = search_piece_unit(
                pipe, cons, unit["nsplits"], unit["piece_index"], params
            )
            return dataclasses.asdict(result)
        # Assemble: rebuild the round's units, re-verify, emit artifact.
        units = [PieceUnitResult(**u) for u in unit["units"]]
        try:
            gen = assemble_function(
                pipe, cons, forced, units, unit["counters"],
                max_specials=params["max_specials"],
            )
        except GenerationError as exc:
            # The round is unsatisfiable — a *successful* unit outcome
            # (the coordinator splits further); not a worker failure.
            return {"ok": False, "generation_error": str(exc)}
        return {"ok": True, "artifact": generated_to_dict(gen)}

    # -- main loop -----------------------------------------------------
    def run(self) -> int:
        """Work until the coordinator drains; returns units completed."""
        client = ServeClient(self.host, self.port, self.timeout)
        hello = client.request(
            {"op": "dist.register", "worker": self.worker_id}
        )
        self._hb_period = max(0.05, float(hello.get("heartbeat", 1.0)))
        hb_thread = None
        if self.heartbeat:
            hb_thread = threading.Thread(
                target=self._heartbeat_loop,
                name=f"heartbeat-{self.worker_id}",
                daemon=True,
            )
            hb_thread.start()
        logger.info(
            "%s: joined coordinator at %s:%d", self.worker_id,
            self.host, self.port,
        )
        try:
            while True:
                try:
                    resp = client.request(
                        {"op": "dist.lease", "worker": self.worker_id}
                    )
                except (OSError, EOFError):
                    # A vanished coordinator is a drain: the run either
                    # finished or will resume from its journal — elastic
                    # workers just go away.
                    logger.info(
                        "%s: coordinator gone; draining", self.worker_id
                    )
                    break
                if resp.get("drained"):
                    break
                unit = resp.get("unit")
                if unit is None:
                    time.sleep(self.poll)
                    continue
                self._run_unit(client, unit, resp)
                if self.max_units and self.completed >= self.max_units:
                    break
        finally:
            self._hb_stop.set()
            if hb_thread is not None:
                hb_thread.join(timeout=5.0)
            client.close()
        return self.completed

    def _run_unit(self, client: ServeClient, unit: dict, lease: dict) -> None:
        uid = unit["id"]
        with self._hb_lock:
            self._hb_unit = uid
        t0 = time.time()
        try:
            # Chaos sites: an injected crash here kills the whole worker
            # process mid-lease (the coordinator's sweep must recover);
            # an injected sleep outlives the lease TTL instead.
            maybe_crash("dist.worker.crash")
            maybe_sleep("dist.worker.slow")
            result = self.execute_unit(unit)
        except Exception as exc:  # noqa: BLE001 - reported to coordinator
            self.failed += 1
            logger.warning("%s: unit %s failed: %s", self.worker_id, uid, exc)
            try:
                client.request(
                    {"op": "dist.fail", "worker": self.worker_id,
                     "unit": uid, "error": f"{type(exc).__name__}: {exc}"}
                )
            except OSError:
                pass  # lease expiry covers an unreachable coordinator
            return
        finally:
            with self._hb_lock:
                self._hb_unit = None
        self._record_unit_span(unit, lease, t0, time.time() - t0)
        try:
            client.request(
                {"op": "dist.complete", "worker": self.worker_id,
                 "unit": uid, "result": result}
            )
        except (OSError, EOFError):
            logger.warning(
                "%s: could not deliver %s (coordinator gone); the lease "
                "sweep will requeue it", self.worker_id, uid,
            )
            return
        self.completed += 1
        logger.info("%s: completed %s (%.2fs)", self.worker_id, uid,
                    time.time() - t0)

    def _record_unit_span(
        self, unit: dict, lease: dict, ts: float, dur: float
    ) -> None:
        """Stitch this unit into the coordinator's trace (if any)."""
        tracer = get_tracer()
        ctx = lease.get("trace")
        if not tracer.enabled or not isinstance(ctx, dict):
            return
        tracer.record_span(
            "dist.unit", ts, dur,
            trace_id=ctx.get("id"), parent_id=ctx.get("parent"),
            unit=unit["id"], kind=unit["kind"], fn=unit["fn"],
            worker=self.worker_id, attempt=lease.get("attempt"),
        )
