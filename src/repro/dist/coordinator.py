"""The lease-based generation coordinator.

A :class:`DistCoordinator` owns one :class:`~repro.dist.units.GenerateSpec`:
it decomposes each function into piece/assemble work units (mirroring the
single-host search loop round for round), grants them to elastic workers
under heartbeat-renewed leases, and journals every state transition to a
crash-safe write-ahead log *before* acting on it — a SIGKILL'd
coordinator restarted over the same journal resumes with no unit lost,
none double-counted, and a final artifact byte-identical to a single-host
``repro generate``.

It speaks the serving stack's wire protocol (newline JSON upgradable to
``binary.v1`` frames) by subclassing
:class:`~repro.serve.base.BaseProtocolServer` — admission control,
deadlines, drain and the ``ping``/``health``/``stats``/``metrics`` ops
come from the base; this class adds the ``dist.*`` control ops:

=================  ====================================================
``dist.register``  hello: returns the spec, lease TTL, heartbeat period
``dist.lease``     grant the next pending unit (or ``wait``/``drained``)
``dist.heartbeat`` renew the lease on a unit mid-computation
``dist.complete``  deliver a finished unit's result (idempotent)
``dist.fail``      report a unit attempt failed (requeue or park)
``dist.status``    scheduling snapshot (rounds, unit counts, workers)
=================  ====================================================

Scheduling policy: a round of ``nsplits`` piece units per function; when
all pieces of a round complete, one assemble unit re-verifies and builds
the artifact — or reports the round unsatisfiable, and the function's
:class:`~repro.core.search.Rounds` (the single-host loop's round policy)
plans the next round or gives up.  A unit whose attempts (failures +
lease expiries) exhaust the budget is *parked* and fails its function
rather than poisoning more workers.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from ..core.search import Rounds, assemble_unit_id, parse_unit_id
from ..envcfg import env_float, env_int
from ..libm.artifacts import generated_from_dict, save_generated
from ..obs import get_registry, get_tracer
from ..resilience.faults import maybe_fire
from ..serve.base import BaseProtocolServer
from ..serve.protocol import ProtocolError
from .journal import Journal, open_run_journal
from .leases import DEFAULT_LEASE_TTL, DEFAULT_MAX_ATTEMPTS, LeaseManager
from .units import (
    GenerateSpec,
    fn_inputs_hash,
    incremental_hit,
    load_manifest,
    update_manifest,
)

logger = logging.getLogger("repro.dist")

JOURNAL_NAME = "dist-journal.bin"

#: Function scheduling states.
_PIECES, _ASSEMBLE, _DONE, _FAILED = "pieces", "assemble", "done", "failed"


@dataclass
class _FnState:
    """Scheduling state of one function, beside its round policy (which
    holds the round's split count and every unit result)."""

    rounds: Rounds
    status: Optional[str] = None  # None until a round is planned
    artifact_path: Optional[Path] = None
    spliced: bool = False
    reason: Optional[str] = None


class DistCoordinator(BaseProtocolServer):
    """Crash-safe work-unit scheduler over the serving wire protocol."""

    def __init__(
        self,
        spec: GenerateSpec,
        out_dir: Path,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        lease_ttl: Optional[float] = None,
        max_attempts: Optional[int] = None,
        journal_fsync: bool = True,
        incremental: bool = True,
        **server_kwargs,
    ):
        super().__init__(host, port, **server_kwargs)
        self.spec = spec
        self.out_dir = Path(out_dir)
        self.incremental = incremental
        self.lease_ttl = (
            lease_ttl
            if lease_ttl is not None
            else env_float(
                "REPRO_DIST_LEASE_TTL", DEFAULT_LEASE_TTL, minimum=0.1
            )
        )
        self.max_attempts = (
            max_attempts
            if max_attempts is not None
            else env_int(
                "REPRO_DIST_MAX_ATTEMPTS", DEFAULT_MAX_ATTEMPTS, minimum=1
            )
        )
        self._journal_fsync = journal_fsync
        self.leases = LeaseManager(
            ttl=self.lease_ttl, max_attempts=self.max_attempts
        )
        self.journal: Optional[Journal] = None
        self._fns: Dict[str, _FnState] = {
            fn: _FnState(spec.rounds(fn)) for fn in spec.functions
        }
        self._workers: Dict[str, float] = {}
        self._sweep_task: Optional[asyncio.Task] = None
        #: Set when every function is done or failed (thread-safe: the
        #: driver waits on it from outside the event loop).
        self.run_complete = threading.Event()
        self._registry = get_registry()
        self.incremental_hits = 0

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> "DistCoordinator":
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._open_journal_and_replay()
        self._plan_unplanned()
        self._check_run_complete()
        await super().start()
        self._sweep_task = asyncio.ensure_future(self._sweep_loop())
        self._update_gauges()
        return self

    async def _after_drain(self) -> None:
        if self._sweep_task is not None:
            self._sweep_task.cancel()
            try:
                await self._sweep_task
            except asyncio.CancelledError:
                pass
        if self.journal is not None:
            self.journal.close()

    async def _sweep_loop(self) -> None:
        interval = env_float(
            "REPRO_DIST_SWEEP", min(0.5, self.lease_ttl / 4), minimum=0.01
        )
        while True:
            await asyncio.sleep(interval)
            self._sweep_expired()

    def _sweep_expired(self) -> None:
        if maybe_fire("dist.lease.expire"):
            # Injected mass expiry: every live lease is treated as
            # abandoned, driving the reassignment path under test.
            for lease in self.leases.leased.values():
                lease.expires_at = 0.0
        expired = self.leases.expire()
        for uid, worker, outcome in expired:
            self._counter("repro_dist_lease_expirations_total").inc()
            self._journal_append(
                {"type": "fail", "unit": uid, "worker": worker,
                 "reason": "lease expired", "outcome": outcome}
            )
            if outcome == "retry":
                self._counter("repro_dist_reassignments_total").inc()
                logger.warning(
                    "lease on %s (worker %s) expired; requeued", uid, worker
                )
            else:
                self._park_unit(uid, "lease expired repeatedly")
        if expired:
            self._update_gauges()

    # -- journal -------------------------------------------------------
    def _open_journal_and_replay(self) -> None:
        path = self.out_dir / JOURNAL_NAME
        live_hash = self.spec.spec_hash()
        journal, records = open_run_journal(
            path, lambda head: head.get("spec_hash") == live_hash,
            fsync=self._journal_fsync,
        )
        if any(r.get("type") == "run_done" for r in records):
            # The previous run finished; its history is dead weight.  A
            # fresh journal starts and the *manifest* decides what can
            # be spliced — that is the incremental path, not replay.
            journal.close()
            path.unlink()
            journal, records = Journal.open(path, fsync=self._journal_fsync)
        self.journal = journal
        if not records:
            self._journal_append(
                {"type": "run", "spec": self.spec.to_dict(),
                 "spec_hash": live_hash}
            )
            return
        logger.info(
            "replaying %d journal records from %s", len(records), path.name
        )
        for record in records[1:]:
            self._apply_record(record)

    def _journal_append(self, record: dict) -> None:
        assert self.journal is not None
        self.journal.append(record)
        self._counter("repro_dist_journal_records_total").inc()

    def _apply_record(self, record: dict) -> None:
        """Replay one journaled state transition."""
        rtype = record.get("type")
        if rtype == "plan":  # its nsplits is the replayed Rounds' own
            self._apply_plan(record["fn"])
        elif rtype == "done":
            self._apply_done(record["unit"], record["result"])
        elif rtype == "fail":
            self.leases.record_failed_attempt(record["unit"])
        elif rtype == "park":
            self._apply_park(record["unit"], record.get("reason", "parked"))
        elif rtype in ("run", "fn_done", "fn_failed", "run_done", "incremental"):
            pass  # informational; state is derived from the records above
        else:
            logger.warning("ignoring unknown journal record type %r", rtype)

    # -- planning ------------------------------------------------------
    def _plan_unplanned(self) -> None:
        """Plan round 1 (or splice a clean artifact) for untouched fns."""
        manifest = load_manifest(self.out_dir) if self.incremental else {}
        for fn, state in self._fns.items():
            if state.status is not None:
                continue
            inputs_hash = fn_inputs_hash(self.spec, fn)
            artifact_name = f"{self.spec.family}_{fn}.json"
            hit = incremental_hit(
                self.out_dir, manifest, fn, inputs_hash, artifact_name
            )
            if hit is not None:
                state.status = _DONE
                state.artifact_path = hit
                state.spliced = True
                self.incremental_hits += 1
                self._counter("repro_dist_incremental_hits_total").inc()
                self._journal_append(
                    {"type": "incremental", "fn": fn,
                     "inputs_hash": inputs_hash}
                )
                logger.info("%s: unchanged inputs; spliced %s", fn, hit.name)
                continue
            self._plan_round(fn)
        # Replayed functions whose round finished right before the crash
        # may still owe an assemble unit.
        for state in self._fns.values():
            if state.status == _PIECES:
                self._maybe_schedule_assemble(state)

    def _plan_round(self, fn: str) -> None:
        nsplits = self._fns[fn].rounds.nsplits
        self._journal_append({"type": "plan", "fn": fn, "nsplits": nsplits})
        self._apply_plan(fn)

    def _apply_plan(self, fn: str) -> None:
        state = self._fns[fn]
        state.status = _PIECES
        self.leases.add_units(
            uid for uid in state.rounds.piece_ids()
            if uid not in state.rounds.results
        )

    def _maybe_schedule_assemble(self, state: _FnState) -> None:
        rounds = state.rounds
        if rounds.round_results() is None:
            return
        state.status = _ASSEMBLE
        uid = assemble_unit_id(rounds.fn, rounds.nsplits)
        if uid not in rounds.results:
            self.leases.add_units([uid])
        else:
            # Crash landed between the assemble 'done' record and acting
            # on it: apply the stored result now.
            self._apply_assemble_result(state, rounds.results[uid])

    # -- unit completion -----------------------------------------------
    def _apply_done(self, uid: str, result: dict) -> None:
        fn, nsplits, piece_index = parse_unit_id(uid)
        state = self._fns.get(fn)
        if state is None:
            raise ProtocolError(f"unit {uid!r} names no function in the run")
        self.leases.add_units([uid])  # replay may see done before plan
        if not self.leases.complete(uid):
            self._counter("repro_dist_duplicate_results_total").inc()
            return
        state.rounds.results[uid] = result
        if piece_index is not None:
            if state.status == _PIECES and nsplits == state.rounds.nsplits:
                self._maybe_schedule_assemble(state)
        else:
            self._apply_assemble_result(state, result)

    def _apply_assemble_result(self, state: _FnState, result: dict) -> None:
        rounds = state.rounds
        if result.get("ok"):
            gen = generated_from_dict(result["artifact"])
            # save_generated is atomic + durable, and the bytes are a
            # pure function of the spec — re-writing on replay is
            # idempotent.
            state.artifact_path = save_generated(gen, self.out_dir)
            inputs_hash = fn_inputs_hash(self.spec, rounds.fn)
            update_manifest(
                self.out_dir, rounds.fn, inputs_hash, state.artifact_path
            )
            state.status = _DONE
            self._journal_append(
                {"type": "fn_done", "fn": rounds.fn,
                 "inputs_hash": inputs_hash,
                 "artifact": state.artifact_path.name}
            )
            logger.info(
                "%s: artifact complete (%d sub-domains)",
                rounds.fn, rounds.nsplits,
            )
            self._check_run_complete()
            return
        # Round unsatisfiable: the round policy plans the next round or
        # gives up, exactly as in the single-host search loop.
        reason = result.get("generation_error", "round failed")
        if rounds.split(reason):
            logger.info(
                "%s: round unsatisfiable (%s); splitting into %d",
                rounds.fn, reason, rounds.nsplits,
            )
            self._plan_round(rounds.fn)
        else:
            self._fail_fn(state, str(rounds.error()))

    def _park_unit(self, uid: str, reason: str) -> None:
        self._journal_append({"type": "park", "unit": uid, "reason": reason})
        self._apply_park(uid, reason)

    def _apply_park(self, uid: str, reason: str) -> None:
        self.leases.park(uid, reason)
        self._counter("repro_dist_units_parked_total").inc()
        fn = parse_unit_id(uid)[0]
        state = self._fns.get(fn)
        if state is not None and state.status not in (_DONE, _FAILED):
            self._fail_fn(state, f"unit {uid} parked: {reason}")

    def _fail_fn(self, state: _FnState, reason: str) -> None:
        fn = state.rounds.fn
        state.status = _FAILED
        state.reason = reason
        self._journal_append(
            {"type": "fn_failed", "fn": fn, "reason": reason}
        )
        # Sibling units can no longer contribute; stop granting them.
        for uid in list(self.leases.pending):
            if parse_unit_id(uid)[0] == fn:
                self.leases.park(uid, "function failed")
        logger.error("%s: generation failed: %s", fn, reason)
        self._check_run_complete()

    def _check_run_complete(self) -> None:
        if all(s.status in (_DONE, _FAILED) for s in self._fns.values()):
            if not self.run_complete.is_set():
                self._journal_append({"type": "run_done"})
                self.run_complete.set()

    # -- ops -----------------------------------------------------------
    async def _dispatch(self, obj: dict) -> dict:
        op = obj["op"]
        if op == "dist.register":
            return self._op_register(obj)
        if op == "dist.lease":
            return self._op_lease(obj)
        if op == "dist.heartbeat":
            return self._op_heartbeat(obj)
        if op == "dist.complete":
            return self._op_complete(obj)
        if op == "dist.fail":
            return self._op_fail(obj)
        if op == "dist.status":
            return self._op_status(obj)
        return await super()._dispatch(obj)

    @staticmethod
    def _worker_id(obj: dict) -> str:
        worker = obj.get("worker")
        if not isinstance(worker, str) or not worker:
            raise ProtocolError("'worker' must be a non-empty string")
        return worker

    def _op_register(self, obj: dict) -> dict:
        worker = self._worker_id(obj)
        self._workers[worker] = time.monotonic()
        self._gauge("repro_dist_workers").set(len(self._workers))
        return {
            "ok": True,
            "spec": self.spec.to_dict(),
            "lease_ttl": self.lease_ttl,
            "heartbeat": self.lease_ttl / 3.0,
        }

    def _op_lease(self, obj: dict) -> dict:
        worker = self._worker_id(obj)
        self._workers[worker] = time.monotonic()
        if self.run_complete.is_set():
            return {"ok": True, "unit": None, "drained": True}
        lease = self.leases.grant(worker)
        if lease is None:
            return {"ok": True, "unit": None, "drained": False}
        self._update_gauges()
        response = {
            "ok": True,
            "unit": self._unit_payload(lease.unit_id),
            "lease_ttl": self.lease_ttl,
            "attempt": lease.attempt,
        }
        tracer = get_tracer()
        if tracer.enabled:
            # Span context rides the grant so the worker's unit spans
            # parent under this coordinator's trace across the hop.
            response["trace"] = {
                "id": tracer.trace_id,
                "parent": tracer.current_span_id(),
            }
        return response

    def _unit_payload(self, uid: str) -> dict:
        fn, nsplits, piece_index = parse_unit_id(uid)
        rounds = self._fns[fn].rounds
        payload = {
            "id": uid,
            "fn": fn,
            "family": self.spec.family,
            "nsplits": nsplits,
            "params": self.spec.params_for(fn),
        }
        if piece_index is not None:
            payload["kind"] = "piece"
            payload["piece_index"] = piece_index
        else:
            payload["kind"] = "assemble"
            payload["units"] = rounds.round_results()
            payload["counters"] = rounds.counters()
        return payload

    def _op_heartbeat(self, obj: dict) -> dict:
        worker = self._worker_id(obj)
        self._workers[worker] = time.monotonic()
        renewed = self.leases.renew(str(obj.get("unit")), worker)
        return {"ok": True, "renewed": renewed}

    def _op_complete(self, obj: dict) -> dict:
        worker = self._worker_id(obj)
        uid = str(obj.get("unit"))
        result = obj.get("result")
        if not isinstance(result, dict):
            raise ProtocolError("'result' must be the unit result object")
        first = uid not in self.leases.done
        if first:
            # Journal before applying: a crash right after this append
            # replays the completion; a crash right before it re-runs
            # the unit — deterministic either way.
            self._journal_append(
                {"type": "done", "unit": uid, "result": result,
                 "worker": worker}
            )
        self._apply_done(uid, result)
        self._update_gauges()
        return {"ok": True, "accepted": first}

    def _op_fail(self, obj: dict) -> dict:
        worker = self._worker_id(obj)
        uid = str(obj.get("unit"))
        reason = str(obj.get("error", "worker error"))
        outcome = self.leases.fail(uid, worker, reason)
        if outcome is not None:
            self._journal_append(
                {"type": "fail", "unit": uid, "worker": worker,
                 "reason": reason, "outcome": outcome}
            )
            if outcome == "parked":
                self._park_unit(uid, reason)
            else:
                self._counter("repro_dist_reassignments_total").inc()
        self._update_gauges()
        return {"ok": True, "outcome": outcome or "stale"}

    def _op_status(self, obj: dict) -> dict:
        return {"ok": True, "status": self.status()}

    def status(self) -> dict:
        return {
            "family": self.spec.family,
            "functions": {
                fn: {
                    "status": s.status,
                    "nsplits": s.rounds.nsplits,
                    "spliced": s.spliced,
                    "reason": s.reason,
                    "artifact": (
                        s.artifact_path.name if s.artifact_path else None
                    ),
                }
                for fn, s in self._fns.items()
            },
            "units": {
                "pending": len(self.leases.pending),
                "leased": len(self.leases.leased),
                "done": len(self.leases.done),
                "parked": len(self.leases.parked),
            },
            "workers": sorted(self._workers),
            "incremental_hits": self.incremental_hits,
            "run_complete": self.run_complete.is_set(),
        }

    def failed_functions(self) -> Dict[str, str]:
        return {
            fn: s.reason or "failed"
            for fn, s in self._fns.items()
            if s.status == _FAILED
        }

    def health(self) -> dict:
        body = super().health()
        body["dist"] = self.status()["units"]
        body["run_complete"] = self.run_complete.is_set()
        return body

    # -- metrics -------------------------------------------------------
    def _counter(self, name: str):
        return self._registry.counter(
            name, help=_METRIC_HELP[name], family=self.spec.family
        )

    def _gauge(self, name: str):
        return self._registry.gauge(
            name, help=_METRIC_HELP[name], family=self.spec.family
        )

    def _update_gauges(self) -> None:
        self._gauge("repro_dist_units_pending").set(len(self.leases.pending))
        self._gauge("repro_dist_units_leased").set(len(self.leases.leased))
        self._gauge("repro_dist_units_done").set(len(self.leases.done))
        self._gauge("repro_dist_workers").set(len(self._workers))


_METRIC_HELP = {
    "repro_dist_units_pending": "work units queued awaiting a lease",
    "repro_dist_units_leased": "work units currently leased to workers",
    "repro_dist_units_done": "work units completed",
    "repro_dist_units_parked_total": "work units parked after exhausting the attempt budget",
    "repro_dist_lease_expirations_total": "leases that expired without completion",
    "repro_dist_reassignments_total": "units requeued after a failed or expired lease",
    "repro_dist_duplicate_results_total": "completions discarded as duplicates",
    "repro_dist_incremental_hits_total": "functions spliced from unchanged prior artifacts",
    "repro_dist_journal_records_total": "records appended to the coordinator journal",
    "repro_dist_workers": "workers seen by the coordinator",
}
