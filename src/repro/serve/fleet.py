"""Horizontally scaled serving: a self-healing shared-nothing fleet.

Topology: one :class:`FleetRouter` (the acceptor clients connect to)
and ``n_workers`` evaluator worker *processes*.  The router builds a
:class:`~repro.serve.hashring.ShardMap` over the family's ``(fn,
level)`` keys; each worker process runs a plain
:class:`~repro.serve.server.ServeServer` whose registry loads **only**
the shards the map assigns it — its primary keys plus the keys it
backs as a replica (``--replication R``, default 2), so worker memory
scales with ``R/N`` of the family and a worker crash loses *capacity*,
not availability.  The router speaks the same negotiated
JSON/``binary.v1`` protocol to its clients as every other server, and
uses the binary protocol on its worker links, so a bulk eval crosses
the extra hop as raw buffers end to end.

Self-healing has three cooperating layers:

* **Supervision** — a router-side supervisor watches every worker
  (pid/exitcode plus a periodic async ``ping`` probe) and respawns dead
  or wedged processes with jittered exponential backoff under a restart
  budget.  A successful respawn re-establishes the binary link, resets
  the worker's circuit breaker and returns the slot to ``ok``; an
  exhausted budget parks the slot at ``down`` instead of crash-looping.
* **Replicated failover** — every key resolves to an ordered
  ``[primary, replica...]`` worker tuple; when the primary's breaker is
  open, its in-flight cap is hit, or the dispatch itself fails, the
  router re-routes to the next replica (and makes one bounded second
  pass while deadline budget remains).  Replicas load the same
  artifacts, so failover is bit-identical — a worker death degrades
  p99, not answers.
* **Deadline budgets** — the router forwards the *remaining* request
  deadline to the worker in frame metadata (the ``budget`` field), so
  a retried or failed-over hop never exceeds the budget the client's
  original request started with.

Every hardcoded timeout lives in :class:`FleetConfig` and is
overridable per field via ``REPRO_FLEET_<FIELD>`` environment variables
and ``repro serve`` CLI flags, so chaos tests never race wall-clock
constants.

Workers are started with the repo-standard multiprocessing start method
(``REPRO_MP_START``), report their ephemeral port back through a pipe,
and drain gracefully on SIGTERM.  ``REPRO_TRACE`` span context
propagates router → worker both at spawn (environment) and per request
(frame metadata), so one eval reads as one span tree across processes.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import time
from dataclasses import dataclass, fields as dataclass_fields
from multiprocessing import get_context
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple

from ..obs import get_registry, get_tracer, merge_metrics_json, prometheus_from_json
from ..parallel.pool import start_method
from ..resilience.breaker import CircuitBreaker
from ..resilience.faults import maybe_crash
from .base import (
    DEFAULT_MAX_PENDING,
    DEFAULT_REQUEST_DEADLINE,
    BaseProtocolServer,
    RequestError,
    tune_gc_for_serving,
)
from .client import AsyncServeClient
from .evaluator import BatchResult, resolve_mode
from .hashring import ShardMap
from .metrics import FleetMetrics, ServerMetrics
from .protocol import ProtocolError, parse_eval_request
from .registry import FamilyLike, resolve_family, resolve_level_for
from .server import (
    DEFAULT_BATCH_WINDOW,
    DEFAULT_MAX_BATCH,
    ServerThread,
    ServeServer,
)

__all__ = [
    "DEFAULT_REPLICATION",
    "FleetConfig",
    "FleetRouter",
    "FleetThread",
    "start_fleet_thread",
]

#: How long the router waits for a worker to report its port.
WORKER_START_TIMEOUT = 60.0
#: SIGTERM → SIGKILL escalation deadline when stopping workers.
WORKER_STOP_TIMEOUT = 5.0
#: Per-worker link circuit breaker: trip fast, probe again quickly.
WORKER_FAILURE_THRESHOLD = 3
WORKER_RECOVERY_TIME = 1.0
#: Default shard replication factor (primary + one replica).
DEFAULT_REPLICATION = 2

#: Environment prefix for :class:`FleetConfig` overrides.
ENV_PREFIX = "REPRO_FLEET_"

#: Worker-side error codes worth trying a replica for: the answer could
#: differ on another copy of the shard.  Deterministic errors (unknown
#: fn, deadline already blown, validation) would fail identically.
_FAILOVER_CODES = frozenset({"worker_unavailable", "overloaded", "shutting_down"})


@dataclass
class FleetConfig:
    """Every fleet timeout/threshold, env-overridable per field.

    Each field reads its default from ``REPRO_FLEET_<FIELD>`` (upper
    case), so chaos drills can compress the wall-clock constants —
    breaker recovery, restart backoff, the SIGTERM join deadline —
    without patching code; ``repro serve`` flags override on top.
    """

    #: How long a spawning worker gets to report its port.
    start_timeout: float = WORKER_START_TIMEOUT
    #: SIGTERM → SIGKILL escalation deadline in ``stop_workers``.
    stop_timeout: float = WORKER_STOP_TIMEOUT
    #: Consecutive link failures (or failed probes) tripping a breaker.
    breaker_threshold: int = WORKER_FAILURE_THRESHOLD
    #: Seconds an open worker breaker waits before admitting a probe.
    breaker_recovery: float = WORKER_RECOVERY_TIME
    #: Supervisor tick: how often workers are pid-checked and pinged.
    probe_interval: float = 0.5
    #: Per-probe ``ping`` deadline before a worker counts as wedged.
    probe_timeout: float = 5.0
    #: Consecutive failed respawns before the supervisor gives up on a
    #: slot (``down`` status, not a crash loop).
    restart_budget: int = 5
    #: Base of the jittered exponential respawn backoff (seconds).
    restart_backoff: float = 0.25
    #: Backoff ceiling (seconds).
    restart_backoff_max: float = 5.0

    @classmethod
    def from_env(cls, **overrides) -> "FleetConfig":
        """Defaults ← ``REPRO_FLEET_*`` environment ← non-None overrides.

        Parsing goes through :mod:`repro.envcfg` with ``on_error="raise"``:
        a typo'd fleet knob stops server boot instead of silently running
        with the default.
        """
        from ..envcfg import env_float, env_int

        kwargs = {}
        for f in dataclass_fields(cls):
            name = ENV_PREFIX + f.name.upper()
            if os.environ.get(name) in (None, ""):
                continue
            read = env_int if isinstance(f.default, int) else env_float
            kwargs[f.name] = read(name, f.default, on_error="raise")
        for key, value in overrides.items():
            if value is not None:
                kwargs[key] = value
        return cls(**kwargs)


def _fleet_worker_main(
    conn,
    family,
    directory: Optional[Path],
    names: Sequence[str],
    roles: Optional[dict],
    server_kwargs: dict,
) -> None:
    """Worker process entry: serve one artifact shard until SIGTERM.

    Module-level and spawn-safe.  Reports ``{"ok": True, "port": p}``
    (or the startup failure) through ``conn``, then serves until
    SIGTERM/SIGINT, at which point it drains gracefully — stops
    accepting, flushes coalescing buckets, answers in-flight requests —
    and exits.
    """
    from ..obs.trace import reset_tracing
    from .registry import ServingRegistry

    reset_tracing()  # bind to the trace context the router exported
    # Chaos site: a worker that dies during boot exercises the
    # supervisor's restart budget (every respawn is a fresh process, so
    # a persistent spec kills every attempt until the budget runs out).
    maybe_crash("fleet.worker.boot")

    async def main() -> None:
        try:
            registry = ServingRegistry(
                family, directory, names=names, shard_roles=roles
            )
            server = await ServeServer(registry, **server_kwargs).start()
        except BaseException as e:
            conn.send({"ok": False, "error": f"{type(e).__name__}: {e}"})
            conn.close()
            raise
        conn.send({"ok": True, "port": server.port})
        conn.close()
        # The shard is loaded and will live for the process: freeze it
        # out of the collector before taking traffic.
        tune_gc_for_serving()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        await stop.wait()
        await server.aclose()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass


class _WorkerHandle:
    """Router-side state for one worker slot: process, link, breaker,
    in-flight cap, and supervision counters."""

    def __init__(
        self,
        index: int,
        names: Tuple[str, ...],
        keys: Tuple[Tuple[str, int], ...],
        primary_keys: Tuple[Tuple[str, int], ...],
        roles: dict,
        max_inflight: int,
        config: FleetConfig,
    ):
        self.index = index
        self.names = names
        self.keys = keys
        self.primary_keys = primary_keys
        self.roles = roles
        self.max_inflight = max_inflight
        self.inflight = 0
        self.process = None
        self.port: Optional[int] = None
        self.client: Optional[AsyncServeClient] = None
        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_threshold,
            recovery_time=config.breaker_recovery,
            latency_budget=None,
        )
        self.lock = asyncio.Lock()
        #: Lifetime successful supervised respawns.
        self.restarts = 0
        #: Consecutive failed respawn attempts (cleared on success).
        self.restart_attempts = 0
        #: Consecutive failed health probes (cleared on success).
        self.probe_failures = 0
        #: A respawn task currently owns this slot.
        self.respawning = False
        #: The restart budget ran out; the slot stays down.
        self.gave_up = False

    @property
    def alive(self) -> bool:
        """True while the worker process is running."""
        return self.process is not None and self.process.is_alive()

    @property
    def serving(self) -> bool:
        """Can this slot accept an eval right now (modulo the cap)?"""
        return self.alive and not self.gave_up

    def status(self, draining: bool) -> str:
        """``ok``/``degraded``/``respawning``/``down``/``draining``."""
        if draining:
            return "draining"
        if self.gave_up:
            return "down"
        if self.respawning:
            return "respawning"
        if not self.alive:
            return "down"
        if self.breaker.snapshot()["state"] != "closed":
            return "degraded"
        return "ok"


#: Per-key counters of a worker's ``stats`` that the router's ``stats``
#: reports summed over the live workers (the router evaluates nothing
#: itself, so its own copies of these stay empty).
_SUMMED_COUNTERS = ("requests_by_fn", "inputs_by_fn", "results_by_tier")


def _add_counters(total: dict, worker: dict) -> None:
    """Add one worker's per-key counters into the fleet totals."""
    for field in _SUMMED_COUNTERS:
        into = total.setdefault(field, {})
        for key, value in (worker.get(field) or {}).items():
            into[key] = into.get(key, 0) + value
        total[field] = dict(sorted(into.items()))


class FleetRouter(BaseProtocolServer):
    """The fleet's acceptor: shard-routes evals to worker processes."""

    def __init__(
        self,
        family: FamilyLike,
        directory: Optional[Path] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        n_workers: int = 2,
        names: Optional[Sequence[str]] = None,
        replicas: int = 64,
        replication: int = DEFAULT_REPLICATION,
        max_batch: int = DEFAULT_MAX_BATCH,
        batch_window: float = DEFAULT_BATCH_WINDOW,
        max_pending: int = DEFAULT_MAX_PENDING,
        worker_max_inflight: int = DEFAULT_MAX_PENDING,
        request_deadline: float = DEFAULT_REQUEST_DEADLINE,
        metrics: Optional[ServerMetrics] = None,
        binary: bool = True,
        config: Optional[FleetConfig] = None,
        supervise: bool = True,
    ):
        super().__init__(
            host, port,
            max_pending=max_pending,
            request_deadline=request_deadline,
            metrics=metrics,
            binary=binary,
        )
        self.family = resolve_family(family)
        self.directory = directory
        self.config = config or FleetConfig.from_env()
        self.supervise = supervise
        if names is None:
            from ..mp.oracle import FUNCTION_NAMES

            names = FUNCTION_NAMES
        self.names: Tuple[str, ...] = tuple(names)
        self._name_set = frozenset(self.names)
        self.shards = ShardMap(
            self.names, self.family.levels, n_workers, replicas, replication
        )
        self.fleet_metrics = FleetMetrics(self.metrics.registry, n_workers)
        self._worker_kwargs = {
            "host": "127.0.0.1",
            "port": 0,
            "max_batch": max_batch,
            "batch_window": batch_window,
            "max_pending": max(worker_max_inflight, DEFAULT_MAX_PENDING),
            "request_deadline": request_deadline,
        }
        self.workers: List[_WorkerHandle] = [
            _WorkerHandle(
                i,
                self.shards.names_for(i),
                self.shards.keys_for(i),
                self.shards.primary_keys_for(i),
                self.shards.roles_for(i),
                worker_max_inflight,
                self.config,
            )
            for i in range(n_workers)
        ]
        self._supervisor_task: Optional[asyncio.Task] = None
        self._respawn_tasks: Set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def _spawn_worker(self, w: _WorkerHandle) -> None:
        """Start (or replace) ``w``'s process and connect its link."""
        from ..obs.trace import propagate_to_children

        ctx = get_context(start_method())
        loop = asyncio.get_running_loop()
        if w.client is not None:
            try:
                await w.client.aclose()
            except (OSError, ConnectionError):
                pass
            w.client = None
        if w.process is not None and w.process.is_alive():
            # A wedged (alive but unresponsive) worker is replaced, not
            # reasoned with: SIGTERM, bounded join, SIGKILL.
            await loop.run_in_executor(
                None, _terminate_and_join, [w.process], self.config.stop_timeout
            )
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        with propagate_to_children():
            w.process = ctx.Process(
                target=_fleet_worker_main,
                args=(
                    child_conn,
                    self.family,
                    self.directory,
                    w.names,
                    w.roles,
                    self._worker_kwargs,
                ),
                daemon=True,
                name=f"repro-serve-worker-{w.index}",
            )
            w.process.start()
        child_conn.close()
        report = await loop.run_in_executor(
            None, _recv_report, parent_conn, self.config.start_timeout
        )
        parent_conn.close()
        if not report.get("ok"):
            raise RuntimeError(
                f"worker {w.index} failed to start: "
                f"{report.get('error', 'no port reported')}"
            )
        w.port = int(report["port"])
        w.client = await AsyncServeClient(
            "127.0.0.1", w.port, protocol="auto"
        ).connect()

    async def start(self) -> "FleetRouter":
        """Spawn + connect every worker, then start accepting."""
        try:
            for w in self.workers:
                await self._spawn_worker(w)
        except BaseException:
            await self._shutdown_workers()
            raise
        await super().start()
        if self.supervise:
            self._supervisor_task = asyncio.ensure_future(self._supervise())
        return self

    async def _after_drain(self) -> None:
        tasks = list(self._respawn_tasks)
        if self._supervisor_task is not None:
            tasks.append(self._supervisor_task)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._supervisor_task = None
        self._respawn_tasks.clear()
        await self._shutdown_workers()

    async def _shutdown_workers(self) -> None:
        for w in self.workers:
            if w.client is not None:
                try:
                    await w.client.aclose()
                except (OSError, ConnectionError):
                    pass
                w.client = None
        procs = [w.process for w in self.workers if w.process is not None]
        if not procs:
            return
        # SIGTERM → each worker drains gracefully; escalate only if stuck.
        await asyncio.get_running_loop().run_in_executor(
            None, _terminate_and_join, procs, self.config.stop_timeout
        )

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    async def _supervise(self) -> None:
        """The supervisor loop: pid checks + async health probes."""
        cfg = self.config
        while not self._draining:
            await asyncio.sleep(cfg.probe_interval)
            if self._draining:
                return
            await asyncio.gather(
                *(self._probe_worker(w) for w in self.workers),
                return_exceptions=True,
            )
            self._refresh_gauges()

    async def _probe_worker(self, w: _WorkerHandle) -> None:
        """One supervision tick for one worker slot."""
        if w.gave_up or w.respawning:
            return
        if not w.alive:
            self._start_respawn(w)
            return
        try:
            client = await self._ensure_link(w)
            async with asyncio.timeout(self.config.probe_timeout):
                await client.ping()
        except (
            RequestError, ConnectionError, OSError,
            ProtocolError, asyncio.TimeoutError,
        ):
            w.probe_failures += 1
            if w.probe_failures >= self.config.breaker_threshold:
                # Process alive but not answering: wedged.  Replace it
                # through the same respawn path a dead worker takes.
                self._start_respawn(w)
        else:
            w.probe_failures = 0
            if w.breaker.snapshot()["state"] != "closed":
                # The link demonstrably works again; don't make traffic
                # wait out the recovery window.
                w.breaker.reset()

    def _start_respawn(self, w: _WorkerHandle) -> None:
        """Hand the slot to a background respawn task (idempotent)."""
        if w.respawning or w.gave_up or self._draining:
            return
        w.respawning = True
        task = asyncio.ensure_future(self._respawn(w))
        self._respawn_tasks.add(task)
        task.add_done_callback(self._respawn_tasks.discard)

    async def _respawn(self, w: _WorkerHandle) -> None:
        """Respawn one worker: jittered backoff under a restart budget."""
        cfg = self.config
        try:
            while not self._draining:
                if w.restart_attempts >= cfg.restart_budget:
                    w.gave_up = True
                    self._refresh_gauges()
                    return
                delay = min(
                    cfg.restart_backoff_max,
                    cfg.restart_backoff * (2 ** w.restart_attempts),
                )
                # Jitter (0.5x–1.5x): a whole fleet respawning after a
                # correlated failure must not dogpile the host.
                await asyncio.sleep(delay * (0.5 + random.random()))
                w.restart_attempts += 1
                try:
                    await self._spawn_worker(w)
                    async with asyncio.timeout(cfg.probe_timeout):
                        await w.client.ping()
                except (
                    RuntimeError, OSError, ConnectionError,
                    ProtocolError, asyncio.TimeoutError,
                ):
                    continue
                # Probed healthy: reopen the slot for traffic.
                w.breaker.reset()
                w.probe_failures = 0
                w.restart_attempts = 0
                w.restarts += 1
                self.fleet_metrics.record_restart(w.index)
                self._refresh_gauges()
                return
        finally:
            w.respawning = False

    def _refresh_gauges(self) -> None:
        """Failover/availability gauges from current worker state."""
        down = 0
        for w in self.workers:
            failed = (
                not w.serving
                or w.breaker.snapshot()["state"] != "closed"
            )
            self.fleet_metrics.failover_keys[w.index].set(
                len(w.primary_keys) if failed else 0
            )
            if w.gave_up:
                down += 1
        self.fleet_metrics.workers_down.set(down)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _ensure_link(self, w: _WorkerHandle) -> AsyncServeClient:
        """The worker's live client, reconnecting if the link dropped.

        Raises :class:`RequestError` (``worker_unavailable``) without
        touching the breaker — the dispatching caller records the
        failure with the real elapsed time since dispatch, so breaker
        latency snapshots reflect connect-phase failures too.
        """
        client = w.client
        if client is not None and client.connected:
            return client
        async with w.lock:
            if w.client is not None and w.client.connected:
                return w.client
            if w.client is not None:
                try:
                    await w.client.aclose()
                except (OSError, ConnectionError):
                    pass
                w.client = None
            if not w.alive or w.port is None:
                raise RequestError(
                    f"worker {w.index} (shard of {len(w.keys)} keys) is not "
                    f"running",
                    code="worker_unavailable",
                )
            try:
                w.client = await AsyncServeClient(
                    "127.0.0.1", w.port, protocol="auto"
                ).connect()
            except (OSError, ConnectionError, ProtocolError) as e:
                raise RequestError(
                    f"worker {w.index} unreachable: {e}",
                    code="worker_unavailable",
                ) from None
            return w.client

    async def _dispatch_eval(
        self,
        w: _WorkerHandle,
        fn: str,
        level: int,
        mode,
        inputs,
        trace: Optional[dict],
        deadline_at: Optional[float],
    ) -> dict:
        """One eval attempt against one worker (breaker bookkeeping).

        Failures record the *actual* elapsed time since dispatch on the
        worker's breaker — connect-phase failures included — so
        ``health``/``stats`` latency snapshots never report zeros.
        """
        t0 = time.perf_counter()
        try:
            client = await self._ensure_link(w)
        except RequestError:
            w.breaker.record_failure(time.perf_counter() - t0)
            raise
        budget: Optional[float] = None
        if deadline_at is not None:
            budget = deadline_at - asyncio.get_running_loop().time()
        w.inflight += 1
        try:
            resp = await client.eval(
                fn,
                inputs,
                level=level,
                mode=mode.value,
                trace=trace,
                budget=budget,
            )
        except ConnectionError as e:
            w.breaker.record_failure(time.perf_counter() - t0)
            raise RequestError(
                f"worker {w.index} connection lost mid-request: {e}",
                code="worker_unavailable",
            ) from None
        finally:
            w.inflight -= 1
        w.breaker.record_success(time.perf_counter() - t0)
        return resp

    async def _op_eval(self, obj: dict) -> dict:
        fields = parse_eval_request(obj)
        fn = fields["fn"]
        if fn not in self._name_set:
            raise KeyError(f"unknown function {fn!r}")
        level, fmt = resolve_level_for(
            self.family, fields["fmt"], fields["level"]
        )
        mode = resolve_mode(fields["mode"])
        trace = obj.get("trace")
        if trace is None:
            tracer = get_tracer()
            if tracer.enabled:
                trace = {
                    "id": tracer.trace_id,
                    "parent": tracer.current_span_id(),
                }
        owners = self.shards.workers_for(fn, level)
        deadline_at = obj.get("_deadline_at")
        loop = asyncio.get_running_loop()
        last_error: Optional[RequestError] = None
        # Two passes over the replica chain: the second is the bounded
        # router-level retry — within the client's remaining budget a
        # breaker may have recovered or a respawn may have finished.
        for attempt in range(2):
            for rank, idx in enumerate(owners):
                if (
                    deadline_at is not None
                    and deadline_at - loop.time() <= 0
                ):
                    # Out of budget: whatever went wrong before, the
                    # client-visible truth is deadline_exceeded (gRPC
                    # semantics) — base maps TimeoutError to it.
                    raise asyncio.TimeoutError
                w = self.workers[idx]
                if w.gave_up:
                    last_error = RequestError(
                        f"worker {w.index} is down (restart budget "
                        f"exhausted; shard for {fn!r} level {level})",
                        code="worker_unavailable",
                    )
                    continue
                # A dead-but-not-given-up worker still goes through the
                # dispatch path: the connect failure records on its
                # breaker (tripping it after the threshold), which is
                # what health/metrics key degradation off.
                if not w.breaker.allow():
                    last_error = RequestError(
                        f"worker {w.index} circuit breaker is open (shard "
                        f"for {fn!r} level {level}); retry after its "
                        f"recovery window",
                        code="worker_unavailable",
                    )
                    continue
                if w.inflight >= w.max_inflight:
                    last_error = RequestError(
                        f"worker {w.index} overloaded: {w.inflight} requests"
                        f" in flight (cap {w.max_inflight}); retry later",
                        code="overloaded",
                        overload=True,
                    )
                    continue
                try:
                    resp = await self._dispatch_eval(
                        w, fn, level, mode, fields["inputs"], trace,
                        deadline_at,
                    )
                except RequestError as e:
                    if e.code in _FAILOVER_CODES:
                        last_error = e
                        continue
                    raise
                if not resp.get("ok"):
                    code = resp.get("code")
                    error = RequestError(
                        resp.get("error", f"worker {w.index} error"),
                        code=code,
                        overload=code == "overloaded",
                    )
                    if code in _FAILOVER_CODES:
                        last_error = error
                        continue
                    raise error
                if rank > 0 or attempt > 0:
                    self.fleet_metrics.record_failover(owners[0])
                # Re-wrap the worker's arrays as a BatchResult so the
                # client connection re-frames them zero-copy (or renders
                # JSON lists).
                result = BatchResult(
                    resp.get("fn", fn),
                    resp.get("family", self.family.name),
                    fmt,
                    level,
                    mode,
                    bits=resp.get("bits"),
                    values=resp.get("values"),
                    tiers=resp.get("tiers"),
                )
                return {"id": obj.get("id"), "ok": True, "_result": result}
        raise last_error if last_error is not None else RequestError(
            f"no worker available for shard ({fn!r}, level {level})",
            code="worker_unavailable",
        )

    # ------------------------------------------------------------------
    # Control ops (fleet-aggregated)
    # ------------------------------------------------------------------
    async def _worker_op(self, w: _WorkerHandle, op: str) -> dict:
        """One worker's control-op response body, or its failure."""
        entry = {
            "worker": w.index,
            "alive": w.alive,
            "port": w.port,
            "functions": list(w.names),
            "inflight": w.inflight,
            "restarts": w.restarts,
            "breaker": w.breaker.snapshot(),
        }
        try:
            client = await self._ensure_link(w)
            entry["response"] = await client.request({"op": op})
        except (RequestError, ConnectionError, OSError) as e:
            entry["error"] = str(e)
        return entry

    async def _op_stats(self, obj: dict) -> dict:
        stats = self.metrics.snapshot()
        rows = await asyncio.gather(
            *(self._worker_op(w, "stats") for w in self.workers)
        )
        workers = []
        for row in rows:
            resp = row.pop("response", None)
            if resp is not None and resp.get("ok"):
                row["stats"] = resp.get("stats")
                _add_counters(stats, row["stats"] or {})
            elif resp is not None:
                row["error"] = resp.get("error", "worker stats failed")
            workers.append(row)
        stats["workers"] = workers
        stats["shards"] = self.shards.describe()
        stats["fleet"] = self.fleet_metrics.snapshot()
        return {"ok": True, "stats": stats}

    async def _op_metrics(self, obj: dict) -> dict:
        payload = self.metrics.to_json()
        payload.update(get_registry().to_json())
        payloads = [payload]
        rows = await asyncio.gather(
            *(self._worker_op(w, "metrics") for w in self.workers)
        )
        live = 0
        for row in rows:
            resp = row.get("response")
            if resp is not None and resp.get("ok"):
                payloads.append(resp.get("metrics") or {})
                live += 1
        merged = merge_metrics_json(payloads)
        return {
            "ok": True,
            "metrics": merged,
            "prometheus": prometheus_from_json(merged),
            "workers_scraped": live,
        }

    async def _op_info(self, obj: dict) -> dict:
        functions: set = set()
        missing: set = set()
        tables: dict = {}
        compiled: dict = {}
        rows = await asyncio.gather(
            *(self._worker_op(w, "info") for w in self.workers)
        )
        workers = []
        for row in rows:
            resp = row.pop("response", None)
            row.pop("breaker", None)
            row.pop("inflight", None)
            if resp is not None and resp.get("ok"):
                info = resp.get("info", {})
                functions.update(info.get("functions", ()))
                missing.update(info.get("missing", ()))
                tables.update(info.get("tables", {}))
                compiled.update(info.get("compiled", {}))
            elif resp is not None:
                row["error"] = resp.get("error", "worker info failed")
            workers.append(row)
        return {
            "ok": True,
            "info": {
                "family": self.family.name,
                "formats": [f.display_name for f in self.family.formats],
                "levels": self.family.levels,
                "functions": sorted(functions),
                "missing": sorted(missing),
                "tables": {k: tables[k] for k in sorted(tables)},
                "compiled": {k: compiled[k] for k in sorted(compiled)},
                "fleet": self.shards.describe(),
                "workers": workers,
            },
        }

    def health(self) -> dict:
        """Per-shard readiness: no worker round trips, probes stay cheap."""
        workers = []
        for w in self.workers:
            workers.append({
                "worker": w.index,
                "status": w.status(self._draining),
                "alive": w.alive,
                "port": w.port,
                "inflight": w.inflight,
                "max_inflight": w.max_inflight,
                "functions": list(w.names),
                "restarts": w.restarts,
                "restart_attempts": w.restart_attempts,
                "gave_up": w.gave_up,
                "breaker": w.breaker.snapshot(),
            })
        n_ok = sum(1 for row in workers if row["status"] == "ok")
        if self._draining:
            status = "draining"
        elif n_ok == len(workers):
            status = "ok"
        elif n_ok or self.shards.replication > 1:
            # With replication, one lost worker degrades latency, not
            # availability — and even a fully-down fleet mid-respawn is
            # "degraded" from the router's seat (it still answers).
            status = "degraded" if n_ok else "down"
        else:
            status = "down"
        return {
            "status": status,
            "inflight": self._inflight,
            "max_pending": self.max_pending,
            "request_deadline": self.request_deadline,
            "draining": self._draining,
            "replication": self.shards.replication,
            "fleet": self.fleet_metrics.snapshot(),
            "workers": workers,
        }


def _recv_report(conn, timeout: float) -> dict:
    """The worker's startup report off its pipe (bounded wait)."""
    try:
        if conn.poll(timeout):
            report = conn.recv()
            if isinstance(report, dict):
                return report
            return {"ok": False, "error": f"bad startup report {report!r}"}
    except (EOFError, OSError) as e:
        return {"ok": False, "error": f"worker died during startup: {e}"}
    return {"ok": False, "error": f"no port reported within {timeout}s"}


def _terminate_and_join(procs, stop_timeout: float = WORKER_STOP_TIMEOUT) -> None:
    """SIGTERM every worker, join bounded, SIGKILL stragglers."""
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    deadline = time.monotonic() + stop_timeout
    for proc in procs:
        proc.join(max(0.1, deadline - time.monotonic()))
    for proc in procs:
        if proc.is_alive():
            proc.kill()
            proc.join(1.0)


class FleetThread(ServerThread):
    """A :class:`FleetRouter` (plus its workers) on a daemon thread."""

    def __init__(
        self,
        family: FamilyLike,
        directory: Optional[Path] = None,
        **router_kwargs,
    ):
        super().__init__(None)
        self.family = family
        self.directory = directory
        self.router_kwargs = router_kwargs

    def _make_server(self) -> FleetRouter:
        return FleetRouter(self.family, self.directory, **self.router_kwargs)


def start_fleet_thread(
    family: FamilyLike,
    directory: Optional[Path] = None,
    *,
    n_workers: int = 2,
    **router_kwargs,
) -> FleetThread:
    """Start a router + ``n_workers`` fleet on a daemon thread."""
    return FleetThread(
        family, directory, n_workers=n_workers, **router_kwargs
    ).start()
