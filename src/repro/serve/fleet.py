"""Horizontally scaled serving: N identical workers on one shared port.

Topology: one supervisor and ``n_workers`` evaluator worker *processes*.
The supervisor binds the public ``host:port`` once with
``SO_REUSEPORT`` and holds that socket without listening on it, so
``port=0`` resolves once and a respawned worker rebinds the same port.
Each worker runs a plain :class:`~repro.serve.server.ServeServer` over
the full registry, listening on the public port with ``reuse_port=True``
— the kernel spreads incoming connections across the workers — and on
a private loopback port the supervisor probes.  There is no router hop:
a connection's requests go straight to the worker that accepted it, and
since every worker loads every ``(fn, level)`` key, any worker gives
any answer with the same bits.

Supervision: the supervisor pid-checks every worker, ``ping``-probes it
over its private port, and respawns dead or wedged processes with
jittered exponential backoff under a restart budget; an exhausted
budget parks the slot at ``down`` instead of crash-looping.  A client
whose worker died reconnects — :class:`~repro.serve.client.ServeClient`
replays its unanswered requests — and lands on a live worker.

The fleet view is available from any connection: the supervisor keeps a
:class:`SlotTable` (per slot: pid, private port, status, restarts,
restart attempts, gave-up) in shared memory that every worker reads.
``health`` answers from it with no round trips; ``stats`` and
``metrics`` fan out to the live workers' private ports with
``"scope": "local"`` and merge the answers; ``info`` is answered
locally, since every worker loads the same registry, plus the slot rows.

Every timeout and threshold has its one default in :class:`FleetConfig`.
Workers are started with the repo-standard multiprocessing start method
(``REPRO_MP_START``), inherit the ``REPRO_TRACE`` span context at spawn,
report their private port back through a pipe, and drain gracefully on
SIGTERM.
"""

from __future__ import annotations

import asyncio
import random
import signal
import socket
import time
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple

from ..obs import merge_metrics_json, prometheus_from_json
from ..parallel.pool import start_method
from ..resilience.faults import maybe_crash
from .client import AsyncServeClient
from .metrics import fleet_registry
from .registry import FamilyLike, ServingRegistry, resolve_family
from .server import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_PENDING,
    DEFAULT_REQUEST_DEADLINE,
    ServerThread,
    ServeServer,
    tune_gc_for_serving,
)

__all__ = [
    "FleetConfig",
    "FleetSupervisor",
    "FleetThread",
    "FleetWorker",
    "SlotTable",
]

#: Consecutive failed probes after which a live worker counts as wedged.
WEDGED_AFTER_PROBES = 3


@dataclass
class FleetConfig:
    """Every fleet timeout/threshold, with its one default.

    :class:`FleetSupervisor` runs on ``FleetConfig()``; tests pass a
    compressed instance to shorten the wall-clock constants (probe
    tick, restart backoff, the SIGTERM join deadline).
    """

    #: How long a spawning worker gets to report its port.
    start_timeout: float = 60.0
    #: SIGTERM → SIGKILL escalation deadline when stopping workers.
    stop_timeout: float = 5.0
    #: Supervisor tick: how often workers are pid-checked and pinged.
    probe_interval: float = 0.5
    #: Per-probe ``ping`` deadline (also bounds a worker's fan-out to
    #: its peers for ``stats``/``metrics``).
    probe_timeout: float = 5.0
    #: Consecutive failed respawns before the supervisor gives up on a
    #: slot (``down`` status, not a crash loop).
    restart_budget: int = 5
    #: Base of the jittered exponential respawn backoff (seconds).
    restart_backoff: float = 0.25
    #: Backoff ceiling (seconds).
    restart_backoff_max: float = 5.0


# ----------------------------------------------------------------------
# The slot table: supervision state every worker can read
# ----------------------------------------------------------------------
_SLOT_FIELDS = ("pid", "port", "status", "restarts", "restart_attempts", "gave_up")
#: Slot statuses, stored as their index.
SLOT_STATUSES = ("down", "ok", "respawning", "draining")


class SlotTable:
    """Per-slot supervision state in shared memory.

    The supervisor writes it; every worker reads it to answer ``health``
    and to find its peers' private ports.  Each field is one int64 cell;
    a row read while the supervisor rewrites it may mix old and new
    fields, which the next read corrects.  The supervisor learns of a
    death on its next probe, so a killed worker's row reads ``ok`` for
    up to one probe interval.
    """

    def __init__(self, ctx, n_slots: int):
        self.n_slots = n_slots
        self._cells = ctx.RawArray("q", n_slots * len(_SLOT_FIELDS))

    def write(self, index: int, **values) -> None:
        """Set some fields of one slot (``status`` by name)."""
        base = index * len(_SLOT_FIELDS)
        for name, value in values.items():
            if name == "status":
                value = SLOT_STATUSES.index(value)
            self._cells[base + _SLOT_FIELDS.index(name)] = int(value)

    def rows(self) -> List[dict]:
        """One ``{"worker": i, "pid": ..., "status": ...}`` dict per slot."""
        width = len(_SLOT_FIELDS)
        cells = self._cells[:]
        out = []
        for i in range(self.n_slots):
            row = dict(zip(_SLOT_FIELDS, cells[i * width:(i + 1) * width]))
            row["status"] = SLOT_STATUSES[row["status"]]
            row["gave_up"] = bool(row["gave_up"])
            out.append({"worker": i, **row})
        return out


def _fleet_status(rows: Sequence[dict]) -> str:
    """``ok`` when every slot is, ``degraded`` when some are, else ``down``."""
    n_ok = sum(row["status"] == "ok" for row in rows)
    if n_ok == len(rows):
        return "ok"
    return "degraded" if n_ok else "down"


#: Per-key counters of a worker's ``stats`` that the fleet ``stats``
#: reports summed over the live workers.
_SUMMED_COUNTERS = ("requests_by_fn", "inputs_by_fn", "results_by_tier")


def _add_counters(total: dict, worker: dict) -> None:
    """Add one worker's per-key counters into the fleet totals."""
    for field in _SUMMED_COUNTERS:
        into = total.setdefault(field, {})
        for key, value in (worker.get(field) or {}).items():
            into[key] = into.get(key, 0) + value
        total[field] = dict(sorted(into.items()))


async def _request_private(port: int, obj: dict, timeout: float) -> dict:
    """One request to a worker's private port on a fresh connection."""
    async with asyncio.timeout(timeout):
        async with AsyncServeClient("127.0.0.1", port) as client:
            return await client.request(obj)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class FleetWorker(ServeServer):
    """One fleet worker: a :class:`ServeServer` over the full registry
    that also accepts on the fleet's shared public port, and answers the
    control ops with the fleet view read off the :class:`SlotTable`."""

    def __init__(
        self,
        registry: ServingRegistry,
        slots: SlotTable,
        index: int,
        public: Tuple[str, int],
        *,
        peer_timeout: float = 5.0,
        **server_kwargs,
    ):
        # The inherited listener is the private loopback port.
        super().__init__(registry, "127.0.0.1", 0, **server_kwargs)
        self.slots = slots
        self.index = index
        self.public = public
        self.peer_timeout = peer_timeout
        self._public_server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> "FleetWorker":
        await super().start()
        host, port = self.public
        self._public_server = await asyncio.start_server(
            self._handle_connection, host, port, reuse_port=True
        )
        return self

    async def aclose(self) -> None:
        if self._public_server is not None:
            # Leave the shared port first: new connections go to peers.
            self._public_server.close()
        await super().aclose()

    async def _peers(self, obj: dict) -> List[Tuple[dict, dict]]:
        """``obj`` sent to every other live slot: ``(row, response)``."""
        peers = [
            row for row in self.slots.rows()
            if row["worker"] != self.index and row["status"] == "ok"
        ]

        async def ask(row: dict) -> Tuple[dict, dict]:
            try:
                return row, await _request_private(
                    row["port"], dict(obj), self.peer_timeout
                )
            except (OSError, ValueError, asyncio.TimeoutError) as e:
                return row, {"ok": False, "error": f"{type(e).__name__}: {e}"}

        return await asyncio.gather(*(ask(row) for row in peers))

    async def _op_stats(self, obj: dict) -> dict:
        local = await super()._op_stats(obj)
        if obj.get("scope") == "local":
            return local
        own = local["stats"]
        total: dict = {}
        _add_counters(total, own)
        workers = [{"worker": self.index, "stats": own}]
        for row, resp in await self._peers({"op": "stats", "scope": "local"}):
            entry = {"worker": row["worker"]}
            if resp.get("ok"):
                entry["stats"] = resp["stats"]
                _add_counters(total, resp["stats"])
            else:
                entry["error"] = resp.get("error", "worker stats failed")
            workers.append(entry)
        stats = dict(own, **total)
        stats["worker"] = self.index
        stats["workers"] = sorted(workers, key=lambda entry: entry["worker"])
        stats["fleet"] = self.health()["fleet"]
        return {"ok": True, "stats": stats}

    async def _op_metrics(self, obj: dict) -> dict:
        local = await super()._op_metrics(obj)
        if obj.get("scope") == "local":
            return local
        payloads = [local["metrics"]]
        for _row, resp in await self._peers({"op": "metrics", "scope": "local"}):
            if resp.get("ok"):
                payloads.append(resp.get("metrics") or {})
        scraped = len(payloads)
        # Supervision metrics come from the table once, not per worker.
        payloads.append(fleet_registry(self.slots.rows()).to_json())
        merged = merge_metrics_json(payloads)
        return {
            "ok": True,
            "metrics": merged,
            "prometheus": prometheus_from_json(merged),
            "workers_scraped": scraped,
        }

    async def _op_info(self, obj: dict) -> dict:
        info = self.registry.describe()
        info["worker"] = self.index
        info["workers"] = self.slots.rows()
        return {"ok": True, "info": info}

    def health(self) -> dict:
        """The fleet's readiness from the slot table (no round trips),
        with the answering worker's own readiness as ``worker_status``."""
        own = super().health()
        rows = self.slots.rows()
        return dict(
            own,
            status="draining" if self._draining else _fleet_status(rows),
            worker=self.index,
            worker_status=own["status"],
            workers=rows,
            fleet={
                "worker_restarts": {
                    str(row["worker"]): row["restarts"] for row in rows
                },
                "workers_down": sum(row["gave_up"] for row in rows),
            },
        )


def _fleet_worker_main(
    conn,
    index: int,
    slots: SlotTable,
    family,
    directory: Optional[Path],
    names: Sequence[str],
    public: Tuple[str, int],
    server_kwargs: dict,
) -> None:
    """Worker process entry: serve the full registry until SIGTERM.

    Module-level and spawn-safe.  Reports ``{"ok": True, "port": p}``
    (its private port, or the startup failure) through ``conn``, then
    serves until SIGTERM/SIGINT, at which point it drains gracefully —
    stops accepting, flushes coalescing buckets, answers in-flight
    requests — and exits.
    """
    from ..obs.trace import reset_tracing

    reset_tracing()  # bind to the trace context the supervisor exported
    # Chaos site: a worker that dies during boot exercises the
    # supervisor's restart budget (every respawn is a fresh process, so
    # a persistent spec kills every attempt until the budget runs out).
    maybe_crash("fleet.worker.boot")

    async def main() -> None:
        try:
            registry = ServingRegistry(family, directory, names=names)
            server = await FleetWorker(
                registry, slots, index, public, **server_kwargs
            ).start()
        except BaseException as e:
            conn.send({"ok": False, "error": f"{type(e).__name__}: {e}"})
            conn.close()
            raise
        # Drain on SIGTERM from here on: a stop that follows the report
        # at once must still find the handler in place.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        # The registry is loaded and will live for the process: freeze
        # it out of the collector before taking traffic.
        tune_gc_for_serving()
        conn.send({"ok": True, "port": server.port})
        conn.close()
        await stop.wait()
        await server.aclose()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------
class _Worker:
    """Supervisor-side state of one worker slot."""

    def __init__(self, index: int):
        self.index = index
        self.process = None
        #: The worker's private loopback port.
        self.port: Optional[int] = None
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


class FleetSupervisor:
    """Holds the shared port, spawns and supervises the workers.

    Evaluates nothing and accepts no connections: the workers do both.
    """

    def __init__(
        self,
        family: FamilyLike,
        directory: Optional[Path] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        n_workers: int = 2,
        names: Optional[Sequence[str]] = None,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_pending: int = DEFAULT_MAX_PENDING,
        request_deadline: float = DEFAULT_REQUEST_DEADLINE,
        config: Optional[FleetConfig] = None,
    ):
        if n_workers < 1:
            raise ValueError(f"a fleet needs at least one worker, not {n_workers}")
        self.family = resolve_family(family)
        self.directory = directory
        self.host = host
        self.requested_port = port
        self.config = config or FleetConfig()
        if names is None:
            from ..mp.oracle import FUNCTION_NAMES

            names = FUNCTION_NAMES
        self.names: Tuple[str, ...] = tuple(names)
        self._ctx = get_context(start_method())
        self.slots = SlotTable(self._ctx, n_workers)
        self.workers: List[_Worker] = [_Worker(i) for i in range(n_workers)]
        self._server_kwargs = {
            "max_batch": max_batch,
            "max_pending": max_pending,
            "request_deadline": request_deadline,
            "peer_timeout": self.config.probe_timeout,
        }
        self._socket: Optional[socket.socket] = None
        self._draining = False
        self._supervisor_task: Optional[asyncio.Task] = None
        self._respawn_tasks: Set[asyncio.Task] = set()

    @property
    def port(self) -> int:
        """The shared public port (after :meth:`start`)."""
        assert self._socket is not None, "fleet not started"
        return self._socket.getsockname()[1]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _bind_public(self) -> socket.socket:
        """Bind (never listen on) the public address with SO_REUSEPORT."""
        family, kind, proto, _, addr = socket.getaddrinfo(
            self.host or None, self.requested_port,
            type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE,
        )[0]
        sock = socket.socket(family, kind, proto)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind(addr)
        except BaseException:
            sock.close()
            raise
        return sock

    async def start(self) -> "FleetSupervisor":
        """Bind the shared port, spawn every worker, start supervising."""
        self._socket = self._bind_public()
        try:
            for w in self.workers:
                await self._spawn_worker(w)
                self._publish(w, "ok")
        except BaseException:
            await self._shutdown_workers()
            self._socket.close()
            raise
        self._supervisor_task = asyncio.ensure_future(self._supervise())
        return self

    async def aclose(self) -> None:
        """Stop supervising, then SIGTERM-drain every worker."""
        self._draining = True
        tasks = list(self._respawn_tasks)
        if self._supervisor_task is not None:
            tasks.append(self._supervisor_task)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._supervisor_task = None
        self._respawn_tasks.clear()
        for w in self.workers:
            self._publish(w, "draining")
        await self._shutdown_workers()
        if self._socket is not None:
            self._socket.close()

    async def _spawn_worker(self, w: _Worker) -> None:
        """Start (or replace) ``w``'s process and wait for its port."""
        from ..obs.trace import propagate_to_children

        loop = asyncio.get_running_loop()
        if w.alive:
            # A wedged (alive but unresponsive) worker is replaced, not
            # reasoned with: SIGTERM, bounded join, SIGKILL.
            await loop.run_in_executor(
                None, _terminate_and_join, [w.process], self.config.stop_timeout
            )
        host, port = self._socket.getsockname()[:2]
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        with propagate_to_children():
            w.process = self._ctx.Process(
                target=_fleet_worker_main,
                args=(
                    child_conn,
                    w.index,
                    self.slots,
                    self.family,
                    self.directory,
                    self.names,
                    (host, port),
                    self._server_kwargs,
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

    async def _shutdown_workers(self) -> None:
        procs = [w.process for w in self.workers if w.process is not None]
        if procs:
            # SIGTERM → each worker drains gracefully; escalate only if stuck.
            await asyncio.get_running_loop().run_in_executor(
                None, _terminate_and_join, procs, self.config.stop_timeout
            )

    def _publish(self, w: _Worker, status: str) -> None:
        """Write one slot's supervision state into the shared table."""
        self.slots.write(
            w.index,
            pid=w.process.pid if w.process is not None else 0,
            port=w.port or 0,
            status=status,
            restarts=w.restarts,
            restart_attempts=w.restart_attempts,
            gave_up=w.gave_up,
        )

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    async def _ping(self, w: _Worker) -> None:
        resp = await _request_private(
            w.port, {"op": "ping"}, self.config.probe_timeout
        )
        if not resp.get("pong"):
            raise ConnectionError(f"worker {w.index} answered {resp!r}")

    async def _supervise(self) -> None:
        """The supervisor loop: pid checks + private-port probes."""
        while not self._draining:
            await asyncio.sleep(self.config.probe_interval)
            if self._draining:
                return
            await asyncio.gather(
                *(self._probe_worker(w) for w in self.workers),
                return_exceptions=True,
            )

    async def _probe_worker(self, w: _Worker) -> None:
        """One supervision tick for one worker slot."""
        if w.gave_up or w.respawning:
            return
        if not w.alive:
            self._start_respawn(w)
            return
        try:
            await self._ping(w)
        except (ConnectionError, OSError, ValueError, asyncio.TimeoutError):
            w.probe_failures += 1
            if w.probe_failures >= WEDGED_AFTER_PROBES:
                # Process alive but not answering: wedged.  Replace it
                # through the same respawn path a dead worker takes.
                self._start_respawn(w)
        else:
            w.probe_failures = 0

    def _start_respawn(self, w: _Worker) -> None:
        """Hand the slot to a background respawn task (idempotent)."""
        if w.respawning or w.gave_up or self._draining:
            return
        w.respawning = True
        self._publish(w, "respawning")
        task = asyncio.ensure_future(self._respawn(w))
        self._respawn_tasks.add(task)
        task.add_done_callback(self._respawn_tasks.discard)

    async def _respawn(self, w: _Worker) -> None:
        """Respawn one worker: jittered backoff under a restart budget."""
        cfg = self.config
        try:
            while not self._draining:
                if w.restart_attempts >= cfg.restart_budget:
                    w.gave_up = True
                    self._publish(w, "down")
                    return
                delay = min(
                    cfg.restart_backoff_max,
                    cfg.restart_backoff * (2 ** w.restart_attempts),
                )
                # Jitter (0.5x–1.5x): a whole fleet respawning after a
                # correlated failure must not dogpile the host.
                await asyncio.sleep(delay * (0.5 + random.random()))
                w.restart_attempts += 1
                self._publish(w, "respawning")
                try:
                    await self._spawn_worker(w)
                    await self._ping(w)
                except (
                    RuntimeError, OSError, ConnectionError, ValueError,
                    asyncio.TimeoutError,
                ):
                    continue
                w.probe_failures = 0
                w.restart_attempts = 0
                w.restarts += 1
                self._publish(w, "ok")
                return
        finally:
            w.respawning = False


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


def _terminate_and_join(procs, stop_timeout: float) -> None:
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
    """A :class:`FleetSupervisor` (plus its workers) on a daemon thread."""

    def __init__(
        self,
        family: FamilyLike,
        directory: Optional[Path] = None,
        **fleet_kwargs,
    ):
        super().__init__(None)
        self.family = family
        self.directory = directory
        self.fleet_kwargs = fleet_kwargs

    def _make_server(self) -> FleetSupervisor:
        return FleetSupervisor(self.family, self.directory, **self.fleet_kwargs)
