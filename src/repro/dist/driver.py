"""Process-level plumbing for distributed generation.

:class:`CoordinatorThread` runs a :class:`~repro.dist.coordinator.DistCoordinator`
on a daemon thread (the same harness the serving stack uses);
:func:`spawn_worker` forks a :class:`~repro.dist.worker.DistWorker`
process; :func:`run_distributed` wires the whole thing — coordinator,
``N`` elastic workers, completion wait, teardown — behind one call, which
is what ``api.generate(distributed=...)`` and the CLI use.

Workers are separate *processes*, not threads: a worker lost to an
injected crash (or a real one) must not take the coordinator with it,
and the chaos drill SIGKILLs workers outright.  The worker entry point
is module-level so it survives both ``fork`` and ``spawn`` start
methods.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from pathlib import Path
from typing import Dict, List, Optional

from ..core import GenerationError
from ..obs.trace import propagate_to_children
from ..serve.server import ServerThread
from .coordinator import DistCoordinator
from .units import GenerateSpec
from .worker import DistWorker

logger = logging.getLogger("repro.dist")


class CoordinatorThread(ServerThread):
    """A generation coordinator on a daemon thread."""

    def __init__(self, spec: GenerateSpec, out_dir: Path, **server_kwargs):
        super().__init__(None, **server_kwargs)
        self.spec = spec
        self.out_dir = Path(out_dir)

    def _make_server(self) -> DistCoordinator:
        return DistCoordinator(self.spec, self.out_dir, **self.server_kwargs)

    @property
    def coordinator(self) -> DistCoordinator:
        assert self.server is not None
        return self.server  # type: ignore[return-value]

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every function is done or failed."""
        return self.coordinator.run_complete.wait(timeout)


def _worker_main(
    host: str,
    port: int,
    worker_id: str,
    env: Optional[Dict[str, str]] = None,
) -> None:
    """Module-level worker entry (spawn-safe)."""
    if env:
        os.environ.update(env)
    logging.basicConfig(
        level=logging.INFO,
        format=f"%(asctime)s {worker_id} %(levelname)s %(message)s",
    )
    worker = DistWorker(host, port, worker_id=worker_id)
    worker.run()


def spawn_worker(
    host: str,
    port: int,
    worker_id: str,
    *,
    env: Optional[Dict[str, str]] = None,
) -> multiprocessing.Process:
    """Fork one worker process aimed at a coordinator.

    ``env`` lets a chaos harness inject per-worker fault specs
    (``{"REPRO_FAULTS": "dist.worker.crash:times=1"}``) without touching
    the parent's environment.
    """
    with propagate_to_children():
        inherited = dict(env or {})
        process = multiprocessing.Process(
            target=_worker_main,
            args=(host, port, worker_id, inherited),
            name=worker_id,
            daemon=True,
        )
        process.start()
    return process


def run_distributed(
    spec: GenerateSpec,
    out_dir: Path,
    *,
    workers: int = 2,
    host: str = "127.0.0.1",
    port: int = 0,
    lease_ttl: Optional[float] = None,
    max_attempts: Optional[int] = None,
    incremental: bool = True,
    timeout: Optional[float] = None,
    worker_env: Optional[Dict[str, str]] = None,
) -> Dict[str, Path]:
    """Generate a spec with an in-process coordinator and a worker fleet.

    Returns ``{fn: artifact path}`` for every function; raises
    :class:`~repro.core.GenerationError` when any function failed
    (unsatisfiable within its budgets, or its units kept poisoning
    workers).  The coordinator's journal lives in ``out_dir`` and makes
    the run crash-safe; re-running an identical spec splices unchanged
    artifacts instead of recomputing them.
    """
    if workers < 1:
        raise ValueError(f"need at least one worker, not {workers}")
    from ..obs import span as obs_span

    thread = CoordinatorThread(
        spec, out_dir, host=host, port=port,
        lease_ttl=lease_ttl, max_attempts=max_attempts,
        incremental=incremental,
    )
    procs: List[multiprocessing.Process] = []
    with obs_span(
        "dist.run", family=spec.family, functions=len(spec.functions),
        workers=workers,
    ):
        thread.start()
        coordinator = thread.coordinator
        try:
            if not coordinator.run_complete.is_set():
                for i in range(workers):
                    procs.append(
                        spawn_worker(
                            host, thread.port, f"worker-{i}", env=worker_env
                        )
                    )
            # Supervise: a dead worker (crash, OOM, injected fault) is
            # replaced up to a bounded respawn budget — the run survives
            # worker loss without a human in the loop.
            deadline = (
                time.monotonic() + timeout if timeout is not None else None
            )
            respawns_left = 3 * workers
            next_id = workers
            while not thread.wait(0.5):
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(
                        f"distributed run did not finish in {timeout}s "
                        f"({coordinator.status()['units']})"
                    )
                for idx, process in enumerate(procs):
                    if process.is_alive() or respawns_left <= 0:
                        continue
                    logger.warning(
                        "worker %s died (exit %s); respawning",
                        process.name, process.exitcode,
                    )
                    respawns_left -= 1
                    procs[idx] = spawn_worker(
                        host, thread.port, f"worker-{next_id}",
                        env=worker_env,
                    )
                    next_id += 1
        finally:
            deadline = time.monotonic() + 10.0
            for process in procs:
                process.join(max(0.1, deadline - time.monotonic()))
            for process in procs:
                if process.is_alive():
                    process.terminate()
                    process.join(5.0)
            status = coordinator.status()
            thread.stop()
        failed = coordinator.failed_functions()
    if failed:
        # Each reason names its function; an exhausted search reads
        # exactly as the single-host search's error does.
        raise GenerationError("; ".join(why for _, why in sorted(failed.items())))
    out = {}
    for fn, info in status["functions"].items():
        assert info["artifact"] is not None
        out[fn] = Path(out_dir) / info["artifact"]
    return out
