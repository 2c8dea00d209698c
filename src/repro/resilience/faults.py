"""Deterministic fault injection driven by the ``REPRO_FAULTS`` env var.

The harness is intentionally tiny: named *sites* in production code ask
``maybe_fire("worker.crash")`` (or the ``maybe_sleep`` / ``maybe_crash``
/ ``maybe_raise`` conveniences) and get ``False`` with near-zero cost
unless the environment opts that site in.  Because activation rides on
an environment variable, pool worker processes — fork- or spawn-started
— inherit the same spec, so chaos tests exercise the real multi-process
recovery paths.

Spec format (sites separated by ``;``, options by ``,``)::

    REPRO_FAULTS="worker.crash:p=0.5,seed=42,times=3;cache.corrupt:times=1"

Options per site:

``p``      probability a call to the site fires (default 1.0);
``seed``   seed of the site's private RNG — fixed seed means a fixed,
           reproducible fire/skip sequence (default 0);
``times``  maximum number of fires at this site *per process*
           (default unlimited);
``after``  number of initial calls that never fire (default 0);
``delay``  seconds the ``maybe_sleep`` helper sleeps when firing
           (default 0.05).

Fault sites wired through the codebase:

======================  ===============================================
``worker.crash``        pool worker hard-exits (``os._exit``) mid-task
                        (a sweep chunk or a whole function)
``chunk.slow``          pool worker stalls before computing a chunk
``cache.corrupt``       oracle cache file is scribbled over before open
``cache.flush``         sqlite error injected into a cache flush
``search.crash``        generation run dies right after journaling a
                        piece
``journal.torn-write``  generation journal append writes half a frame
                        and dies (torn-tail repair drill)
``socket.drop``         server aborts the client transport mid-request
``oracle.slow``         serving oracle tier stalls per batch
``oracle.error``        serving oracle tier raises (drives the breaker)
``fleet.worker.boot``   fleet worker hard-exits during startup, before
                        it reports a port — every supervised respawn is
                        a fresh process, so a persistent spec drains
                        the supervisor's restart budget (the give-up
                        path)
======================  ===============================================

Counters are per-process: a respawned pool worker starts fresh, which is
exactly what a chaos test wants (the recovery path, not the fault, must
converge).
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

#: Environment variable holding the fault spec.
ENV_VAR = "REPRO_FAULTS"

#: Exit code used by ``maybe_crash`` so tests/parents can tell an
#: injected crash from a genuine one.
FAULT_EXIT_CODE = 87


class InjectedFault(RuntimeError):
    """Raised by ``maybe_raise`` when an injected fault fires."""


@dataclass
class FaultSpec:
    """Configuration of one fault site."""

    site: str
    p: float = 1.0
    seed: int = 0
    times: Optional[int] = None
    after: int = 0
    delay: float = 0.05

    # runtime state (per process)
    calls: int = 0
    fires: int = 0
    _rng: random.Random = field(default=None, repr=False)  # type: ignore

    def should_fire(self) -> bool:
        """Decide (and record) whether this call fires."""
        if self._rng is None:
            self._rng = random.Random(self.seed)
        self.calls += 1
        draw = self._rng.random()  # always draw: keeps sequences aligned
        if self.calls <= self.after:
            return False
        if self.times is not None and self.fires >= self.times:
            return False
        if draw >= self.p:
            return False
        self.fires += 1
        return True


def parse_fault_spec(text: str) -> Dict[str, FaultSpec]:
    """Parse a ``REPRO_FAULTS`` string into per-site specs.

    Raises ``ValueError`` on malformed specs: a chaos run with a typo'd
    spec silently injecting nothing would be worse than failing fast.
    """
    specs: Dict[str, FaultSpec] = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        site, _, opts = part.partition(":")
        site = site.strip()
        if not site:
            raise ValueError(f"empty fault site in {text!r}")
        spec = FaultSpec(site)
        for opt in opts.split(","):
            opt = opt.strip()
            if not opt:
                continue
            key, sep, val = opt.partition("=")
            if not sep:
                raise ValueError(f"malformed fault option {opt!r} for {site}")
            key = key.strip()
            try:
                if key == "p":
                    spec.p = float(val)
                elif key == "seed":
                    spec.seed = int(val)
                elif key == "times":
                    spec.times = int(val)
                elif key == "after":
                    spec.after = int(val)
                elif key == "delay":
                    spec.delay = float(val)
                else:
                    raise ValueError(
                        f"unknown fault option {key!r} for site {site!r}"
                    )
            except ValueError as e:
                raise ValueError(
                    f"bad fault option {opt!r} for site {site!r}: {e}"
                ) from None
        specs[site] = spec
    return specs


class FaultInjector:
    """Per-process injector holding live per-site state."""

    def __init__(self, specs: Dict[str, FaultSpec]):
        self.specs = specs

    def should_fire(self, site: str) -> bool:
        spec = self.specs.get(site)
        return spec is not None and spec.should_fire()

    def spec(self, site: str) -> Optional[FaultSpec]:
        return self.specs.get(site)


#: (env string, injector) cache so repeated hot-path lookups are cheap
#: while still tracking env changes (tests monkeypatch ``REPRO_FAULTS``).
_ACTIVE: Optional[tuple] = None


def active_injector() -> Optional[FaultInjector]:
    """The process-wide injector, or None when ``REPRO_FAULTS`` is unset."""
    global _ACTIVE
    text = os.environ.get(ENV_VAR)
    if not text:
        _ACTIVE = None
        return None
    if _ACTIVE is not None and _ACTIVE[0] == text:
        return _ACTIVE[1]
    _ACTIVE = (text, FaultInjector(parse_fault_spec(text)))
    return _ACTIVE[1]


def reset_injector() -> None:
    """Drop cached injector state (fresh counters on next use)."""
    global _ACTIVE
    _ACTIVE = None


def maybe_fire(site: str) -> bool:
    """True when the site is configured and fires on this call."""
    injector = active_injector()
    return injector is not None and injector.should_fire(site)


def maybe_sleep(site: str) -> None:
    """Stall for the site's configured ``delay`` when it fires."""
    injector = active_injector()
    if injector is not None and injector.should_fire(site):
        time.sleep(injector.spec(site).delay)


def maybe_crash(site: str) -> None:
    """Hard-exit the process (no cleanup) when the site fires.

    ``os._exit`` skips atexit/finally handlers on purpose: it simulates
    a SIGKILL'd or OOM-killed worker, the failure mode pool recovery
    must survive.
    """
    if maybe_fire(site):
        os._exit(FAULT_EXIT_CODE)


def maybe_raise(site: str) -> None:
    """Raise :class:`InjectedFault` when the site fires."""
    if maybe_fire(site):
        raise InjectedFault(f"injected fault at {site!r}")


def corrupt_file(path: str, garbage: bytes = b"\xde\xad\xbe\xef" * 64) -> None:
    """Scribble over the head of a file (creates it if missing).

    Overwriting the first bytes clobbers the sqlite header, which is the
    cheapest realistic stand-in for torn writes / bad sectors.
    """
    with open(path, "r+b" if os.path.exists(path) else "wb") as f:
        f.seek(0)
        f.write(garbage)
