"""A small circuit breaker for shedding over-budget fallback work.

The serving tier degrades missing-artifact functions to the mpmath Ziv
oracle, which is orders of magnitude slower than the vector/scalar
tiers.  When that fallback keeps failing, the breaker trips and sheds
oracle-tier requests with a fast structured error instead of queuing
more doomed slow work.

States follow the classic three-state machine:

``closed``
    Normal operation.  Failures increment a consecutive-failure counter;
    hitting ``failure_threshold`` trips the breaker open.
``open``
    ``allow()`` is False — callers shed the work immediately.  After
    ``recovery_time`` seconds the next ``allow()`` admits one probe.
``half_open``
    One probe in flight: success closes the breaker, failure re-opens
    it (and restarts the recovery clock).
"""

from __future__ import annotations

import threading
import time
from typing import Callable

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure circuit breaker."""

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_time: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.failure_threshold = max(1, int(failure_threshold))
        self.recovery_time = float(recovery_time)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = STATE_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probing = False
        # lifetime counters (reported by health/stats)
        self.successes = 0
        self.failures = 0
        self.shed = 0
        self.trips = 0

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            return self._effective_state()

    def _effective_state(self) -> str:
        if self._state == STATE_OPEN and (
            self._clock() - self._opened_at >= self.recovery_time
        ):
            return STATE_HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """May the protected call proceed?  (Counts sheds when not.)"""
        with self._lock:
            state = self._effective_state()
            if state == STATE_CLOSED:
                return True
            if state == STATE_HALF_OPEN and not self._probing:
                self._probing = True
                return True
            self.shed += 1
            return False

    def record_success(self) -> None:
        """A protected call succeeded."""
        with self._lock:
            self.successes += 1
            self._consecutive_failures = 0
            self._state = STATE_CLOSED
            self._probing = False

    def record_failure(self) -> None:
        """A protected call failed."""
        with self._lock:
            self.failures += 1
            self._consecutive_failures += 1
            self._probing = False
            if (
                self._state != STATE_CLOSED
                or self._consecutive_failures >= self.failure_threshold
            ):
                if self._state == STATE_CLOSED:
                    self.trips += 1
                self._state = STATE_OPEN
                self._opened_at = self._clock()

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-friendly state for the ``health``/``stats`` ops."""
        with self._lock:
            return {
                "state": self._effective_state(),
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "recovery_time_s": self.recovery_time,
                "successes": self.successes,
                "failures": self.failures,
                "shed": self.shed,
                "trips": self.trips,
            }
