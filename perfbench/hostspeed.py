"""A host-speed probe that scales CPU times to a reference host speed.

The benchmark host is a shared VM.  CPU time already leaves out steal
(time the host gives the CPU to other tenants), but not the slowdown of
the CPU itself while neighbours load the hardware it shares.  Here that
slowdown came and went over seconds to minutes and reached 50% for
interpreter-bound code: a fixed pure-Python kernel took 0.92 ms and,
six minutes later, 1.46 ms.

So the workloads whose timed work runs in the benchmark process run
:data:`PROBE` between their timed calls, never inside them, and divide
each timed CPU figure by the :meth:`Probe.slowdown` the probes around
it measured; :class:`Sampler` adds probes during calls that run for
seconds.  The probe mixes the two kinds of work the program does,
interpreter-bound exact arithmetic and numpy array passes, because
either alone tracked the other kind less well.  Over a minute of
repeats on one host, the CPU time of single ``api.generate`` and
``api.verify`` calls varied by 14-19% (coefficient of variation) and by
4.5-6% after scaling (10.6% for ``ln``, whose calls last 0.4 s).  Over
100 s of evaluator calls, 25-call windows of batch-16 calls varied by
5.2% and 2.7% after scaling, batch-4096 calls by 4.8% and 2.5%.

The probe runs no program code and creates no reference cycles, and it
runs with the cyclic collector off, so the size of the program's heap
cannot change its time: a change to the program moves the measured
figure and leaves the probe alone.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import time
from fractions import Fraction
from statistics import median
from typing import Callable, Iterator, List, Sequence

import numpy as np



def _fraction_kernel() -> None:
    """Interpreter-bound work: exact ``Fraction`` sums whose
    denominators grow into big integers, and dict bookkeeping."""
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, i + 7)
    table: dict = {}
    for i in range(3000):
        table[i % 977] = table.get(i % 977, 0) + i * i


_ARGS = np.random.default_rng(0).random(4096) + 0.5
_COEFFS = np.random.default_rng(1).random(8)


def _array_kernel() -> None:
    """The vector tier's kind of work on one batch of 4096 doubles:
    range reduction, a Horner polynomial, rounding and a finiteness
    check."""
    for _ in range(8):
        m, e = np.frexp(_ARGS)
        p = _COEFFS[0]
        for c in _COEFFS[1:]:
            p = p * m + c
        r = np.ldexp(np.rint(p * 256.0), e - 8)
        np.isfinite(r).all()


def _mixed_kernel() -> None:
    """Both kinds of work, in one probe."""
    _fraction_kernel()
    _array_kernel()


class Probe:
    """A fixed kernel timed in CPU seconds of the calling thread.

    ``reference_s`` is a round figure near the kernel's median time on
    the host the benchmark was tuned on (2-vCPU Xeon VM, Python 3.11,
    numpy 2.4); a figure divided by :meth:`slowdown` reads as if measured
    at that speed.
    """

    REPEATS = 3

    def __init__(self, kernel: Callable[[], None], reference_s: float):
        self.kernel = kernel
        self.reference_s = reference_s

    def __call__(self, repeats: int = REPEATS) -> float:
        """One probe: the median time of ``repeats`` kernel runs."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(repeats):
                t = time.thread_time()
                self.kernel()
                times.append(time.thread_time() - t)
        finally:
            if enabled:
                gc.enable()
        return median(times)

    def slowdown(self, probes: Sequence[float]) -> float:
        """How many times slower than the reference the probes ran."""
        return median(probes) / self.reference_s


PROBE = Probe(_mixed_kernel, 0.0015)


class Window:
    """The probes taken while one timed call ran, and their CPU cost."""

    def __init__(self) -> None:
        self.probes: List[float] = []
        self.cost_s = 0.0


class Sampler:
    """Probes taken *during* long calls, from a ``SIGPROF`` handler.

    A call that runs for seconds outlives the host's slowdowns, so probes
    on either side of it do not tell how fast the host ran meanwhile.
    Inside :meth:`window`, the process's CPU-time interval timer fires
    every ``interval_s`` CPU-seconds and the handler, which Python runs
    on the main thread between two bytecodes of the program, takes one
    single-run probe.  The window records the probe times and their own
    CPU cost, which the caller subtracts from the call's CPU time.
    Forked children do not inherit the timer.
    """

    def __init__(self, probe: Probe, interval_s: float = 0.1):
        self.probe = probe
        self.interval_s = interval_s

    @contextlib.contextmanager
    def window(self) -> Iterator[Window]:
        win = Window()

        def handler(signum, frame):
            t = time.thread_time()
            win.probes.append(self.probe(repeats=1))
            win.cost_s += time.thread_time() - t

        previous = signal.signal(signal.SIGPROF, handler)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        try:
            yield win
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, previous)
