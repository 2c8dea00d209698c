"""Run ``repro serve`` with host-speed probes taken inside the server.

    python3 perfbench/serve_host.py PROBE_LOG serve --family mini ...

The arguments after ``PROBE_LOG`` go to the ``repro`` command line
unchanged.  Before the server starts, a ``SIGPROF`` handler is installed
that takes one :data:`hostspeed.PROBE` every 0.1 CPU-second of the
server process and appends ``<monotonic time> <probe s> <cost s>`` to
``PROBE_LOG``, one line per probe.  The handler runs on the server's
main thread between two bytecodes, so each probe measures the core the
server runs on at that moment; the client matches probes to its phases
by ``time.monotonic()``, which all processes of the host share, and
subtracts their CPU cost from the server's CPU time.
"""

from __future__ import annotations

import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
INTERVAL_S = 0.1


def main() -> int:
    log_path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(HERE))
    from hostspeed import PROBE

    with open(log_path, "a", buffering=1) as log:

        def handler(signum, frame):
            t = time.thread_time()
            probe = PROBE(repeats=1)
            cost = time.thread_time() - t
            log.write(f"{time.monotonic()!r} {probe!r} {cost!r}\n")

        signal.signal(signal.SIGPROF, handler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            from repro.cli import main as repro_main

            return repro_main(argv)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)


if __name__ == "__main__":
    sys.exit(main())
