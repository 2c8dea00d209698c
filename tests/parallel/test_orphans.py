"""Pool workers die with their parent: a SIGKILLed ``repro generate``
leaves no worker running in its process group, whatever the start
method (under forkserver the workers are the fork server's children)."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="workers watch their parent through a Linux pidfd",
)


def live_members(pgid):
    """Pids of process group ``pgid`` that are not zombies."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # "pid (comm) state ppid pgrp ...", where comm may hold spaces.
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            pids.append(int(entry))
    return pids


@pytest.mark.parametrize("method", ["fork", "forkserver"])
def test_killed_family_run_leaves_no_worker(tmp_path, method):
    # Three functions at --jobs 2 run one function per pool worker.
    # SIGKILL the parent as soon as the first journal exists; its
    # workers (and under forkserver the fork server and its resource
    # tracker) must be gone within 5 s.
    env = dict(
        os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]),
        REPRO_MP_START=method,
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "generate", "--family", "tiny",
         "--functions", "log2", "exp2", "cosh", "--jobs", "2",
         "--out-dir", str(tmp_path)],
        env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob("*.journal")):
            assert proc.poll() is None, "the run ended before any journal"
            assert time.monotonic() < deadline, "no journal appeared"
            time.sleep(0.005)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        deadline = time.monotonic() + 5
        while live_members(proc.pid):
            assert time.monotonic() < deadline, (
                f"workers outlived their parent: {live_members(proc.pid)}"
            )
            time.sleep(0.05)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
