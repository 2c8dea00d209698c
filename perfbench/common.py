"""Paths, scratch space and small helpers shared by the workloads."""

from __future__ import annotations

import contextlib
import os
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import numpy as np

from stats import Tally

#: The checkout root: the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ARTIFACTS = SRC / "repro" / "libm" / "artifacts"
#: All scratch files live here, inside the checkout; removed per run.
SCRATCH = ROOT / ".perfbench_tmp"


@dataclass
class WorkloadResult:
    """What one pass of a workload hands back to ``run.py``.

    ``metrics`` holds the end-to-end values by BENCHMARK.json name.
    ``layers`` holds per-layer values the workload measures itself
    (server counters, tier shares, set-up sub-phases) rather than
    through spans.  ``context`` is the host/config record printed with
    the result.
    """

    metrics: Dict[str, float]
    tally: Tally
    layers: Dict[str, float] = field(default_factory=dict)
    context: Dict[str, object] = field(default_factory=dict)


@contextlib.contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    """A fresh directory under :data:`SCRATCH`, removed on exit."""
    SCRATCH.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=SCRATCH))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def copy_artifacts(family: str, dest: Path) -> List[str]:
    """Copy the committed ``<family>_*.json`` artifacts into ``dest``;
    returns the function names copied."""
    names = []
    for path in sorted(ARTIFACTS.glob(f"{family}_*.json")):
        shutil.copy2(path, dest / path.name)
        names.append(path.stem[len(family) + 1:])
    return names


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it has waited for
    (pool workers, the server), whichever is larger, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def cpu_seconds() -> float:
    """CPU time of this process (all threads) plus every child it has
    reaped.  Time the host gives to other tenants (steal) is not in it,
    unlike in wall time."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def process_cpu_seconds(pid: int) -> float:
    """CPU time so far of another live process, summed over its threads
    (from ``/proc/<pid>/task/*/schedstat``, nanosecond resolution)."""
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            continue  # the thread exited meanwhile
    return total / 1e9


def member_values(fmt) -> np.ndarray:
    """Every finite value of ``fmt`` as a double, in encoding order."""
    from repro.libm.vround import decode_bits_to_doubles

    enc = np.arange(1 << fmt.total_bits, dtype=np.int64)
    xs = decode_bits_to_doubles(enc, fmt)
    return xs[np.isfinite(xs)]


def histogram_delta(after: dict, before: Optional[dict]) -> List[tuple]:
    """``(upper_bound, count)`` buckets observed between two ``stats``
    histogram snapshots (bounds as floats, the overflow bucket as inf)."""
    prev = {} if before is None else {
        str(b["le"]): b["count"] for b in before["buckets"]
    }
    return [
        (float(b["le"]), b["count"] - prev.get(str(b["le"]), 0))
        for b in after["buckets"]
    ]


def histogram_quantile(buckets: List[tuple], q: float) -> float:
    """The ``q`` quantile of bucketed counts, interpolated linearly inside
    the bucket that holds it (0 when the histogram is empty)."""
    total = sum(c for _, c in buckets)
    if total == 0:
        return 0.0
    rank = q * total
    seen = 0
    lower = 0.0
    for upper, count in buckets:
        if count and seen + count >= rank:
            if upper == float("inf"):
                return lower
            return lower + (upper - lower) * (rank - seen) / count
        seen += count
        lower = upper
    return lower


def repro_env() -> Dict[str, str]:
    """The environment for child processes: the checkout's ``src`` on the
    path, scratch as TMPDIR, and no ``REPRO_*`` knobs from outside."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    SCRATCH.mkdir(exist_ok=True)
    env["TMPDIR"] = str(SCRATCH)
    return env
