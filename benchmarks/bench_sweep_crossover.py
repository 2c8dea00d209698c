"""Where sharding one function's constraint sweep starts to pay.

Times the sharded sweep (``parallel.pool.shard_outcomes``, 2 workers)
against the serial one (``core.collect_constraints`` at ``jobs=1``) on
``inputs_per_level`` slices of the mini levels, every run on a cold
in-memory oracle.  Each slice takes an evenly strided share of every
level's inputs, in proportion to the level's size.  CPU time counts the
pool workers (reaped children) too.  The two sides alternate run by
run.  ``parallel.pool.MIN_INPUTS_PER_WORKER`` is set from this table:
the smallest input count at which 2 workers win on wall time, halved.

    PYTHONPATH=src python benchmarks/bench_sweep_crossover.py \\
        --functions exp2 log2 --sizes 1024 2048 4096 8192 16384 --repeats 3
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from statistics import median

_HERE = Path(__file__).resolve().parent
if __package__ in (None, ""):  # script mode: fix up sys.path ourselves
    sys.path.insert(0, str(_HERE.parent / "src"))

from repro.core import collect_constraints  # noqa: E402
from repro.fp.enumerate import all_finite  # noqa: E402
from repro.funcs import MINI_CONFIG, make_pipeline  # noqa: E402
from repro.mp import Oracle  # noqa: E402
from repro.parallel.pool import shard_outcomes  # noqa: E402


def mini_slice(n: int) -> list:
    """About ``n`` inputs over the mini levels, strided through each."""
    levels = [list(all_finite(fmt)) for fmt in MINI_CONFIG.formats]
    total = sum(map(len, levels))
    out = []
    for inputs in levels:
        want = max(1, round(n * len(inputs) / total))
        out.append(inputs[:: max(1, len(inputs) // want)][:want])
    return out


def _cpu() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def timed_sweep(fn: str, inputs, jobs: int):
    """(wall s, CPU s) of one cold sweep, serial at ``jobs=1``."""
    pipe = make_pipeline(fn, MINI_CONFIG, Oracle())
    c0, t0 = _cpu(), time.perf_counter()
    if jobs == 1:
        collect_constraints(pipe, inputs, jobs=1)
    else:
        shard_outcomes(pipe, inputs, jobs=jobs)
    return time.perf_counter() - t0, _cpu() - c0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--functions", nargs="+", default=["exp2", "log2"])
    ap.add_argument("--sizes", nargs="+", type=int,
                    default=[1024, 2048, 4096, 8192, 16384])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--json", action="store_true", help="one JSON line per row")
    args = ap.parse_args(argv)
    if not args.json:
        print(f"{'fn':<6} {'inputs':>7} {'serial wall':>12} {'sharded wall':>13}"
              f" {'serial CPU':>11} {'sharded CPU':>12}")
    for fn in args.functions:
        for n in args.sizes:
            inputs = mini_slice(n)
            runs = {1: [], args.jobs: []}
            for r in range(args.repeats):
                order = (1, args.jobs) if r % 2 == 0 else (args.jobs, 1)
                for jobs in order:
                    runs[jobs].append(timed_sweep(fn, inputs, jobs))
            row = {
                "fn": fn,
                "inputs": sum(map(len, inputs)),
                "jobs": args.jobs,
                "serial_wall_s": median(w for w, _ in runs[1]),
                "sharded_wall_s": median(w for w, _ in runs[args.jobs]),
                "serial_cpu_s": median(c for _, c in runs[1]),
                "sharded_cpu_s": median(c for _, c in runs[args.jobs]),
            }
            if args.json:
                print(json.dumps(row), flush=True)
            else:
                print(f"{fn:<6} {row['inputs']:>7} {row['serial_wall_s']:>12.3f}"
                      f" {row['sharded_wall_s']:>13.3f} {row['serial_cpu_s']:>11.3f}"
                      f" {row['sharded_cpu_s']:>12.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
