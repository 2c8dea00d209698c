"""Run-to-run spread of the end-to-end metrics, checked against bounds.

    python3 perfbench/spread.py --workload eval-mini --seeds 0 1 2 3 4

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints
for every end-to-end metric the median and the distance between the
first and third quartile as a share of the median, next to a third of
the metric's bound from ``BENCHMARK.json`` (the target a steady metric
stays under).  Exits 1 when a run fails or is incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    ap.add_argument("--seconds", type=float, default=None)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    for workload in args.workload:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            ok &= result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(workload, seed, result["correct"], json.dumps(
                {k: round(v["value"], 6) for k, v in result["metrics"].items()}
            ), flush=True)
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            print(f"{workload:>17} {m['name']:>17} median {med:.6g} "
                  f"spread {spread:.3f} (bound/3 {m['bound'] / 3:.3f})"
                  f"{'' if spread < m['bound'] / 3 else '  WIDE'}",
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
