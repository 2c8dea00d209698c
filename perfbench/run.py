"""The repository benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload gen-tiny --seed 1 --seconds 10 --trace 0

Workloads (see each module's docstring and ``perfbench/README.md``):

* ``gen-tiny`` — generate and verify seven tiny-family functions;
* ``eval-mini`` — in-process batch evaluation through the vector tier;
* ``serve-mini-table`` — a table-backed ``repro serve`` over binary.v1.

With ``--trace 0`` the result carries the end-to-end metrics named in
``BENCHMARK.json``.  With ``--trace 1`` the workload runs twice in this
process, untraced and then traced, and the result carries the per-layer
metrics: self time and counters per layer from the traced pass, and the
tracing overhead as the traced-minus-untraced difference of every
end-to-end metric.  A line with the host and configuration context is
printed before the result, which is always the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    "gen-tiny": "gen_tiny",
    "eval-mini": "eval_mini",
    "serve-mini-table": "serve_mini_table",
}


def _load_program():
    """Put the checkout's ``src`` first on the path and import it; the
    benchmark must never measure some other installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def _declared():
    path = ROOT / "BENCHMARK.json"
    spec = json.loads(path.read_text())
    return spec["end_to_end"], spec["per_layer"]


def _layer_metrics(untraced, traced, rec_summary, rec_counts, end_to_end):
    """Every per-layer value this run can report, by name."""
    out = dict(untraced.layers)
    out.update(rec_summary)
    out.update(rec_counts)
    iterations = rec_counts.get("core.clarkson.iterations", 0)
    out["core.clarkson.lucky_share"] = (
        rec_counts.get("core.clarkson.lucky", 0) / iterations
        if iterations else 0.0
    )
    for m in end_to_end:
        name = m["name"]
        out[f"overhead.{name}"] = traced.metrics[name] - untraced.metrics[name]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    end_to_end, per_layer = _declared()
    _load_program()
    # Children and library temp files stay inside the checkout.
    from common import repro_env
    from stats import Tally

    env = repro_env()
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["TMPDIR"] = env["TMPDIR"]
    tempfile.tempdir = env["TMPDIR"]

    import importlib

    import numpy as np

    workload = importlib.import_module(WORKLOADS[args.workload])
    untraced = workload.run(args.seed, args.seconds)
    result = untraced
    if args.trace:
        import layers
        from tracing import Recorder

        with Recorder() as rec:
            rec.install(layers.patches())
            traced = workload.run(args.seed, args.seconds)
        values = _layer_metrics(
            untraced, traced, rec.summary(), rec.counts, end_to_end
        )
        declared = per_layer
        result = traced
        tallies = (untraced.tally, traced.tally)
    else:
        values = untraced.metrics
        declared = end_to_end
        tallies = (untraced.tally,)

    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in declared
    }
    missing = [m["name"] for m in end_to_end if m["name"] not in
               untraced.metrics]
    total = Tally()
    for t in tallies:
        total.attempted += t.attempted
        total.failed += t.failed
        for k, v in t.reasons.items():
            total.reasons[k] = total.reasons.get(k, 0) + v
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        **result.context,
        "failed_share": total.share,
        "failures": total.reasons,
    }
    print(json.dumps({"context": context}, sort_keys=True))
    if missing:
        print(f"perfbench: workload did not report {missing}",
              file=sys.stderr)
    print(json.dumps({
        "correct": total.failed == 0 and total.attempted > 0
        and not missing,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
