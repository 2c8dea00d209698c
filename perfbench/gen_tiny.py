"""``gen-tiny``: time to a verified library.

A library author generates the tiny family's ``ln, log10, exp, exp2,
cosh, sinpi, cospi`` with ``api.generate(jobs=2)`` from a cold in-memory
oracle, writing artifacts and checkpoint sidecars to a scratch
directory, and checks each artifact with ``api.verify`` on every level
and all five rounding modes right after it is generated.  The
verification is also the correctness gate: a function counts as failed
if its generation raises or any check is wrong.

End-to-end metrics:

* ``throughput_per_cpu_s`` — functions generated per CPU-second of the
  benchmark process and its ``--jobs`` pool workers;
* ``latency_ms`` — mean CPU time of one ``api.verify`` call (one
  function, all levels and modes).  A mean, since seven samples per
  pass cannot support a percentile.

CPU time rather than wall time, because on the shared 2-vCPU host the
wall time of this identical work ranged 12.5-21 s as the host's steal
time moved between about 5% and 33%.  Each timed call is scaled to the
reference host speed by ``hostspeed.PROBE`` probes taken on either
side of it and every 0.1 CPU-second during it (``hostspeed.Sampler``);
the probes' own CPU time is not counted.  Wall times and unscaled
CPU figures are in the context.

A run makes as many whole passes as fit in ``--seconds``, at least one.

The workload has no random input, so ``--seed`` changes nothing here:
every run does the identical work, in the order listed.  The
generator's own RNG seed stays at the library default 0, because over
generator seeds 0-4 the list took 12.5-17.9 s (some seeds need more
Clarkson iterations or an extra sub-domain split), a spread that would
swamp the effect of a code change.  The order is fixed too: the
functions share one oracle, whose memo grows through the pass, and a
seeded shuffle of the order moved the pass's CPU time by up to 10%.
"""

from __future__ import annotations

import time
from statistics import median
from typing import Any, Callable, Tuple

from common import WorkloadResult, cpu_seconds, peak_rss_mb, scratch_dir
from hostspeed import PROBE, Sampler
from stats import Tally

FUNCTIONS = ("ln", "log10", "exp", "exp2", "cosh", "sinpi", "cospi")
FAMILY = "tiny"
GEN_SEED = 0
JOBS = 2
SETUP_REPEATS = 3


def _setup_once() -> Tuple[float, float]:
    """Pipeline construction for the whole list: the work ``generate``
    does before its search starts.  Returns its CPU time, unscaled and
    scaled by the probes on either side."""
    from repro.funcs import FAMILY_CONFIGS, make_pipeline
    from repro.mp.oracle import Oracle

    before = PROBE()
    c0 = cpu_seconds()
    oracle = Oracle()
    for fn in FUNCTIONS:
        make_pipeline(fn, FAMILY_CONFIGS[FAMILY], oracle)
    raw = cpu_seconds() - c0
    return raw, raw / PROBE.slowdown([before, PROBE()])


def _timed(sampler: Sampler, call: Callable[[], Any]):
    """Run ``call()``; returns its result, wall seconds, CPU seconds and
    CPU seconds at the reference host speed, probe time excluded."""
    before = PROBE()
    with sampler.window() as win:
        t, c = time.perf_counter(), cpu_seconds()
        result = call()
        cpu = cpu_seconds() - c - win.cost_s
        wall = time.perf_counter() - t - win.cost_s
    scaled = cpu / PROBE.slowdown([before, *win.probes, PROBE()])
    return result, wall, cpu, scaled


def _one_pass(tally: Tally, layers: dict, setups: list) -> dict:
    """Generate each function, then verify it before the next one, so
    that generation and verification both sample the whole pass; the
    set-up is repeated between functions for the same reason."""
    from repro import api
    from repro.mp.oracle import Oracle

    oracle = Oracle()
    sampler = Sampler(PROBE)
    totals = dict.fromkeys(
        ("gen_s", "gen_cpu_s", "gen_scaled_s", "functions", "verify_s",
         "verify_cpu_s", "verify_scaled_s", "verified", "checks"), 0
    )
    reported_oracle_s = 0.0
    with scratch_dir("gen-") as out:
        for fn in FUNCTIONS:
            try:
                res, wall, cpu, scaled = _timed(sampler, lambda: api.generate(
                    fn, FAMILY, seed=GEN_SEED, jobs=JOBS, oracle=oracle,
                    out_dir=out,
                ))
            except Exception as e:  # one failed op; the run goes on
                tally.fail(f"generate {fn}: {type(e).__name__}: {e}")
                continue
            totals["gen_s"] += wall
            totals["gen_cpu_s"] += cpu
            totals["gen_scaled_s"] += scaled
            totals["functions"] += 1
            reported_oracle_s += res.generated.stats.phase_seconds.get(
                "oracle", 0.0
            )
            try:
                reports, wall, cpu, scaled = _timed(sampler, lambda: (
                    api.verify(fn, FAMILY, directory=out, oracle=oracle)
                ))
            except Exception as e:
                tally.fail(f"verify {fn}: {type(e).__name__}: {e}")
                continue
            totals["verify_s"] += wall
            totals["verify_cpu_s"] += cpu
            totals["verify_scaled_s"] += scaled
            totals["verified"] += 1
            setups.extend(_setup_once() for _ in range(SETUP_REPEATS))
            totals["checks"] += sum(r.total_checks for r in reports)
            wrong = sum(r.wrong for r in reports)
            if wrong:
                tally.fail(f"verify {fn}: {wrong} wrong results")
            else:
                tally.ok()
    layers["mp.oracle.reported_s"] = reported_oracle_s
    return totals


def run(seed: int, seconds: float) -> WorkloadResult:
    setups = [_setup_once() for _ in range(SETUP_REPEATS)]
    tally = Tally()
    layers: dict = {}
    passes = []
    t0 = time.perf_counter()
    # Whole passes only: another one starts if it should end in time.
    while not passes or (
        time.perf_counter() - t0 + (time.perf_counter() - t0) / len(passes)
        <= seconds
    ):
        passes.append(_one_pass(tally, layers, setups))

    def total(key):
        return sum(p[key] for p in passes)

    generated, verified = total("functions"), total("verified")
    return WorkloadResult(
        metrics={
            "throughput_per_cpu_s": generated / total("gen_scaled_s"),
            "latency_ms": 1000.0 * total("verify_scaled_s") / verified,
            "setup_s": median([scaled for _, scaled in setups]),
            "peak_rss_mb": peak_rss_mb(),
        },
        tally=tally,
        layers=layers,
        context={
            "family": FAMILY,
            "functions": list(FUNCTIONS),
            "generator_seed": GEN_SEED,
            "jobs": JOBS,
            "passes": len(passes),
            "gen_wall_s": [p["gen_s"] for p in passes],
            "gen_cpu_s": [p["gen_cpu_s"] for p in passes],
            "verify_wall_s": [p["verify_s"] for p in passes],
            "verify_cpu_s": [p["verify_cpu_s"] for p in passes],
            "verify_checks": passes[-1]["checks"],
            "throughput_unit": "functions generated per CPU-second of "
                               "this process and its pool workers, at the "
                               "reference host speed",
            "latency_stat": "mean CPU time of one api.verify call (one "
                            "function, every level and mode) at the "
                            f"reference host speed, over {verified} calls",
            "unscaled": {
                "throughput_per_cpu_s": generated / total("gen_cpu_s"),
                "latency_ms": 1000.0 * total("verify_cpu_s") / verified,
                "setup_s": median([raw for raw, _ in setups]),
            },
        },
    )
