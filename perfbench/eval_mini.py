"""``eval-mini``: a library consumer calling the runtime in-process.

``api.make_evaluator("mini")`` over a scratch directory that holds only
the committed mini artifacts (no ``.tbl`` tables, so the default tier
dispatch sends member inputs to the vector tier: numpy kernel plus
vectorized rounding).  Keys are the 10 functions x 3 levels x 5
rounding modes; each key gets a seeded pool of member inputs.

* bulk phase: batch 4096, whole cycles over the keys in a seeded order;
  ``throughput_per_cpu_s`` is inputs per second of evaluator call time;
* small phase: batch 16; ``latency_ms`` is the per-slice p50 of call
  time, averaged over the slices.

Call time is the calling thread's CPU time: the evaluator runs in this
thread without waiting on anything, so that is its wall time minus the
time the shared host gave the CPU to other tenants.  Each phase of a
slice is scaled to the reference host speed by the
``hostspeed.PROBE`` probes run between its calls (after every bulk
cycle and every 64 small calls); the unscaled figures are in the
result's context.

The phases alternate in one-second slices so that each samples the
whole run: on a shared host the CPU speed shifts by 10-20% for seconds
at a time, and a p50 over a mix of two such regimes jumps between them
where a mean of per-slice p50s moves smoothly.  The overall p50 and p99
with their sample count are in the result's context.

Calls are timed one by one, so the correctness bookkeeping between
calls stays outside the timed regions.  Every bulk call on a key must
return the same bits as the first; every small call must match the
bulk answer for the same inputs; and a seeded sample of each key's
inputs is bit-compared with ``Oracle.correctly_rounded``, a reference
independent of the vector path.
"""

from __future__ import annotations

import time
from fractions import Fraction
from statistics import median

import numpy as np

from common import (
    WorkloadResult,
    copy_artifacts,
    member_values,
    peak_rss_mb,
    scratch_dir,
)
from hostspeed import PROBE
from stats import Tally, percentile

FAMILY = "mini"
BULK_BATCH = 4096
SMALL_BATCH = 16
ORACLE_SAMPLE = 16
SETUP_REPEATS = 9
#: Each slice spends this share of ``SLICE_S`` on bulk calls, the rest on
#: small ones.
SLICE_S = 1.0
BULK_SHARE = 0.5
#: Small calls between two host-speed probes (about 20 ms of calls).
SMALL_PROBE_EVERY = 64


def _keys(config, names):
    from repro.fp.rounding import IEEE_MODES

    return [
        (fn, level, mode)
        for fn in names
        for level in range(config.levels)
        for mode in IEEE_MODES
    ]


def _setup_once(directory, keys, warm_inputs):
    from repro import api

    c0 = time.thread_time()
    evaluator = api.make_evaluator(FAMILY, directory)
    for fn, level, mode in keys:
        evaluator.evaluate(fn, warm_inputs[level], level=level, mode=mode)
    return time.thread_time() - c0, evaluator


def _expected(fn, x, fmt, mode, oracle):
    """The correctly rounded bit pattern, with the IEEE results the
    oracle leaves to the caller (logs of zero and negatives)."""
    from repro.fp.encode import FPValue

    if fn in ("ln", "log2", "log10"):
        if x < 0:
            return FPValue.nan(fmt)
        if x == 0:
            return FPValue.infinity(fmt, sign=1)
    return oracle.correctly_rounded(fn, Fraction(x), fmt, mode)


def _same_bits(got: int, want, fmt) -> bool:
    """Bit equality, any NaN matching any NaN and +0 matching -0 (the
    same rule ``repro verify`` applies)."""
    from repro.fp.encode import FPValue

    if got == want.bits:
        return True
    if want.is_nan and FPValue(fmt, got).is_nan:
        return True
    mask = ~fmt.sign_mask
    return (got & mask) == 0 and (want.bits & mask) == 0


def run(seed: int, seconds: float) -> WorkloadResult:
    from repro.funcs import FAMILY_CONFIGS
    from repro.mp.oracle import Oracle
    from repro.serve.frames import TIER_NAMES

    config = FAMILY_CONFIGS[FAMILY]
    rng = np.random.default_rng(seed)
    members = [member_values(fmt) for fmt in config.formats]
    tally = Tally()
    with scratch_dir("eval-") as directory:
        names = copy_artifacts(FAMILY, directory)
        keys = _keys(config, names)
        pools = [
            rng.choice(members[level], size=BULK_BATCH)
            for _, level, _ in keys
        ]
        warm = [rng.choice(m, size=SMALL_BATCH) for m in members]
        setups, raw_setups = [], []
        for _ in range(SETUP_REPEATS):
            before = PROBE()
            t, evaluator = _setup_once(directory, keys, warm)
            raw_setups.append(t)
            setups.append(t / PROBE.slowdown([before, PROBE()]))

        order = rng.permutation(len(keys))
        tier_counts = np.zeros(len(TIER_NAMES), dtype=np.int64)
        first_bits = [None] * len(keys)
        calls = np.zeros(len(keys), dtype=np.int64)
        # Calls per key that disagree with the key's first answer.
        mismatched = np.zeros(len(keys), dtype=np.int64)

        def call(k, xs):
            """One timed evaluator call; the bookkeeping is not timed."""
            fn, level, mode = keys[k]
            t = time.thread_time()
            res = evaluator.evaluate(fn, xs, level=level, mode=mode)
            elapsed = time.thread_time() - t
            tier_counts[:] += np.bincount(
                res.tier_codes, minlength=len(TIER_NAMES)
            )
            calls[k] += 1
            return elapsed, res.bits_array

        # Bulk and small slices alternate, so both phases sample the
        # whole run rather than one half of it each.
        bulk_inputs = 0
        bulk_busy = 0.0
        slice_rates, raw_rates = [], []
        slice_p50s, raw_p50s = [], []
        latencies = []
        step = 0
        t_run = time.perf_counter()
        while not slice_p50s or time.perf_counter() - t_run < seconds:
            t_slice = time.perf_counter()
            inputs0, busy0 = bulk_inputs, bulk_busy
            probes = [PROBE()]
            while time.perf_counter() - t_slice < SLICE_S * BULK_SHARE:
                for k in order:  # whole cycles over every key
                    elapsed, bits = call(k, pools[k])
                    bulk_busy += elapsed
                    bulk_inputs += BULK_BATCH
                    if first_bits[k] is None:
                        first_bits[k] = bits
                    elif not np.array_equal(bits, first_bits[k]):
                        mismatched[k] += 1
                probes.append(PROBE())
            raw_rates.append((bulk_inputs - inputs0) / (bulk_busy - busy0))
            slice_rates.append(raw_rates[-1] * PROBE.slowdown(probes))
            in_slice = []
            probes = [PROBE()]
            t_slice = time.perf_counter()
            while time.perf_counter() - t_slice < SLICE_S * (1 - BULK_SHARE):
                k = order[step % len(order)]
                off = (step // len(order)) * SMALL_BATCH % BULK_BATCH
                step += 1
                elapsed, bits = call(k, pools[k][off:off + SMALL_BATCH])
                in_slice.append(elapsed)
                if not np.array_equal(
                    bits, first_bits[k][off:off + SMALL_BATCH]
                ):
                    mismatched[k] += 1
                if step % SMALL_PROBE_EVERY == 0:
                    probes.append(PROBE())
            raw_p50s.append(percentile(in_slice, 50)["value"])
            slice_p50s.append(raw_p50s[-1] / PROBE.slowdown(probes))
            latencies.extend(in_slice)

        # Correctness gate, outside every timed region: a key whose first
        # answer fails the oracle sample has every call on it wrong.
        oracle = Oracle()
        bad_keys = set()
        for k, (fn, level, mode) in enumerate(keys):
            fmt = config.formats[level]
            for i in rng.choice(BULK_BATCH, size=ORACLE_SAMPLE, replace=False):
                want = _expected(fn, float(pools[k][i]), fmt, mode, oracle)
                if not _same_bits(int(first_bits[k][i]), want, fmt):
                    bad_keys.add(k)
                    break
        tally.ok(int(calls.sum()))
        for k in bad_keys:
            mismatched[k] = calls[k]
        wrong = int(mismatched.sum())
        if wrong:
            tally.demote("wrong result", wrong)
        tiers_in_order = evaluator.tiers.names()

    p50 = percentile(latencies, 50)
    p99 = percentile(latencies, 99)
    total = int(tier_counts.sum())
    layers = {
        f"tier.{name}.share": int(tier_counts[code]) / total
        for code, name in enumerate(TIER_NAMES)
    }
    return WorkloadResult(
        metrics={
            "throughput_per_cpu_s": sum(slice_rates) / len(slice_rates),
            "latency_ms": 1000.0 * sum(slice_p50s) / len(slice_p50s),
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss_mb(),
        },
        tally=tally,
        layers=layers,
        context={
            "family": FAMILY,
            "keys": len(keys),
            "tiers": list(tiers_in_order),
            "bulk_batch": BULK_BATCH,
            "bulk_inputs": bulk_inputs,
            "small_batch": SMALL_BATCH,
            "slices": len(slice_p50s),
            "throughput_unit": "inputs per CPU-second of evaluator "
                               f"calls at batch {BULK_BATCH}, at the "
                               "reference host speed",
            "latency_stat": f"mean over {len(slice_p50s)} slices of the "
                            f"per-slice p50 of batch-{SMALL_BATCH} calls, "
                            "at the reference host speed",
            "small_p50_ms": 1000.0 * p50["value"],
            "small_p99_ms": 1000.0 * p99["value"],
            "small_calls": p50["n"],
            "slice_rates": slice_rates,
            "slice_p50s_ms": [1000.0 * v for v in slice_p50s],
            "unscaled": {
                "throughput_per_cpu_s": bulk_inputs / bulk_busy,
                "latency_ms": 1000.0 * sum(raw_p50s) / len(raw_p50s),
                "setup_s": median(raw_setups),
            },
            "oracle_checks": len(keys) * ORACLE_SAMPLE,
        },
    )
