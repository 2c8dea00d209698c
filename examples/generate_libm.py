#!/usr/bin/env python3
"""Regenerate the RLIBM-Prog artifacts: progressive polynomials for all
ten elementary functions of a format family.

Usage:
    python examples/generate_libm.py                     # mini family
    python examples/generate_libm.py --family tiny
    python examples/generate_libm.py --family paper      # bf16/tf32/f32*
    python examples/generate_libm.py --functions exp2 log2

The mini and tiny families are generated from *every* input of every
member format.  For the paper family, bfloat16 (2^16 patterns) and
tensorfloat32 (2^19) are exhaustive while float32 uses a stratified
sample covering every binade (the documented 2^32 substitution).
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from repro.fp import sample_finite, stratified_sample
from repro.fp.enumerate import EXHAUSTIVE_LIMIT
from repro.funcs import MINI_CONFIG, PAPER_CONFIG, TINY_CONFIG, make_pipeline
from repro.libm.artifacts import save_generated
from repro.mp import FUNCTION_NAMES, Oracle
from repro.core import generate_function

FAMILIES = {"tiny": TINY_CONFIG, "mini": MINI_CONFIG, "paper": PAPER_CONFIG}

def inputs_for(config, seed: int = 0):
    """Per-level input lists; None means 'enumerate everything'."""
    if all(f.num_bit_patterns <= EXHAUSTIVE_LIMIT for f in config.formats):
        return None
    inputs = []
    for fmt in config.formats:
        if fmt.num_bit_patterns <= EXHAUSTIVE_LIMIT:
            inputs.append(None)
        else:
            rng = random.Random(seed)
            strat = stratified_sample(fmt, per_binade=512, rng=rng)
            extra = sample_finite(fmt, 1 << 17, rng=rng)
            inputs.append(strat + extra)
    if any(i is not None for i in inputs):
        from repro.fp import all_finite

        inputs = [
            list(all_finite(fmt)) if chosen is None else chosen
            for fmt, chosen in zip(config.formats, inputs)
        ]
        return inputs
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--family", choices=sorted(FAMILIES), default="mini")
    ap.add_argument("--functions", nargs="*", default=list(FUNCTION_NAMES))
    ap.add_argument("--max-terms", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default=None)
    ap.add_argument(
        "--baseline",
        choices=["prog", "all", "wide"],
        default="prog",
        help="prog: progressive polynomials; all: the RLibm-All piecewise "
        "baseline (saved as <family>all); wide: the CR-LIBM-like library "
        "correctly rounded at an 8-bit-wider format (saved as <family>wide)",
    )
    args = ap.parse_args(argv)

    config = FAMILIES[args.family]
    oracle = Oracle()
    if args.baseline == "wide":
        from repro.libm.baselines import wide_family_for, wide_inputs_for

        wide = wide_family_for(config)
        inputs = wide_inputs_for(config, wide)
        gen_config = wide
    else:
        inputs = inputs_for(config, args.seed)
        gen_config = config
    failures = []
    for name in args.functions:
        t0 = time.perf_counter()
        pipe = make_pipeline(name, gen_config, oracle)
        try:
            if args.baseline == "all":
                from repro.core import collect_constraints
                from repro.core.rlibm_all import generate_rlibm_all

                cons, _ = collect_constraints(pipe, inputs)
                gen = generate_rlibm_all(pipe, cons, seed=args.seed)
                gen.family_name = f"{config.name}all"
            else:
                gen = generate_function(
                    pipe,
                    inputs_per_level=inputs,
                    max_terms=args.max_terms,
                    seed=args.seed,
                    progress=lambda m: print(f"    {m}", flush=True),
                )
        except Exception as exc:  # pragma: no cover - CLI surface
            print(f"{name}: generation FAILED: {exc}", flush=True)
            failures.append(name)
            continue
        path = save_generated(gen, args.out_dir)
        dt = time.perf_counter() - t0
        print(
            f"{name}: {dt:6.1f}s  pieces={gen.num_pieces} "
            f"terms={gen.term_counts()} specials={len(gen.specials)} "
            f"bytes={gen.storage_bytes} -> {path}",
            flush=True,
        )
    if failures:
        print(f"FAILED: {failures}")
        return 1
    print("all functions generated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
