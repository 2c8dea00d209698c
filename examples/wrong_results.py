#!/usr/bin/env python3
"""Why correctly rounded libraries matter: concrete wrong results.

Builds the paper's comparison libraries for the tiny family and hunts for
inputs where they disagree with the oracle while the generated
progressive polynomial is correct:

* the glibc-like near-minimax library misses correct rounding on some
  inputs (it only targets ~1 ulp);
* the CR-LIBM-like library is *provably correct for a wider format*, yet
  re-rounding its results to a narrower format exhibits genuine double
  rounding errors — the exact failure the paper's Table 2 reports.
"""

from repro import IEEE_MODES, Oracle, TINY_CONFIG
from repro import generate_function, make_pipeline
from repro.fp import all_finite
from repro.libm.baselines import (
    CrlibmStyleLibrary,
    GeneratedLibrary,
    build_minimax_library,
    wide_family_for,
    wide_inputs_for,
)

FN = "exp2"


def build_libraries(oracle):
    pipe = make_pipeline(FN, TINY_CONFIG, oracle)
    prog = GeneratedLibrary(
        {FN: pipe}, {FN: generate_function(pipe)}, label="rlibm-prog"
    )
    glibc = build_minimax_library(TINY_CONFIG, [FN], 0, "glibc-like", oracle)

    wide_family = wide_family_for(TINY_CONFIG)
    wpipe = make_pipeline(FN, wide_family, oracle)
    wgen = generate_function(
        wpipe,
        inputs_per_level=wide_inputs_for(
            [list(all_finite(f)) for f in TINY_CONFIG.formats], wide_family
        ),
    )
    crlibm = CrlibmStyleLibrary(
        GeneratedLibrary({FN: wpipe}, {FN: wgen}, label="wide"),
        wide_family.largest,
    )
    return prog, glibc, crlibm


def main() -> None:
    oracle = Oracle()
    prog, glibc, crlibm = build_libraries(oracle)
    fmt = TINY_CONFIG.largest
    level = TINY_CONFIG.levels - 1

    shown = {"glibc-like": 0, "crlibm-like": 0}
    counts = {"rlibm-prog": 0, "glibc-like": 0, "crlibm-like": 0}
    total = 0
    for v in all_finite(fmt):
        want = oracle.correctly_rounded_all(FN, v.value, fmt, IEEE_MODES)
        for mode in IEEE_MODES:
            total += 1
            for lib in (prog, glibc, crlibm):
                got = lib.rounded(FN, v, mode, level)
                ok = got.bits == want[mode].bits or (
                    got.bits & ~fmt.sign_mask == 0
                    and want[mode].bits & ~fmt.sign_mask == 0
                )
                if ok:
                    continue
                counts[lib.label] += 1
                if lib.label in shown and shown[lib.label] < 3:
                    shown[lib.label] += 1
                    print(
                        f"{lib.label:>12}: {FN}({v.to_float()}) [{mode.value}] "
                        f"returned {got!r}, correct is {want[mode]!r}"
                    )

    print(f"\nwrong results out of {total} (input, mode) pairs on "
          f"{fmt.display_name}:")
    for label, n in counts.items():
        print(f"  {label:>12}: {n}")
    assert counts["rlibm-prog"] == 0
    assert counts["glibc-like"] > 0
    assert counts["crlibm-like"] > 0


if __name__ == "__main__":
    main()
