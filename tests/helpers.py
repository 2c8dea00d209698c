"""Expectations that depend on the host the tests run on."""

from repro.libm.compiled import find_compiler

#: The tier the default registry answers member inputs with when no
#: table is present: the compiled C kernel where gcc is on ``PATH``, the
#: numpy vector tier where it is not.
POLY_TIER = "compiled" if find_compiler() else "vector"


def exact_row(coeffs, lo, hi):
    """A :class:`~repro.lp.model.ConstraintRow` from rationals: every
    side over the least common denominator."""
    from fractions import Fraction
    from math import lcm

    from repro.lp.model import ConstraintRow

    vals = [Fraction(v) for v in coeffs]
    bounds = [None if v is None else Fraction(v) for v in (lo, hi)]
    den = lcm(*(v.denominator for v in vals + [b for b in bounds if b is not None]))
    lo, hi = (None if b is None else b.numerator * (den // b.denominator) for b in bounds)
    return ConstraintRow(
        tuple(v.numerator * (den // v.denominator) for v in vals), lo, hi, den
    )


def reduced(x, level, lo, hi, mults=(1,), tags=()):
    """A :class:`~repro.core.constraints.ReducedConstraint` from a double
    (or a rational that is one) and rational bounds over their least
    common denominator."""
    from fractions import Fraction
    from math import lcm

    from repro.core.constraints import ReducedConstraint

    bounds = [None if v is None else Fraction(v) for v in (lo, hi)]
    den = lcm(*(b.denominator for b in bounds if b is not None))
    lo, hi = (None if b is None else b.numerator * (den // b.denominator) for b in bounds)
    return ReducedConstraint(
        float(x), level, lo, hi, den, tuple(float(m) for m in mults), tags
    )


def exact_bounds(c):
    """A constraint's ``(lo, hi)`` as rationals (None = unbounded)."""
    from fractions import Fraction

    return tuple(None if v is None else Fraction(v, c.den) for v in (c.lo, c.hi))


def run_capped(args, timeout=60, cap=1 << 30):
    """``python *args`` in a subprocess with this checkout's ``src`` on
    its path and its address space capped at ``cap`` bytes, so a runaway
    enumeration fails instead of exhausting the host."""
    import os
    import resource
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        timeout=timeout, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
