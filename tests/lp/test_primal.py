"""``model._primal`` on rows cleared once, against the reference that
clears every row's rationals on each call (:func:`tests.lp.reference.primal`).

The exact rows must state the same constraints (equal after dividing
each row by the gcd of its integers) and the scaled doubles must be
bit-identical, on random rows and on every sample the Clarkson solver
hands the LP while generating the tiny functions of the benchmark.
Those samples also check the Farkas path: every sample it calls
infeasible is infeasible for the exact simplex and the reference one.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import clarkson, generate_function
from repro.fp.doubles import to_double_nearest
from repro.funcs import TINY_CONFIG, make_pipeline
from repro.lp import LPStatus, model

from ..helpers import exact_row
from .reference import primal, solve_lp
from .test_model import margin_lps

F = Fraction


def normalized(G, h):
    out = []
    for g, b in zip(G, h):
        d = math.gcd(*g, b) or 1
        out.append(([v // d for v in g], b // d))
    return out


def assert_same(rows, ncols, cap=F(1)):
    G, h, Gf, hf = model._primal(rows, ncols, cap)
    rG, rh, rGf, rhf = primal(rows, ncols, cap)
    assert normalized(G, h) == normalized(rG, rh)
    assert np.array_equal(Gf, np.array(rGf, dtype=float))
    assert np.array_equal(hf, np.array(rhf, dtype=float))


@settings(max_examples=150, deadline=None)
@given(margin_lps())
def test_random_rows(lp):
    rows, k = lp
    assert_same(rows, k)


def test_entries_beyond_double_range():
    t = F(1, 2**1100)
    rows = [
        exact_row((t, t * F(i, 2**100)), t * (i - F(1, 4)), t * (i + 1))
        for i in range(1, 5)
    ]
    assert_same(rows, 2)
    big = F(2**1100)
    rows = [exact_row((big, F(3, 7)), -big, big), exact_row((F(1), F(0)), F(0), None)]
    assert_same(rows, 2, F(1, 3))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-(2**60), max_value=2**60, max_denominator=2**80),
        min_size=1,
        max_size=6,
    )
)
def test_approx_is_nearest_double(vals):
    row = exact_row(vals, None, None)
    assert row.approx == tuple(to_double_nearest(v) for v in vals)


#: The tiny functions of the benchmark's generation workload.
GEN_TINY = ("ln", "log10", "exp", "exp2", "cosh", "sinpi", "cospi")


@pytest.fixture(scope="module")
def gen_tiny_samples(oracle):
    """Every (rows, ncols) sample the Clarkson solver passed to the LP
    while generating the benchmark's tiny functions."""
    samples = []
    real = clarkson.solve_margin_lp

    def record(rows, ncols, *args, **kwargs):
        samples.append((list(rows), ncols))
        return real(rows, ncols, *args, **kwargs)

    with mock.patch.object(clarkson, "solve_margin_lp", record):
        for fn in GEN_TINY:
            generate_function(make_pipeline(fn, TINY_CONFIG, oracle))
    return samples


def test_gen_tiny_samples(gen_tiny_samples):
    assert len(gen_tiny_samples) > 100
    for rows, ncols in gen_tiny_samples:
        assert_same(rows, ncols)


#: Samples of at most this many rows also go through the reference
#: simplex (the 54-row ones take seconds each there).
REFERENCE_ROWS = 24


def reference_infeasible(rows, ncols):
    """Whether the reference ``G z <= h`` has no solution, by the
    reference Fraction simplex over ``z = u - v``, ``u, v >= 0``."""
    G, h, _, _ = primal(rows, ncols, F(1))
    A = [[F(v) for v in g] + [F(-v) for v in g] for g in G]
    res = solve_lp([F(0)] * (2 * len(G[0])), A, [F(v) for v in h])
    return res.status is LPStatus.INFEASIBLE


def test_gen_tiny_infeasible_samples(gen_tiny_samples):
    certified = referenced = 0
    for rows, ncols in gen_tiny_samples:
        paths = []
        sol = model.solve_margin_lp(rows, ncols, paths=paths)
        if paths != [model.INFEASIBLE]:
            continue
        certified += 1
        assert sol is None
        assert model._solve_exact(rows, ncols, F(1), 200_000) is None
        if len(rows) <= REFERENCE_ROWS:
            referenced += 1
            assert reference_infeasible(rows, ncols)
    assert certified >= 40
    assert referenced >= 20
