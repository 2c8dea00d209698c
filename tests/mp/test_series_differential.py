"""The raw-integer series kernels against the FI-object kernels they
replaced (:mod:`tests.mp.reference`): the same ``(lo, hi, prec)``
enclosure, and the same domain errors, at precisions 64-1024 for point
intervals, wide intervals, both signs and intervals straddling zero."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mp import series
from repro.mp.fixed import FI

from . import reference

#: Kernel name -> its domain bound on |x|.
DOMAINS = {
    "exp": 3 / 4,
    "atanh": 1 / 3,
    "sin": 1.7,
    "cos": 1.7,
    "sinh": 1.0,
    "cosh": 1.0,
    "atan": 1 / 4,
}


def outcome(kernel, x):
    try:
        got = kernel(x)
    except ValueError as e:
        return ("ValueError", str(e))
    return (got.lo, got.hi, got.prec)


@st.composite
def enclosures(draw, bound):
    """An FI around the kernel's domain: a point, a narrow or a wide
    interval, of either sign or straddling zero, sometimes just outside
    the domain."""
    prec = draw(st.integers(64, 1024))
    edge = (int(bound * 1.05 * (1 << 20)) << prec) >> 20
    a = draw(st.integers(-edge, edge))
    shape = draw(st.sampled_from(["point", "narrow", "wide", "straddle"]))
    if shape == "point":
        b = a
    elif shape == "narrow":
        b = a + draw(st.integers(1, 1 << 20))
    elif shape == "wide":
        b = draw(st.integers(-edge, edge))
    else:
        a, b = -abs(a), draw(st.integers(0, edge))
    return FI(min(a, b), max(a, b), prec)


@pytest.mark.parametrize("name", sorted(DOMAINS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_same_enclosure_as_fi_kernel(name, data):
    x = data.draw(enclosures(DOMAINS[name]))
    raw = getattr(series, f"{name}_series")
    ref = getattr(reference, f"{name}_series")
    assert outcome(raw, x) == outcome(ref, x)


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_domain_errors_kept(name):
    p = 64
    over = FI.from_int(2, p)
    with pytest.raises(ValueError, match=f"{name}_series domain"):
        getattr(series, f"{name}_series")(over)
    with pytest.raises(ValueError, match=f"{name}_series domain"):
        getattr(series, f"{name}_series")(-over)
