"""Margin LP model: fitting polynomials through interval constraints."""

import itertools
import math
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import api
from repro.lp import ConstraintRow, check_rows, model, solve_margin_lp
from repro.mp import Oracle
from repro.obs import get_registry

from ..helpers import exact_row
from .reference import solve_square

F = Fraction


def poly_row(x: Fraction, k: int, lo, hi) -> ConstraintRow:
    return exact_row(tuple(x**j for j in range(k)), lo, hi)


class TestSolveMarginLP:
    def test_interpolation_line(self):
        # Fit C0 + C1 x through [1,1] at x=0 and [3,3] at x=1.
        rows = [
            poly_row(F(0), 2, F(1), F(1)),
            poly_row(F(1), 2, F(3), F(3)),
        ]
        sol = solve_margin_lp(rows, 2)
        assert sol is not None
        assert sol.coefficients == [F(1), F(2)]
        # Singleton intervals have zero slab width, so they do not bound
        # delta at all; the margin rides to the cap.
        assert sol.margin == 1

    def test_margin_is_maximized(self):
        # One slab constraint: value in [0, 2] at x=0 -> C0 = 1 centered.
        rows = [poly_row(F(0), 1, F(0), F(2))]
        sol = solve_margin_lp(rows, 1)
        assert sol is not None
        assert sol.margin == 1  # capped at 1 (fully centered)
        assert sol.coefficients[0] == F(1)

    def test_infeasible(self):
        rows = [
            poly_row(F(0), 1, F(0), F(1)),
            poly_row(F(0), 1, F(2), F(3)),  # C0 in [0,1] and [2,3]
        ]
        assert solve_margin_lp(rows, 1) is None

    def test_one_sided_rows(self):
        rows = [
            exact_row((F(1),), F(5), None),
            exact_row((F(1),), None, F(7)),
        ]
        sol = solve_margin_lp(rows, 1)
        assert sol is not None
        assert F(5) <= sol.coefficients[0] <= F(7)

    def test_negative_coefficients(self):
        rows = [
            poly_row(F(0), 2, F(-2), F(-2)),
            poly_row(F(1), 2, F(-5), F(-5)),
        ]
        sol = solve_margin_lp(rows, 2)
        assert sol.coefficients == [F(-2), F(-3)]

    def test_tiny_scales(self):
        # Constraints at the scale of subnormal outputs must stay exact.
        s = F(1, 2**120)
        rows = [
            poly_row(F(0), 2, s, 3 * s),
            poly_row(F(1, 2**7), 2, 5 * s, 9 * s),
        ]
        sol = solve_margin_lp(rows, 2)
        assert sol is not None
        assert not check_rows(rows, sol.coefficients)

    def test_quadratic_through_exp_like_intervals(self):
        # Narrow intervals around exp(x) on small reduced inputs; a
        # quadratic has enough freedom.
        import math

        rows = []
        for i in range(-8, 9):
            x = F(i, 2**10)
            mid = F(math.exp(float(x))).limit_denominator(10**12)
            w = F(1, 10**6)
            rows.append(poly_row(x, 3, mid - w, mid + w))
        sol = solve_margin_lp(rows, 3)
        assert sol is not None
        assert not check_rows(rows, sol.coefficients)
        assert sol.margin > 0

    def test_check_rows_reports_violations(self):
        rows = [
            poly_row(F(0), 1, F(0), F(1)),
            poly_row(F(1), 1, F(5), F(6)),
        ]
        bad = check_rows(rows, [F(2)])
        assert bad == [0, 1]
        assert check_rows(rows, [F(1, 2)]) == [1]

    def test_empty_rows(self):
        sol = solve_margin_lp([], 3)
        assert sol is not None
        assert sol.coefficients == [F(0)] * 3

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_random_feasible_systems(self, data):
        """Build rows around a known polynomial; solver must succeed and the
        solution must satisfy every row exactly."""
        k = data.draw(st.integers(1, 4))
        true = [
            F(data.draw(st.integers(-50, 50)), data.draw(st.integers(1, 20)))
            for _ in range(k)
        ]
        rows = []
        npts = data.draw(st.integers(k, 12))
        for i in range(npts):
            x = F(data.draw(st.integers(-100, 100)), 128)
            val = sum(c * x**j for j, c in enumerate(true))
            w = F(data.draw(st.integers(0, 100)), 1000)
            rows.append(poly_row(x, k, val - w, val + w))
        sol = solve_margin_lp(rows, k)
        assert sol is not None
        assert not check_rows(rows, sol.coefficients)


# ----------------------------------------------------------------------
# Certified float guess vs the exact simplex
# ----------------------------------------------------------------------


@contextmanager
def guess(basis_fn):
    """Replace the float guess: ``basis_fn(G, h)`` returns row indices,
    a :class:`model.Ray` (a forged ray) or None.  Repair calls (which
    pass a start basis and an entering row) get the same answer."""
    def forged(G, h, start=None, enter=None):
        return basis_fn(G, h)
    with mock.patch.object(model, "_float_guess", forged):
        yield


def solve(rows, ncols):
    """``solve_margin_lp``'s answer and the path that gave it."""
    paths = []
    sol = solve_margin_lp(rows, ncols, paths=paths)
    (path,) = paths
    return sol, path


def exact_only(rows, ncols):
    """The answer of the exact simplex alone (no guess to certify)."""
    with guess(lambda G, h: None):
        sol, path = solve(rows, ncols)
    assert path == model.EXACT
    return sol


def answer(sol):
    return None if sol is None else (sol.coefficients, sol.margin)


@st.composite
def margin_lps(draw):
    """Margin LPs around a random polynomial (off-centre intervals, so
    most have a unique optimum), with the degenerate shapes the
    certificate must reject: duplicated and one-sided rows, a zero
    column, at most ncols rows (delta rides to its cap), zero-width
    rows (a non-unique optimum), and infeasible samples."""
    k = draw(st.integers(1, 4))
    true = [
        F(draw(st.integers(-50, 50)), draw(st.integers(1, 20)))
        for _ in range(k)
    ]
    zero_col = draw(st.sampled_from([None] + list(range(k))))
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        x = F(draw(st.integers(-100, 100)), 128)
        coeffs = tuple(
            F(0) if j == zero_col else x**j for j in range(k)
        )
        val = sum(c * t for c, t in zip(coeffs, true))
        below, above = (F(draw(st.integers(0, 100)), 1000) for _ in "lh")
        side = draw(st.sampled_from(["both", "both", "both", "lo", "hi"]))
        row = exact_row(
            coeffs,
            None if side == "hi" else val - below,
            None if side == "lo" else val + above,
        )
        rows.extend([row] * draw(st.integers(1, 2)))
    if draw(st.integers(0, 4)) == 0:
        # Two disjoint intervals on one evaluation: infeasible.
        coeffs = rows[0].exact()[0]
        rows += [exact_row(coeffs, F(0), F(1)),
                 exact_row(coeffs, F(2), F(3))]
    return rows, k


def small_lp():
    """A line through off-centre intervals around a parabola: a unique
    optimum with margin 5/9, small enough to try every basis."""
    def f(x):
        return 1 + x + x * x / 3
    return [
        poly_row(F(i, 8), 2, f(F(i, 8)) - F(1, 64), f(F(i, 8)) + F(1, 32))
        for i in range(5)
    ]


class TestCertifiedPath:
    @settings(max_examples=150, deadline=None)
    @given(margin_lps())
    def test_matches_exact_simplex(self, lp):
        rows, k = lp
        assert answer(solve_margin_lp(rows, k)) == answer(exact_only(rows, k))

    def test_typical_sample_is_certified(self):
        rows = []
        for i in range(-8, 9):
            x = F(i, 2**10)
            mid = F(math.exp(float(x))).limit_denominator(10**12)
            rows.append(poly_row(x, 3, mid - F(1, 10**6), mid + F(1, 10**6)))
        sol, path = solve(rows, 3)
        assert path == model.CERTIFIED
        assert answer(sol) == answer(exact_only(rows, 3))

    def test_every_forged_basis_gives_the_exact_answer(self):
        # All 3-row bases of a small 2-coefficient LP: only the optimal
        # one may be certified; singular, wrong-sign and feasible but
        # non-optimal ones fall back to the exact simplex.
        rows = small_lp()
        want = exact_only(rows, 2)
        assert want.margin == F(5, 9)
        G, h, _, _ = model._primal(rows, 2, F(1))
        kinds = set()
        for basis in itertools.combinations(range(len(G)), 3):
            GB = [G[i] for i in basis]
            z = solve_square(GB, [h[i] for i in basis])
            if z is None:
                kind = "singular"
            else:
                y = solve_square(list(zip(*GB)), [0, 0, 1])
                feasible = all(
                    sum(g * v for g, v in zip(row, z)) <= hi
                    for row, hi in zip(G, h)
                )
                if any(v <= 0 for v in y):
                    kind = "wrong sign"
                elif not feasible:
                    kind = "infeasible vertex"
                else:
                    kind = "optimal"
                if feasible and z[-1] < want.margin:
                    kinds.add("feasible, not optimal")
            kinds.add(kind)
            with guess(lambda G, h: list(basis)):
                sol, path = solve(rows, 2)
            assert answer(sol) == answer(want), basis
            assert (path == model.CERTIFIED) == (kind == "optimal")
        assert kinds >= {"singular", "wrong sign", "feasible, not optimal",
                         "optimal"}

    def test_repair_reaches_the_optimum(self):
        # Start the float simplex's repair from every basis that fails
        # only check (c): exactly violated rows are pivoted in until the
        # optimal basis certifies.
        rows = small_lp()
        want = answer(exact_only(rows, 2))
        G, h, _, _ = model._primal(rows, 2, F(1))
        real = model._float_guess
        repaired = 0
        for basis in itertools.combinations(range(len(G)), 3):
            sol, violated = model._certify(G, h, list(basis))
            if violated is None:
                continue

            def first_guess(G, h, start=None, enter=None, basis=basis):
                if start is None:
                    return list(basis)
                return real(G, h, start, enter)

            with mock.patch.object(model, "_float_guess", first_guess):
                sol, path = solve(rows, 2)
            assert answer(sol) == want
            repaired += path == model.CERTIFIED
        assert repaired >= 10

    def test_entries_beyond_double_range(self):
        # Scaled to doubles, these rows overflow (a column and its rows
        # all far below 2^-1022): no float guess, same exact answer.
        t = F(1, 2**1100)
        rows = [
            exact_row((t, t * F(i, 2**100)), t * (i - F(1, 4)), t * (i + 1))
            for i in range(1, 5)
        ]
        G, h, Gf, hf = model._primal(rows, 2, F(1))
        assert not np.all(np.isfinite(Gf))
        sol, path = solve(rows, 2)
        assert path == model.EXACT
        assert answer(sol) == answer(exact_only(rows, 2))

    def test_malformed_guesses_fall_back(self):
        rows = [poly_row(F(i, 4), 2, F(i) - 1, F(i) + 1) for i in range(5)]
        want = answer(exact_only(rows, 2))
        n = 2 * len(rows) + 2
        for forged in ([0, 1], [0, 1, 2, 3], [0, 0, n - 1], [0, 1, n]):
            with guess(lambda G, h: forged):
                sol, path = solve(rows, 2)
            assert answer(sol) == want and path == model.EXACT


# ----------------------------------------------------------------------
# Certified Farkas rays vs the exact simplex
# ----------------------------------------------------------------------


def incompatible_quadratic():
    """``C0 + C1 x^2`` through (0, 0), (1, 1) and (2, 5), each within
    1/100: the last two points ask for C1 near 1 and near 5/4."""
    return [
        exact_row((F(1), F(x * x)), y - F(1, 100), y + F(1, 100))
        for x, y in ((0, 0), (1, 1), (2, 5))
    ]


def farkas_ray(G, h, basis, enter):
    """The ray r of check (d) for ``(basis, enter)``, over every row of
    G, by the reference elimination; None when G_B is singular."""
    w = solve_square(list(zip(*(G[i] for i in basis))), G[enter])
    if w is None:
        return None
    r = [F(0)] * len(G)
    r[enter] += 1
    for i, v in zip(basis, w):
        r[i] -= v
    return r


def ray_kind(G, h, basis, enter):
    """Why ``(basis, enter)`` is, or is not, a Farkas certificate."""
    r = farkas_ray(G, h, basis, enter)
    if r is None:
        return "singular"
    assert all(sum(ri * g[j] for ri, g in zip(r, G)) == 0 for j in range(len(G[0])))
    if any(v < 0 for v in r):
        return "negative entry"
    if sum(ri * hi for ri, hi in zip(r, h)) >= 0:
        return "h.r >= 0"
    return "certificate"


class TestFarkasPath:
    def test_hand_built_infeasible_lps(self):
        t = F(1, 2**1100)
        # C0 + t x C1 through (0, 0), (1, 1) and (2, 3), each within
        # 1/100: no line fits, and t x is far below the least double,
        # but the column scaling brings it into range.
        beyond = [
            exact_row((F(1), t * x), y - F(1, 100), y + F(1, 100))
            for x, y in ((0, 0), (1, 1), (2, 3))
        ]
        assert {row.approx[1] for row in beyond} == {0.0}
        lps = {
            "C <= 0 and C >= 1": (
                [exact_row((F(1),), None, F(0)), exact_row((F(1),), F(1), None)],
                1,
            ),
            "incompatible quadratic": (incompatible_quadratic(), 2),
            "entries beyond the double range": (beyond, 2),
        }
        for name, (rows, k) in lps.items():
            assert solve(rows, k) == (None, model.INFEASIBLE), name
            assert exact_only(rows, k) is None, name

    def test_no_float_ray_goes_exact(self):
        # Rows that overflow as doubles even after scaling: the float
        # guess gives up, and the exact simplex finds them infeasible.
        t = F(1, 2**1100)
        rows = [
            exact_row((t, t * F(i, 2**100)), t * (i - F(1, 4)), t * (i + 1))
            for i in range(1, 5)
        ]
        rows += [exact_row((t, t), F(0), t), exact_row((t, t), 2 * t, 3 * t)]
        _, _, Gf, _ = model._primal(rows, 2, F(1))
        assert not np.all(np.isfinite(Gf))
        assert solve(rows, 2) == (None, model.EXACT)

    def test_float_ray_is_a_certificate(self):
        rows = incompatible_quadratic()
        G, h, Gf, hf = model._primal(rows, 2, F(1))
        ray = model._float_guess(Gf, hf)
        assert isinstance(ray, model.Ray)
        assert ray_kind(G, h, ray.basis, ray.enter) == "certificate"
        assert model._certify_infeasible(G, h, ray.basis, ray.enter)

    def test_every_forged_ray_gives_the_exact_answer(self):
        # Every (basis, enter) pair of a small infeasible LP: only true
        # Farkas certificates may answer; singular bases, rays with a
        # negative entry (a positive w) and rays with h.r >= 0 (an enter
        # row the vertex satisfies, or one in the basis) fall back.
        rows = incompatible_quadratic()
        G, h, _, _ = model._primal(rows, 2, F(1))
        kinds = set()
        for basis in itertools.combinations(range(len(G)), 3):
            for enter in range(len(G)):
                kind = ray_kind(G, h, basis, enter)
                kinds.add(kind)
                with guess(lambda G, h: model.Ray(list(basis), enter)):
                    sol, path = solve(rows, 2)
                assert sol is None
                want = model.INFEASIBLE if kind == "certificate" else model.EXACT
                assert path == want, (basis, enter, kind)
        assert kinds == {"singular", "negative entry", "h.r >= 0", "certificate"}

    def test_forged_rays_fall_back(self):
        rows = incompatible_quadratic()
        G, h, Gf, hf = model._primal(rows, 2, F(1))
        real = model._float_guess(Gf, hf)
        b0, b1, b2 = real.basis
        n = len(G)
        wrong_enter = [
            e for e in range(n)
            if ray_kind(G, h, real.basis, e) != "certificate"
        ]
        assert wrong_enter
        forged = [model.Ray(real.basis, e) for e in wrong_enter] + [
            model.Ray([b0, b0, b2], real.enter),  # duplicate row
            model.Ray([b0, b1], real.enter),  # too few rows
            model.Ray(real.basis, n),  # no such row
            model.Ray([b0, b1, n], real.enter),
        ]
        for ray in forged:
            with guess(lambda G, h: ray):
                assert solve(rows, 2) == (None, model.EXACT), ray

    def test_feasible_lp_rejects_every_ray(self):
        # A feasible LP has no Farkas certificate: every forged ray that
        # passes the sign check must fail h.r < 0 and fall back.
        rows = small_lp()
        want = answer(exact_only(rows, 2))
        G, h, _, _ = model._primal(rows, 2, F(1))
        tried = 0
        for basis in itertools.combinations(range(len(G)), 3):
            for enter in range(len(G)):
                kind = ray_kind(G, h, basis, enter)
                assert kind != "certificate"
                if kind != "h.r >= 0" or enter in basis:
                    continue
                tried += 1
                with guess(lambda G, h: model.Ray(list(basis), enter)):
                    sol, path = solve(rows, 2)
                assert path == model.EXACT and answer(sol) == want
        assert tried > 0


class TestGenerationIdentity:
    def test_tiny_artifacts_identical_without_the_guess(self, tmp_path):
        oracle = Oracle()
        registry = get_registry()
        certified, infeasible = (
            registry.counter("repro_lp_solves_total", path=path)
            for path in (model.CERTIFIED, model.INFEASIBLE)
        )
        for fn in ("exp2", "cosh"):
            before = certified.value, infeasible.value
            with_guess = api.generate(
                fn, "tiny", oracle=oracle, out_dir=tmp_path / "guess",
            ).path.read_bytes()
            assert certified.value > before[0]
            assert infeasible.value > before[1]
            with guess(lambda G, h: None):
                without = api.generate(
                    fn, "tiny", oracle=oracle, out_dir=tmp_path / "exact",
                ).path.read_bytes()
            assert with_guess == without, fn
