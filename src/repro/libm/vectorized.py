"""Vectorized (numpy) evaluation of generated functions.

The performance benchmarks sweep hundreds of thousands of inputs, which
is infeasible with the scalar Python runtime; these kernels reproduce the
exact same double-precision operation sequence with numpy (float64 ops
are the same IEEE doubles), so results are bit-identical to the scalar
path — asserted by the test suite on exhaustive sweeps.

Progressive truncation is what Figure 4 measures: evaluating at a lower
``level`` runs a shorter Horner loop (and the piecewise baselines pay an
extra coefficient gather), so relative timings mirror the paper's shape.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.search import GeneratedFunction
from ..fp.doubles import exact_powers_of_ten
from ..funcs.base import FunctionPipeline
from ..funcs.exps import _HUGE, _TINY


class VectorizedFunction:
    """Vectorized runtime for one generated function."""

    def __init__(self, pipeline: FunctionPipeline, generated: GeneratedFunction):
        self.pipeline = pipeline
        self.generated = generated
        self.name = pipeline.name
        self._prepare()

    def _prepare(self) -> None:
        gen = self.generated
        npolys = gen.pieces[0].poly.num_polynomials
        max_terms = max(
            len(p.poly.double_coefficients[q])
            for p in gen.pieces
            for q in range(npolys)
        )
        self.npieces = gen.num_pieces
        self.bounds = np.array(
            [p.r_max for p in gen.pieces[:-1]], dtype=np.float64
        )
        self.coeffs = np.zeros((npolys, self.npieces, max_terms))
        for pi, piece in enumerate(gen.pieces):
            for q in range(npolys):
                cs = piece.poly.double_coefficients[q]
                self.coeffs[q, pi, : len(cs)] = cs
        self.term_counts = gen.pieces[0].poly.term_counts
        self.shapes = gen.pieces[0].poly.shapes
        self.kinds = []
        for shape in self.shapes:
            exps = shape.exponents
            if exps and exps[0] == 1:
                self.kinds.append("odd")
            elif len(exps) >= 2 and exps[1] == 2:
                self.kinds.append("even")
            else:
                self.kinds.append("dense")
        self.specials = gen.specials

    # ------------------------------------------------------------------
    def _piece_idx(self, r: np.ndarray) -> Optional[np.ndarray]:
        if self.npieces == 1:
            return None
        return np.searchsorted(self.bounds, r, side="right")

    def _horner(self, r: np.ndarray, poly_idx: int, level: int, piece) -> np.ndarray:
        n = self.term_counts[level][poly_idx]
        if n == 0:
            return np.zeros_like(r)
        if piece is None:
            # Single sub-domain: scalar coefficients, no gather.
            coeffs = [self.coeffs[poly_idx, 0, i] for i in range(n)]
        else:
            # Piecewise: per-element coefficient gather (the lookup-table
            # cost the paper's Figure 4(d) measures for RLibm-All).
            coeffs = [self.coeffs[poly_idx][piece, i] for i in range(n)]
        kind = self.kinds[poly_idx]
        t = r * r if kind in ("odd", "even") else r
        acc = coeffs[n - 1] + np.zeros_like(r)
        for i in range(n - 2, -1, -1):
            acc = acc * t + coeffs[i]
        if kind == "odd":
            acc = acc * r
        return acc

    def _apply_stored_specials(self, x: np.ndarray, out: np.ndarray, level: int) -> None:
        for (lvl, xd), y in self.specials.items():
            if lvl == level:
                out[x == xd] = y

    # ------------------------------------------------------------------
    def __call__(self, x: np.ndarray, level: Optional[int] = None) -> np.ndarray:
        if level is None:
            level = self.pipeline.family.levels - 1
        name = self.name
        # Lanes destined for the structural-special overwrite may overflow
        # or produce NaNs mid-kernel; that is expected and masked out.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if name in ("ln", "log2", "log10"):
                out = self._eval_log(x, level)
            elif name in ("exp", "exp2", "exp10"):
                out = self._eval_exp(x, level)
            elif name in ("sinh", "cosh"):
                out = self._eval_hyperbolic(x, level)
            else:
                out = self._eval_trigpi(x, level)
        self._apply_stored_specials(x, out, level)
        return out

    # -- per-family kernels ------------------------------------------------
    def _eval_log(self, x: np.ndarray, level: int) -> np.ndarray:
        pipe = self.pipeline
        J = pipe.table_bits
        safe = np.where((x > 0) & np.isfinite(x), x, 1.0)
        m, e = np.frexp(safe)
        m = m * 2.0
        e = e - 1
        j = np.floor((m - 1.0) * (1 << J)).astype(np.int64)
        f = 1.0 + j / float(1 << J)
        inv_f = np.asarray(pipe.inv_f)
        log2_f = np.asarray(pipe.log2_f)
        r = (m - f) * inv_f[j]
        piece = self._piece_idx(r)
        y = self._horner(r, 0, level, piece)
        out = y + (e + log2_f[j])
        if pipe.out_const != 1.0:
            out = out * pipe.out_const
        # Structural specials.
        out = np.where(x == 1.0, 0.0, out)
        if self.name == "log2":
            exact = m == 1.0
            out = np.where(exact, e.astype(np.float64), out)
        elif self.name == "log10":
            for k, val in exact_powers_of_ten(1, 2 ** (pipe.family.largest.emax + 1)):
                out = np.where(x == val, float(k), out)
        out = np.where(x == 0.0, -np.inf, out)
        out = np.where(x < 0, np.nan, out)
        out = np.where(np.isposinf(x), np.inf, out)
        out = np.where(np.isnan(x), np.nan, out)
        return out

    def _eval_exp(self, x: np.ndarray, level: int) -> np.ndarray:
        pipe = self.pipeline
        J2 = pipe.table_bits
        safe = np.where(np.isfinite(x), x, 0.0)
        if self.name == "exp2":
            n = _vrint(safe * (1 << J2))
            r = safe - n / float(1 << J2)
        else:
            n = _vrint(safe * pipe.inv_scale)
            r = (safe - n * pipe.c1) - n * pipe.c2
        i = n & ((1 << J2) - 1)
        mpow = n >> J2
        table = np.asarray(pipe.pow2_t)
        piece = self._piece_idx(r)
        p = self._horner(r, 0, level, piece)
        out = np.ldexp(table[i] * p, mpow)
        # Structural specials and clamps.
        out = np.where(x >= pipe.x_overflow, _HUGE, out)
        out = np.where(x < pipe.x_underflow, _TINY, out)
        if self.name == "exp2":
            ints = (x == np.floor(safe)) & (x >= pipe.x_underflow) & (x < pipe.x_overflow)
            out = np.where(ints, np.ldexp(1.0, np.where(ints, safe, 0.0).astype(np.int64)), out)
        elif self.name == "exp10":
            for k, val in exact_powers_of_ten(0, 2 ** (pipe.family.largest.emax + 2)):
                # Below the overflow clamp only, as in the scalar runtime.
                out = np.where((x == float(k)) & (x < pipe.x_overflow), val, out)
        out = np.where(x == 0.0, 1.0, out)
        out = np.where(np.isposinf(x), np.inf, out)
        out = np.where(np.isneginf(x), 0.0, out)
        out = np.where(np.isnan(x), np.nan, out)
        return out

    def _eval_hyperbolic(self, x: np.ndarray, level: int) -> np.ndarray:
        pipe = self.pipeline
        J2 = pipe.table_bits
        safe = np.where(np.isfinite(x), x, 0.0)
        a = np.abs(safe)
        n = _vrint(a * pipe.inv_scale)
        r = (a - n * pipe.c1) - n * pipe.c2
        i = n & ((1 << J2) - 1)
        mpow = n >> J2
        table = np.asarray(pipe.pow2_t)
        big = np.ldexp(table[i], mpow)
        inv = 1.0 / big
        ch = 0.5 * big + 0.5 * inv
        sh = 0.5 * big - 0.5 * inv
        piece = self._piece_idx(r)
        ps = self._horner(r, 0, level, piece)
        pc = self._horner(r, 1, level, piece)
        if self.name == "sinh":
            s = np.where(safe < 0, -1.0, 1.0)
            out = (s * ch) * ps + (s * sh) * pc
            out = np.where(x == 0.0, x, out)
            out = np.where(x >= pipe.x_overflow, _HUGE, out)
            out = np.where(x <= -pipe.x_overflow, -_HUGE, out)
            out = np.where(np.isinf(x), x, out)
        else:
            out = sh * ps + ch * pc
            out = np.where(x == 0.0, 1.0, out)
            out = np.where(np.abs(x) >= pipe.x_overflow, _HUGE, out)
            out = np.where(np.isinf(x), np.inf, out)
        out = np.where(np.isnan(x), np.nan, out)
        return out

    def _eval_trigpi(self, x: np.ndarray, level: int) -> np.ndarray:
        pipe = self.pipeline
        J3 = pipe.table_bits
        safe = np.where(np.isfinite(x), x, 0.0)
        a = np.abs(safe)
        f = np.fmod(a, 2.0)
        if self.name == "sinpi":
            s = np.where(safe < 0, -1.0, 1.0)
            flip = f >= 1.0
            f = np.where(flip, f - 1.0, f)
            s = np.where(flip, -s, s)
            high = f > 0.5
            f = np.where(high, 1.0 - f, f)
        else:
            s = np.ones_like(safe)
            f = np.where(f >= 1.0, 2.0 - f, f)
            high = f > 0.5
            f = np.where(high, 1.0 - f, f)
            s = np.where(high, -1.0, s)
        n = _vrint(f * (1 << J3))
        r = f - n / float(1 << J3)
        sp = np.asarray(pipe.sp)
        cp = np.asarray(pipe.cp)
        piece = self._piece_idx(r)
        ps = self._horner(r, 0, level, piece)
        pc = self._horner(r, 1, level, piece)
        if self.name == "sinpi":
            out = (s * cp[n]) * ps + (s * sp[n]) * pc
        else:
            out = (-s * sp[n]) * ps + (s * cp[n]) * pc
        # Half-integer inputs are exact.
        t = np.fmod(np.abs(safe), 2.0)
        twice = t * 2.0
        half_mask = twice == np.floor(twice)
        idx = np.where(half_mask, twice, 0.0).astype(np.int64) % 4
        if self.name == "sinpi":
            mag = np.array([0.0, 1.0, 0.0, -1.0])[idx]
            exact = np.where(safe < 0, -mag, mag)
            out = np.where(half_mask, exact, out)
            out = np.where(x == 0.0, x, out)
        else:
            exact = np.array([1.0, 0.0, -1.0, 0.0])[idx]
            out = np.where(half_mask, exact, out)
            out = np.where(x == 0.0, 1.0, out)
        out = np.where(np.isinf(x) | np.isnan(x), np.nan, out)
        return out


def _vrint(v: np.ndarray) -> np.ndarray:
    """Vector version of the scalar runtime's rint (floor(v + 0.5) with the
    exact-tie-to-even correction); returns int64."""
    r = np.floor(v + 0.5)
    tie = (v + 0.5 == r) & (np.fmod(r, 2.0) != 0.0)
    r = np.where(tie, r - 1.0, r)
    return r.astype(np.int64)


def round_doubles_to_precision(y: np.ndarray, drop_bits: int) -> np.ndarray:
    """Round doubles to 53 - drop_bits significand bits (RNE), the
    vectorized stand-in for 'return a wide-format result' in the
    CR-LIBM-like timing path (Veltkamp splitting)."""
    c = y * (2.0**drop_bits + 1.0)
    return c - (c - y)
