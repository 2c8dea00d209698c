"""C code generation for the generated functions.

The end product of RLIBM-Prog is C code in mainstream math libraries
(the paper's ln/log2/log10 polynomials shipped in LLVM libc).  This
module emits self-contained C99 for a generated function: the
range-reduction tables, the piecewise progressive coefficients, stored
special cases, and one entry point per progressive level whose double
arithmetic is operation-for-operation identical to the Python runtime —
asserted bit-exactly by the test suite, which compiles the output with
gcc and sweeps every input of the family.

All constants are emitted as C hexadecimal floating literals (%a), so
the source round-trips exactly.  NaN results are C99's ``NAN`` (the
positive quiet NaN numpy spells ``np.nan``), so the batch entry points
of :mod:`repro.libm.compiled` match the numpy kernel bit for bit.
"""

from __future__ import annotations

import math
from typing import List

from ..core.search import GeneratedFunction
from ..fp.doubles import exact_powers_of_ten
from ..funcs.base import FunctionPipeline


def _hx(v: float) -> str:
    """An exact C literal for a double (hex float, or nan/inf spellings)."""
    if math.isnan(v):
        return "NAN"
    if math.isinf(v):
        return "(1.0/0.0)" if v > 0 else "(-1.0/0.0)"
    return float.hex(v)


def _table(name: str, values: List[float], per_line: int = 4) -> str:
    body = []
    for i in range(0, len(values), per_line):
        chunk = ", ".join(_hx(v) for v in values[i:i + per_line])
        body.append(f"    {chunk},")
    return (
        f"static const double {name}[{len(values)}] = {{\n"
        + "\n".join(body)
        + "\n};\n"
    )


def _symbol(pipeline: FunctionPipeline, gen: GeneratedFunction) -> str:
    return f"rlibm_{gen.family_name}_{gen.name}"


def emit_function(pipeline: FunctionPipeline, gen: GeneratedFunction) -> str:
    """Complete C99 translation unit body for one generated function."""
    sym = _symbol(pipeline, gen)
    parts = [
        "#include <math.h>",
        "#include <stdint.h>",
        "",
        f"/* {gen.name} for the '{gen.family_name}' family — generated by",
        "   the repro RLIBM-Prog reproduction.  Level k evaluates only the",
        "   progressive term counts of the k-th (smallest-first) format. */",
        "",
    ]
    parts.append(_coefficient_tables(pipeline, gen, sym))
    parts.append(_reduction_tables(pipeline, sym))
    if pipeline.name not in ("ln", "log2", "log10"):  # logs never round
        parts.append(_rint_helper(sym))
    parts.append(_core_function(pipeline, gen, sym))
    for level in range(pipeline.family.levels):
        fmt = pipeline.family.formats[level]
        parts.append(
            f"double {sym}_{fmt.display_name.replace('-', '_')}(double x) "
            f"{{ return {sym}_eval(x, {level}); }}"
        )
    parts.append(
        f"double {sym}(double x) "
        f"{{ return {sym}_eval(x, {pipeline.family.levels - 1}); }}"
    )
    return "\n".join(parts) + "\n"


# ----------------------------------------------------------------------
def _coefficient_tables(pipeline, gen, sym: str) -> str:
    out = []
    npolys = gen.pieces[0].poly.num_polynomials
    for q in range(npolys):
        max_terms = max(len(p.poly.double_coefficients[q]) for p in gen.pieces)
        rows = []
        for p in gen.pieces:
            cs = list(p.poly.double_coefficients[q])
            cs += [0.0] * (max_terms - len(cs))
            rows.append("    { " + ", ".join(_hx(c) for c in cs) + " },")
        out.append(
            f"static const double {sym}_C{q}[{len(gen.pieces)}][{max_terms}]"
            " = {\n" + "\n".join(rows) + "\n};\n"
        )
    counts = gen.pieces[0].poly.term_counts
    rows = ", ".join(
        "{" + ", ".join(str(c) for c in lvl) + "}" for lvl in counts
    )
    out.append(
        f"static const int {sym}_terms[{len(counts)}][{npolys}] = {{ {rows} }};\n"
    )
    if len(gen.pieces) > 1:
        out.append(
            _table(f"{sym}_bounds", [p.r_max for p in gen.pieces[:-1]])
        )
    if gen.specials:
        items = sorted(gen.specials.items())
        out.append(_table(f"{sym}_special_x", [xd for (_, xd), _ in items]))
        out.append(_table(f"{sym}_special_y", [y for _, y in items]))
        out.append(
            f"static const int {sym}_special_level[{len(items)}] = {{ "
            + ", ".join(str(lvl) for (lvl, _), _ in items)
            + " };\n"
        )
    return "\n".join(out)


def _reduction_tables(pipeline, sym: str) -> str:
    name = pipeline.name
    if name in ("ln", "log2", "log10"):
        return (
            _table(f"{sym}_invf", pipeline.inv_f)
            + _table(f"{sym}_log2f", pipeline.log2_f)
        )
    if name in ("exp", "exp2", "exp10", "sinh", "cosh"):
        return _table(f"{sym}_pow2t", pipeline.pow2_t)
    return _table(f"{sym}_sp", pipeline.sp) + _table(f"{sym}_cp", pipeline.cp)


def _rint_helper(sym: str) -> str:
    return f"""\
static long long {sym}_rint(double v) {{
    /* floor(v + 0.5) with the exact-tie-to-even correction: matches the
       reference runtime's rounding, independent of the FP environment. */
    double r = floor(v + 0.5);
    if (v + 0.5 == r && fmod(r, 2.0) != 0.0) r -= 1.0;
    return (long long)r;
}}
"""


def _horner(sym: str, q: int, kind: str, var: str = "r") -> str:
    """C snippet computing polynomial q of the active piece at r, with the
    level's term count, into `acc`."""
    tsq = f"{sym}_terms[level][{q}]"
    coeff = f"{sym}_C{q}[piece]"
    lines = [
        f"    int n{q} = {tsq};",
        f"    double acc{q} = 0.0;",
        f"    if (n{q} > 0) {{",
    ]
    if kind in ("odd", "even"):
        lines.append(f"        double t = {var} * {var};")
    else:
        lines.append(f"        double t = {var};")
    lines += [
        f"        acc{q} = {coeff}[n{q} - 1];",
        f"        for (int i = n{q} - 2; i >= 0; i--)",
        f"            acc{q} = acc{q} * t + {coeff}[i];",
    ]
    if kind == "odd":
        lines.append(f"        acc{q} = acc{q} * {var};")
    lines.append("    }")
    return "\n".join(lines)


def _piece_select(sym: str, gen) -> str:
    if gen.num_pieces == 1:
        return "    int piece = 0;"
    lines = ["    int piece = 0;"]
    for i in range(gen.num_pieces - 1):
        # bisect_right: a reduced input on a bound belongs to the piece
        # above it, as in GeneratedFunction.piece_for.
        lines.append(f"    if (r >= {sym}_bounds[{i}]) piece = {i + 1};")
    return "\n".join(lines)


def _specials_check(sym: str, gen) -> str:
    if not gen.specials:
        return ""
    n = len(gen.specials)
    return f"""\
    for (int i = 0; i < {n}; i++)
        if ({sym}_special_level[i] == level && x == {sym}_special_x[i])
            return {sym}_special_y[i];
"""


def _core_function(pipeline, gen, sym: str) -> str:
    name = pipeline.name
    if name in ("ln", "log2", "log10"):
        body = _log_body(pipeline, gen, sym)
    elif name in ("exp", "exp2", "exp10"):
        body = _exp_body(pipeline, gen, sym)
    elif name in ("sinh", "cosh"):
        body = _hyperbolic_body(pipeline, gen, sym)
    else:
        body = _trigpi_body(pipeline, gen, sym)
    # Inlined into the batch loops of repro.libm.compiled, so the
    # per-element call and the level's table lookups leave the loop.
    return (
        f"static inline double {sym}_eval(double x, int level) "
        f"{{\n{body}\n}}\n"
    )


def _log_body(pipeline, gen, sym: str) -> str:
    J = pipeline.table_bits
    kinds = pipeline.poly_kinds
    extra = ""
    if pipeline.name == "log2":
        extra = "    if (m2 == 1.0) return (double)(e - 1);\n"
    elif pipeline.name == "log10":
        checks = [
            f"    if (x == {_hx(val)}) return {float(k)};"
            for k, val in exact_powers_of_ten(
                1, 2 ** (pipeline.family.largest.emax + 1)
            )
        ]
        extra = "\n".join(checks) + "\n"
    # Match the reference runtime's association exactly:
    # off = e + log2F[j] first, then y + off (each its own rounding).
    out_expr = "(y + off)"
    if pipeline.out_const != 1.0:
        out_expr = f"({out_expr} * {_hx(pipeline.out_const)})"
    return f"""\
    if (isnan(x)) return NAN;
    if (x == 0.0) return -1.0/0.0;
    if (x < 0.0) return NAN;
    if (isinf(x)) return x;
    if (x == 1.0) return 0.0;
    int e;
    double m = frexp(x, &e);
    double m2 = m * 2.0;
{extra}{_specials_check(sym, gen)}\
    int j = (int)floor((m2 - 1.0) * {1 << J}.0);
    double f = 1.0 + (double)j / {1 << J}.0;
    double r = (m2 - f) * {sym}_invf[j];
{_piece_select(sym, gen)}
{_horner(sym, 0, kinds[0])}
    double y = acc0;
    double off = (double)(e - 1) + {sym}_log2f[j];
    return {out_expr};"""


def _exp_body(pipeline, gen, sym: str) -> str:
    J2 = pipeline.table_bits
    kinds = pipeline.poly_kinds
    name = pipeline.name
    if name == "exp2":
        reduce_code = f"""\
    long long n = {sym}_rint(x * {1 << J2}.0);
    double r = x - (double)n / {1 << J2}.0;"""
        exact = """\
    if (x == floor(x)) return ldexp(1.0, (int)x);
"""
    else:
        reduce_code = f"""\
    long long n = {sym}_rint(x * {_hx(pipeline.inv_scale)});
    double r = (x - (double)n * {_hx(pipeline.c1)}) - (double)n * {_hx(pipeline.c2)};"""
        exact = ""
        if name == "exp10":
            checks = [
                f"    if (x == {float(k)}) return {_hx(val)};"
                for k, val in exact_powers_of_ten(
                    0, 2 ** (pipeline.family.largest.emax + 2)
                )
            ]
            exact = "\n".join(checks) + "\n"
    return f"""\
    if (isnan(x)) return NAN;
    if (isinf(x)) return x > 0.0 ? x : 0.0;
    if (x == 0.0) return 1.0;
    if (x >= {_hx(pipeline.x_overflow)}) return {_hx(2.0 ** 900)};
    if (x < {_hx(pipeline.x_underflow)}) return {_hx(2.0 ** -900)};
{exact}{_specials_check(sym, gen)}\
{reduce_code}
    int i = (int)(n & {(1 << J2) - 1});
    int mexp = (int)(n >> {J2});
{_piece_select(sym, gen)}
{_horner(sym, 0, kinds[0])}
    return ldexp({sym}_pow2t[i] * acc0, mexp);"""


def _hyperbolic_body(pipeline, gen, sym: str) -> str:
    J2 = pipeline.table_bits
    is_sinh = pipeline.name == "sinh"
    if is_sinh:
        specials = f"""\
    if (isnan(x)) return NAN;
    if (x == 0.0) return x;
    if (isinf(x)) return x;
    if (x >= {_hx(pipeline.x_overflow)}) return {_hx(2.0 ** 900)};
    if (x <= {_hx(-pipeline.x_overflow)}) return {_hx(-(2.0 ** 900))};
"""
        combine = "(s * ch) * acc0 + (s * sh) * acc1"
        sign = """\
    double s = 1.0, a = x;
    if (a < 0.0) { a = -a; s = -1.0; }"""
    else:
        specials = f"""\
    if (isnan(x)) return NAN;
    if (x == 0.0) return 1.0;
    if (isinf(x)) return 1.0/0.0;
    if (fabs(x) >= {_hx(pipeline.x_overflow)}) return {_hx(2.0 ** 900)};
"""
        combine = "sh * acc0 + ch * acc1"
        sign = "    double a = fabs(x);"
    return f"""\
{specials}{_specials_check(sym, gen)}\
{sign}
    long long n = {sym}_rint(a * {_hx(pipeline.inv_scale)});
    double r = (a - (double)n * {_hx(pipeline.c1)}) - (double)n * {_hx(pipeline.c2)};
    int i = (int)(n & {(1 << J2) - 1});
    int mexp = (int)(n >> {J2});
    double big = ldexp({sym}_pow2t[i], mexp);
    double inv = 1.0 / big;
    double ch = 0.5 * big + 0.5 * inv;
    double sh = 0.5 * big - 0.5 * inv;
{_piece_select(sym, gen)}
{_horner(sym, 0, 'odd')}
{_horner(sym, 1, 'even')}
    return {combine};"""


def _trigpi_body(pipeline, gen, sym: str) -> str:
    J3 = pipeline.table_bits
    is_sin = pipeline.name == "sinpi"
    if is_sin:
        half = """\
    double t2 = fmod(fabs(x), 2.0) * 2.0;
    if (t2 == floor(t2)) {
        static const double tab[4] = {0.0, 1.0, 0.0, -1.0};
        double mag = tab[(int)t2 % 4];
        return x < 0.0 ? -mag : (x == 0.0 ? x : mag);
    }"""
        fold = """\
    double s = 1.0, a = fabs(x);
    if (x < 0.0) s = -1.0;
    double f = fmod(a, 2.0);
    if (f >= 1.0) { f -= 1.0; s = -s; }
    if (f > 0.5) f = 1.0 - f;"""
        combine = f"(s * {sym}_cp[i]) * acc0 + (s * {sym}_sp[i]) * acc1"
    else:
        half = """\
    double t2 = fmod(fabs(x), 2.0) * 2.0;
    if (t2 == floor(t2)) {
        static const double tab[4] = {1.0, 0.0, -1.0, 0.0};
        return tab[(int)t2 % 4];
    }"""
        fold = """\
    double s = 1.0;
    double f = fmod(fabs(x), 2.0);
    if (f >= 1.0) f = 2.0 - f;
    if (f > 0.5) { f = 1.0 - f; s = -1.0; }"""
        combine = f"(-s * {sym}_sp[i]) * acc0 + (s * {sym}_cp[i]) * acc1"
    return f"""\
    if (isnan(x) || isinf(x)) return NAN;
{half}
{_specials_check(sym, gen)}\
{fold}
    long long n = {sym}_rint(f * {1 << J3}.0);
    double r = f - (double)n / {1 << J3}.0;
    int i = (int)n;
{_piece_select(sym, gen)}
{_horner(sym, 0, 'odd')}
{_horner(sym, 1, 'even')}
    return {combine};"""


# ----------------------------------------------------------------------
def emit_selftest(
    pipeline,
    gen,
    inputs: List[float],
    expected_by_level: List[List[float]],
) -> str:
    """A self-contained C program: sweeps the inputs at every level and
    bit-compares against the reference outputs; exits with the number of
    mismatches (0 = bit-identical to the Python runtime)."""
    sym = _symbol(pipeline, gen)
    src = [emit_function(pipeline, gen)]
    src.append("#include <stdio.h>")
    src.append("#include <string.h>")
    src.append(_table(f"{sym}_test_x", inputs, per_line=4))
    for level, exp in enumerate(expected_by_level):
        src.append(_table(f"{sym}_test_y{level}", exp, per_line=4))
    levels = pipeline.family.levels
    checks = "\n".join(
        f"""\
    for (int i = 0; i < {len(inputs)}; i++) {{
        double got = {sym}_eval({sym}_test_x[i], {level});
        double want = {sym}_test_y{level}[i];
        uint64_t gb, wb;
        memcpy(&gb, &got, 8); memcpy(&wb, &want, 8);
        if (gb != wb && !(isnan(got) && isnan(want))) {{
            if (bad < 5)
                printf("level {level} x=%a got=%a want=%a\\n",
                       {sym}_test_x[i], got, want);
            bad++;
        }}
    }}"""
        for level in range(levels)
    )
    src.append(
        f"""\
int main(void) {{
    int bad = 0;
{checks}
    printf("%d mismatches over %d checks\\n", bad, {len(inputs) * levels});
    return bad == 0 ? 0 : 1;
}}"""
    )
    return "\n".join(src)
