"""Compiled batch kernels: the generated C, built once per artifact.

:mod:`repro.libm.codegen` emits C99 whose double arithmetic is the
Python runtime's, operation for operation.  This module grows that
source into two batch entry points per artifact and builds them into a
shared object that the ``compiled`` serving tier calls through
:mod:`ctypes`:

``<sym>_batch_eval(x, n, level, mode, bits, raw, values)``
    One pass per element: range reduction, progressive Horner with the
    level's term count, rounding to the level's format under ``mode``
    (exactly :func:`~repro.libm.vround.round_doubles_to_bits`, all six
    modes) and the decode back to doubles
    (:func:`~repro.libm.vround.decode_bits_to_doubles`).

``<sym>_batch_encode(x, n, level, enc, exact)``
    The inputs' own round-toward-zero encodings in the level's format
    and the exactness mask: the member test and table index of
    :func:`~repro.libm.vround.round_doubles_to_bits_checked`.

Build and cache
---------------

The source is compiled by the system ``gcc`` with :data:`CFLAGS` (no
``-march``, no ``-ffast-math``: the same IEEE double operations as
numpy, with no contraction into FMAs).  Builds are cached
content-addressed at ``$XDG_CACHE_HOME/repro/kernels/<key>.so`` (default
``~/.cache``), where ``<key>`` is the SHA-256 of the source, the
compiler's version line and the flags.  A build goes to a temporary
file that is renamed into place, so concurrent builders of one key
leave one intact file.  Each cached object carries a trailer (SHA-256
of the object, then :data:`_SEAL`) checked before it is loaded; a
truncated or corrupt file is quarantined as ``<name>.corrupt-<stamp>``,
like a damaged ``.tbl`` table, and rebuilt.

A loaded library must also pass a self-check before it serves: a few
hundred member inputs per level, all six modes, bit-compared against
the numpy kernel and vector rounding.  Every failure — no ``gcc`` on
``PATH``, a failed build, a failed self-check — raises
:class:`CompiledUnavailable` with the reason, and the serving layer
falls through to the ``vector`` tier.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..fp.encode import FPValue
from ..fp.rounding import RoundingMode
from ..resilience.checkpoint import atomic_write_bytes, quarantine_file
from .codegen import _symbol, emit_function
from .vround import (
    decode_bits_to_doubles,
    round_doubles_to_bits,
    round_doubles_to_bits_checked,
    supports_vector_rounding,
)

#: Code-generation flags shared by every build of generated C (the
#: serving tier here, the codegen test's executables).
CFLAGS = ("-O2", "-std=c99", "-ffp-contract=off")
SHARED_FLAGS = ("-fPIC", "-shared")

#: Seconds one gcc run may take (a cold build takes about 0.2 s).
BUILD_TIMEOUT = 20

#: The ``mode`` argument of the batch entry points.
MODE_CODES: Dict[RoundingMode, int] = {m: i for i, m in enumerate(RoundingMode)}

#: Last bytes of every cached object, after the SHA-256 of what precedes.
_SEAL = b"repro-kernel-v1\n"
_TRAILER = hashlib.sha256().digest_size + len(_SEAL)

#: Member inputs per level in the load-time self-check.
SELF_CHECK_INPUTS = 256


class CompiledUnavailable(RuntimeError):
    """The compiled kernel for an artifact cannot be built or trusted."""


def compile_command(compiler: str, source: Path, output: Path) -> List[str]:
    """The gcc command line that builds generated C into a loadable
    shared object."""
    return [
        compiler, *CFLAGS, *SHARED_FLAGS, str(source), "-o", str(output),
        "-lm",
    ]


def find_compiler() -> Optional[str]:
    """The ``gcc`` on ``PATH``, or ``None``."""
    return shutil.which("gcc")


_VERSIONS: Dict[str, str] = {}


def compiler_version(compiler: str) -> str:
    """First line of ``compiler --version`` (once per process)."""
    version = _VERSIONS.get(compiler)
    if version is None:
        try:
            proc = subprocess.run(
                [compiler, "--version"], capture_output=True, text=True,
                timeout=BUILD_TIMEOUT,
            )
        except (OSError, subprocess.SubprocessError) as e:
            raise CompiledUnavailable(f"{compiler} --version failed: {e}")
        if proc.returncode != 0 or not proc.stdout:
            raise CompiledUnavailable(f"{compiler} --version failed")
        version = _VERSIONS[compiler] = proc.stdout.splitlines()[0]
    return version


def cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro/kernels`` (``~/.cache`` when the variable
    is unset or not absolute, as the XDG spec asks)."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    root = Path(base) if os.path.isabs(base) else Path.home() / ".cache"
    return root / "repro" / "kernels"


# ----------------------------------------------------------------------
# Source
# ----------------------------------------------------------------------
_ROUNDING_C = """\
#include <string.h>

typedef struct {
    int m, emin, total_bits, exponent_bits, bias;
    int64_t sign_mask, inf_bits, nan_bits, max_bits;
    double max_value, overflow_threshold, subnormal_ulp;
} rlibm_format;

enum { RLIBM_RNE, RLIBM_RNA, RLIBM_RTZ, RLIBM_RTP, RLIBM_RTN, RLIBM_RTO };

/* round_doubles_to_bits_checked for one double: the rounded pattern,
   and in *exact whether nothing was discarded and nothing overflowed.
   The magnitude is M * 2**q with an integer M, read off the bits. */
static inline int64_t rlibm_round(double y, const rlibm_format *f,
                                  int mode, int *exact) {
    uint64_t u;
    memcpy(&u, &y, 8);
    int neg = (int)(u >> 63);
    uint64_t mag = u & 0x7fffffffffffffffULL;
    int64_t pattern = 0;
    int inexact = 0, over = 0;
    if (mag >= 0x7ff0000000000000ULL) {
        if (mag > 0x7ff0000000000000ULL) { *exact = 1; return f->nan_bits; }
        pattern = f->inf_bits;
    } else if (mag != 0) {
        int bexp = (int)(mag >> 52);
        int64_t M = (int64_t)(mag & 0xfffffffffffffULL);
        int q = -1074;
        if (bexp != 0) { M |= (int64_t)1 << 52; q = bexp - 1075; }
        /* floor(log2 a) for normal doubles; any subnormal double sits
           below every format's smallest subnormal, where E only needs
           to be under emin. */
        int E = q + 52;
        int qt = E >= f->emin ? E - f->m : f->emin - f->m;
        int sh = qt - q;
        if (sh > 60) sh = 60;
        int64_t rem = M & (((int64_t)1 << sh) - 1);
        int64_t half = (int64_t)1 << (sh - 1);
        pattern = ((int64_t)(E > f->emin ? E - f->emin : 0) << f->m)
                  + (M >> sh);
        inexact = rem > 0;
        int up = 0;
        switch (mode) {
        case RLIBM_RNE: up = rem > half || (rem == half && (pattern & 1)); break;
        case RLIBM_RNA: up = rem >= half; break;
        case RLIBM_RTP: up = inexact && !neg; break;
        case RLIBM_RTN: up = inexact && neg; break;
        case RLIBM_RTO: up = inexact && !(pattern & 1); break;
        default: break; /* RTZ truncates */
        }
        pattern += up;
        double a = fabs(y);
        if (a > f->max_value) {
            over = 1;
            switch (mode) {
            case RLIBM_RNE: case RLIBM_RNA:
                pattern = a >= f->overflow_threshold ? f->inf_bits : f->max_bits;
                break;
            case RLIBM_RTP: pattern = neg ? f->max_bits : f->inf_bits; break;
            case RLIBM_RTN: pattern = neg ? f->inf_bits : f->max_bits; break;
            default: pattern = f->max_bits; /* RTO's max is odd */
            }
        }
    }
    *exact = !inexact && !over;
    return neg ? (pattern | f->sign_mask) : pattern;
}

/* decode_bits_to_doubles for one pattern, built as double bits. */
static inline double rlibm_decode(int64_t bits, const rlibm_format *f) {
    int64_t efield = (bits >> f->m) & (((int64_t)1 << f->exponent_bits) - 1);
    int64_t mant = bits & (((int64_t)1 << f->m) - 1);
    uint64_t u;
    if (efield == ((int64_t)1 << f->exponent_bits) - 1) {
        u = mant == 0 ? 0x7ff0000000000000ULL : 0x7ff8000000000000ULL;
    } else if (efield == 0) {
        double d = (double)mant * f->subnormal_ulp; /* exact */
        memcpy(&u, &d, 8);
    } else {
        u = ((uint64_t)(efield - f->bias + 1023) << 52)
            | ((uint64_t)mant << (52 - f->m));
    }
    u |= (uint64_t)((bits >> (f->total_bits - 1)) & 1) << 63;
    double out;
    memcpy(&out, &u, 8);
    return out;
}
"""


def _format_row(fmt) -> str:
    if not supports_vector_rounding(fmt):
        # Never dispatched: the tier claims nothing for such formats.
        return "    { 0 },"
    fields = [
        fmt.mantissa_bits, fmt.emin, fmt.total_bits, fmt.exponent_bits,
        fmt.bias, fmt.sign_mask, FPValue.infinity(fmt).bits,
        FPValue.nan(fmt).bits, FPValue.max_finite(fmt).bits,
    ]
    ints = ", ".join(str(v) for v in fields)
    doubles = ", ".join(float.hex(float(v)) for v in (
        fmt.max_value, fmt.overflow_threshold, fmt.min_subnormal,
    ))
    return f"    {{ {ints}, {doubles} }},"


def emit_batch_source(pipeline, gen) -> str:
    """:func:`~repro.libm.codegen.emit_function` plus the fused batch
    entry points ``<sym>_batch_eval`` and ``<sym>_batch_encode``."""
    sym = _symbol(pipeline, gen)
    formats = pipeline.family.formats
    rows = "\n".join(_format_row(fmt) for fmt in formats)
    return (
        emit_function(pipeline, gen)
        + "\n" + _ROUNDING_C + f"""
static const rlibm_format {sym}_formats[{len(formats)}] = {{
{rows}
}};

void {sym}_batch_eval(const double *x, int64_t n, int level, int mode,
                      int64_t *bits, double *raw, double *values) {{
    const rlibm_format *f = &{sym}_formats[level];
    for (int64_t i = 0; i < n; i++) {{
        int exact;
        double y = {sym}_eval(x[i], level);
        int64_t b = rlibm_round(y, f, mode, &exact);
        raw[i] = y;
        bits[i] = b;
        values[i] = rlibm_decode(b, f);
    }}
}}

void {sym}_batch_encode(const double *x, int64_t n, int level,
                        int64_t *enc, uint8_t *exact) {{
    const rlibm_format *f = &{sym}_formats[level];
    for (int64_t i = 0; i < n; i++) {{
        int e;
        enc[i] = rlibm_round(x[i], f, RLIBM_RTZ, &e);
        exact[i] = (uint8_t)e;
    }}
}}
"""
    )


def build_key(source: str, version: str) -> str:
    """Content address of one build: source, compiler and flags."""
    h = hashlib.sha256()
    for part in (source, version, " ".join(CFLAGS + SHARED_FLAGS)):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
def _sealed(data: bytes) -> bool:
    body, digest = data[:-_TRAILER], data[-_TRAILER:-len(_SEAL)]
    return (
        len(data) > _TRAILER
        and data.endswith(_SEAL)
        and hashlib.sha256(body).digest() == digest
    )


def _open_cached(path: Path) -> Optional[ctypes.CDLL]:
    """The cached object at ``path``, or ``None`` when there is none or
    it was damaged (and is now quarantined)."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    if not _sealed(data):
        quarantine_file(path, "truncated or corrupt kernel", "kernel")
        return None
    try:
        return ctypes.CDLL(str(path))
    except OSError as e:
        quarantine_file(path, str(e), "kernel")
        return None


def _build(compiler: str, source: str, path: Path) -> ctypes.CDLL:
    """Compile ``source`` in a private scratch directory next to
    ``path``, then publish the object, sealed, at ``path``."""
    try:
        with tempfile.TemporaryDirectory(dir=path.parent) as scratch:
            (Path(scratch) / "kernel.c").write_text(source)
            # Relative names: the object records its source file name,
            # and a fixed one keeps builds of one key byte-identical.
            proc = subprocess.run(
                compile_command(compiler, Path("kernel.c"), Path("kernel.so")),
                cwd=scratch, capture_output=True, text=True,
                timeout=BUILD_TIMEOUT,
            )
            if proc.returncode != 0:
                tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
                raise CompiledUnavailable(f"gcc failed: {tail}")
            body = (Path(scratch) / "kernel.so").read_bytes()
            atomic_write_bytes(
                path, body + hashlib.sha256(body).digest() + _SEAL
            )
        return ctypes.CDLL(str(path))
    except (OSError, subprocess.SubprocessError) as e:
        raise CompiledUnavailable(f"cannot build {path.name}: {e}")


# ----------------------------------------------------------------------
# Loaded kernels
# ----------------------------------------------------------------------
_ptr = ctypes.c_void_p
_i64 = ctypes.c_int64
_int = ctypes.c_int


def _address(a: np.ndarray) -> int:
    """The data pointer of a non-empty contiguous array.  A ``c_char``
    view costs a fraction of ``ndarray.ctypes`` (which matters at small
    batches, where the pointers cost more than the C pass), but needs
    a writable buffer."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except TypeError:  # read-only input, e.g. decoded off the wire
        return a.ctypes.data


class CompiledFunction:
    """The batch entry points of one artifact's loaded shared object."""

    def __init__(self, lib: ctypes.CDLL, sym: str, path: Path, levels: int):
        self.path = path
        self.levels = levels
        self._eval = lib[f"{sym}_batch_eval"]
        self._eval.argtypes = [_ptr, _i64, _int, _int, _ptr, _ptr, _ptr]
        self._eval.restype = None
        self._encode = lib[f"{sym}_batch_encode"]
        self._encode.argtypes = [_ptr, _i64, _int, _ptr, _ptr]
        self._encode.restype = None

    def evaluate(
        self, x: np.ndarray, level: int, mode: RoundingMode
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(bits, raw, values)`` for a batch, in one C pass."""
        self._check_level(level)
        x = np.ascontiguousarray(x, dtype=np.float64)
        n = x.size
        bits = np.empty(n, dtype=np.int64)
        raw = np.empty(n, dtype=np.float64)
        values = np.empty(n, dtype=np.float64)
        if n:
            self._eval(
                _address(x), n, level, MODE_CODES[mode],
                _address(bits), _address(raw), _address(values),
            )
        return bits, raw, values

    def encode(self, x: np.ndarray, level: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(enc, exact)``: RTZ encodings and the member mask."""
        self._check_level(level)
        x = np.ascontiguousarray(x, dtype=np.float64)
        n = x.size
        enc = np.empty(n, dtype=np.int64)
        exact = np.empty(n, dtype=np.bool_)
        if n:
            self._encode(_address(x), n, level, _address(enc), _address(exact))
        return enc, exact

    def _check_level(self, level: int) -> None:
        # The C indexes its per-level tables with it unchecked.
        if not 0 <= level < self.levels:
            raise ValueError(f"level {level} out of range [0, {self.levels})")

    def self_check(self, kernel) -> Optional[str]:
        """The first disagreement with the numpy ``kernel`` and vector
        rounding over a sample of member inputs per level and every
        mode, or ``None`` when everything is bit-identical."""
        for level, fmt in enumerate(kernel.pipeline.family.formats):
            if not supports_vector_rounding(fmt):
                continue
            count = 1 << fmt.total_bits
            enc = np.unique(np.linspace(
                0, count - 1, min(SELF_CHECK_INPUTS, count)
            ).astype(np.int64))
            xs = decode_bits_to_doubles(enc, fmt)
            got_enc, got_exact = self.encode(xs, level)
            want_enc, want_exact = round_doubles_to_bits_checked(
                xs, fmt, RoundingMode.RTZ
            )
            if not (np.array_equal(got_enc, want_enc)
                    and np.array_equal(got_exact, want_exact)):
                return f"encode differs at level {level}"
            want_raw = kernel(xs, level)
            for mode in RoundingMode:
                bits, raw, values = self.evaluate(xs, level, mode)
                want_bits = round_doubles_to_bits(want_raw, fmt, mode)
                want_values = decode_bits_to_doubles(want_bits, fmt)
                for name, got, want in (
                    ("bits", bits, want_bits),
                    ("raw", raw.view(np.int64), want_raw.view(np.int64)),
                    ("values", values.view(np.int64),
                     want_values.view(np.int64)),
                ):
                    if not np.array_equal(got, want):
                        return (
                            f"{name} differ at level {level}, "
                            f"mode {mode.value}"
                        )
        return None


#: Self-checked kernels of this process, by build key.
_LOADED: Dict[str, CompiledFunction] = {}
_LOCK = threading.Lock()


def load_compiled(kernel) -> CompiledFunction:
    """The self-checked compiled twin of a numpy
    :class:`~repro.libm.vectorized.VectorizedFunction` (the self-check's
    reference), built on a cache miss; raises
    :class:`CompiledUnavailable` with the reason when there is no usable
    one."""
    compiler = find_compiler()
    if compiler is None:
        raise CompiledUnavailable("no gcc on PATH")
    pipeline, gen = kernel.pipeline, kernel.generated
    source = emit_batch_source(pipeline, gen)
    with _LOCK:
        key = build_key(source, compiler_version(compiler))
        loaded = _LOADED.get(key)
        if loaded is not None:
            return loaded
        try:
            path = cache_dir() / f"{key}.so"
            path.parent.mkdir(parents=True, exist_ok=True)
        except (OSError, RuntimeError) as e:  # RuntimeError: no home dir
            raise CompiledUnavailable(f"no kernel cache directory: {e}")
        lib = _open_cached(path) or _build(compiler, source, path)
        loaded = CompiledFunction(
            lib, _symbol(pipeline, gen), path, pipeline.family.levels
        )
        mismatch = loaded.self_check(kernel)
        if mismatch is not None:
            raise CompiledUnavailable(f"self-check failed: {mismatch}")
        _LOADED[key] = loaded
        return loaded
