"""Dense precomputed result tables for small formats (``.tbl`` artifacts).

The progressive polynomials exist to make correctly rounded results
cheap at lookup time; for small target formats the logical endpoint is
to pay the polynomial cost *once, offline*.  A bfloat16 input space is
65536 encodings and tensorfloat32 is 2^19 — small enough that the whole
function is a dense array of result bit patterns indexed by the input's
own encoding, and serving becomes one ``np.take`` on a memory-mapped
array (the serve layer's ``table`` tier, :mod:`repro.serve.tiers`).

A ``.tbl`` file is one function at one ``(format, rounding-mode)``:

.. code-block:: text

    offset  size       field
    0       4          magic  b"RTBL"
    4       2          version (1), unsigned little-endian
    6       2          meta length, unsigned little-endian
    8       meta_len   meta JSON (UTF-8 object, see below)
    ...     pad        zero bytes up to the 64-byte aligned body offset
    body    count*w    result bit patterns, little-endian uint16/uint32

The meta object carries ``fn``, ``family``, ``format`` (display name),
``total_bits``, ``exponent_bits``, ``level``, ``mode``, ``dtype``
(``"<u2"`` or ``"<u4"``), ``count`` (always ``2**total_bits``),
``artifact_sha256`` (fingerprint of the generating JSON artifact — a
table whose artifact was regenerated is *stale* and must not serve) and
``body_crc32`` (integrity check, verified on open).  The 64-byte body
alignment keeps the mmap'd array cache-line aligned.

Tables are built by :func:`build_table` through the same vectorized
runtime the serve vector tier runs (`kernel` sweep + ``vround``
rounding), so table results are bit-identical to the vector tier *by
construction*; ``verify=True`` (the default) re-reads the written file
and re-checks every entry.  Writes are atomic (tmp file + ``os.replace``)
so a killed build never leaves a half-written table where the serving
discovery would find it.

Corrupt tables are quarantined with the same idiom as the oracle cache
(:mod:`repro.parallel.cache`): renamed to ``<name>.corrupt-<stamp>`` and
the caller degrades to the polynomial tiers.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

import numpy as np

from ..fp.format import FPFormat
from ..fp.rounding import RoundingMode
from ..resilience.checkpoint import fsync_dir, quarantine_file
from .artifacts import ARTIFACT_DIR, load_generated
from .vectorized import VectorizedFunction
from .vround import (
    decode_bits_to_doubles,
    round_doubles_to_bits,
    supports_vector_rounding,
)

MAGIC = b"RTBL"
VERSION = 1
_HEAD = struct.Struct("<4sHH")
#: Body offset alignment (cache line).
ALIGN = 64
#: Largest total_bits a dense table will cover (2^24 entries = 64 MiB of
#: uint32 — tensorfloat32's 2^19 sits well inside; float32 does not).
MAX_TABLE_BITS = 24


class TableError(RuntimeError):
    """A ``.tbl`` file that cannot be built or used."""


class TableCorrupt(TableError):
    """Structural damage: bad magic/header, truncated body, CRC mismatch."""


class TableStale(TableError):
    """The table was built from a different artifact than the one loaded
    (``artifact_sha256`` mismatch).  The file is intact — it is simply
    not the answer to the question being asked — so it is *not*
    quarantined; rebuild it with :func:`build_table`."""


def table_dtype(fmt: FPFormat) -> str:
    """The body element dtype string for a format's bit patterns."""
    return "<u2" if fmt.total_bits <= 16 else "<u4"


def table_path(
    fn: str,
    family: str,
    fmt: FPFormat,
    mode: RoundingMode,
    directory: Optional[Union[str, Path]] = None,
) -> Path:
    """Where a table lives: ``<family>_<fn>.<format>.<mode>.tbl`` next to
    the JSON artifacts (same directory convention as
    :func:`~repro.libm.artifacts.load_generated`)."""
    directory = Path(directory or ARTIFACT_DIR)
    return directory / (
        f"{family}_{fn}.{fmt.display_name.lower()}.{mode.value}.tbl"
    )


def artifact_fingerprint(
    fn: str, family: str, directory: Optional[Union[str, Path]] = None
) -> str:
    """SHA-256 of the generating artifact's JSON bytes.

    Artifacts are byte-reproducible (same inputs → same file), so this
    pins a table to the exact polynomial it memoizes; a regenerated
    artifact changes the fingerprint and existing tables go stale.
    """
    path = Path(directory or ARTIFACT_DIR) / f"{family}_{fn}.json"
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
class LoadedTable:
    """One opened ``.tbl``: validated meta + the mmap'd result array.

    ``data`` is a read-only ``np.memmap`` — the OS page cache shares the
    pages between every process that maps the same file, so a fleet of
    workers serving one table costs one copy of it in memory.
    """

    __slots__ = ("path", "meta", "data", "_values")

    def __init__(self, path: Path, meta: dict, data: np.ndarray):
        self.path = path
        self.meta = meta
        self.data = data
        self._values = None

    @property
    def nbytes(self) -> int:
        """Bytes of table body mapped."""
        return int(self.data.nbytes)

    def lookup(self, enc) -> np.ndarray:
        """Result bit patterns (int64) for an array of input encodings."""
        return self.data.take(enc).astype(np.int64)

    def decoded(self, fmt: FPFormat) -> np.ndarray:
        """The whole body decoded to doubles, materialized once.

        Dense tables memoize the polynomial; this memoizes the decode as
        well, so serving a batch is two ``np.take`` calls (bits + values)
        with no per-batch :func:`decode_bits_to_doubles` pass.  Costs
        ``count * 8`` bytes of private memory per opened table (512 KiB
        for bfloat16), paid on first use.
        """
        if self._values is None:
            self._values = decode_bits_to_doubles(
                self.data[:].astype(np.int64), fmt
            )
        return self._values

    def lookup_values(self, enc, fmt: FPFormat) -> np.ndarray:
        """Decoded result doubles for an array of input encodings."""
        return self.decoded(fmt).take(enc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        m = self.meta
        return (
            f"LoadedTable({m['family']}/{m['fn']} {m['format']}/{m['mode']}, "
            f"{m['count']} entries)"
        )


def read_table_meta(path: Union[str, Path]) -> dict:
    """The header meta of a ``.tbl`` file (cheap: no body read).

    Raises :class:`TableCorrupt` on structural damage.
    """
    path = Path(path)
    with open(path, "rb") as f:
        head = f.read(_HEAD.size)
        if len(head) != _HEAD.size:
            raise TableCorrupt(f"{path.name}: truncated header")
        magic, version, meta_len = _HEAD.unpack(head)
        if magic != MAGIC:
            raise TableCorrupt(f"{path.name}: bad magic {magic!r}")
        if version != VERSION:
            raise TableCorrupt(f"{path.name}: unsupported version {version}")
        blob = f.read(meta_len)
    if len(blob) != meta_len:
        raise TableCorrupt(f"{path.name}: truncated meta")
    try:
        meta = json.loads(blob)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise TableCorrupt(f"{path.name}: bad meta JSON: {e}") from None
    if not isinstance(meta, dict):
        raise TableCorrupt(f"{path.name}: meta is not an object")
    for key in ("fn", "family", "format", "dtype", "count", "body_crc32"):
        if key not in meta:
            raise TableCorrupt(f"{path.name}: meta missing {key!r}")
    return meta


def _body_offset(meta_len: int) -> int:
    raw = _HEAD.size + meta_len
    return (raw + ALIGN - 1) // ALIGN * ALIGN


def open_table(
    path: Union[str, Path],
    *,
    expect_fingerprint: Optional[str] = None,
) -> LoadedTable:
    """Validate and memory-map one ``.tbl`` file.

    Checks header structure, body size, and the body CRC32; when
    ``expect_fingerprint`` is given, also pins the table to that
    artifact fingerprint.  Raises :class:`TableCorrupt` (quarantine me)
    or :class:`TableStale` (rebuild me); a table that passes is safe to
    serve for the process lifetime.
    """
    path = Path(path)
    meta = read_table_meta(path)
    meta_len = len(json.dumps(meta, separators=(",", ":")).encode())
    # The header records its own meta length; re-read it rather than
    # trusting the round trip above (key order could differ).
    with open(path, "rb") as f:
        _, _, meta_len = _HEAD.unpack(f.read(_HEAD.size))
    offset = _body_offset(meta_len)
    dtype = np.dtype(meta["dtype"])
    count = int(meta["count"])
    want = offset + count * dtype.itemsize
    size = path.stat().st_size
    if size != want:
        raise TableCorrupt(
            f"{path.name}: body size {size - offset} != "
            f"{count * dtype.itemsize} ({count} x {dtype.itemsize} bytes)"
        )
    data = np.memmap(path, dtype=dtype, mode="r", offset=offset, shape=(count,))
    crc = zlib.crc32(data.tobytes())
    if crc != int(meta["body_crc32"]):
        raise TableCorrupt(
            f"{path.name}: body CRC {crc:#010x} != recorded "
            f"{int(meta['body_crc32']):#010x}"
        )
    if expect_fingerprint is not None and meta.get("artifact_sha256") != (
        expect_fingerprint
    ):
        raise TableStale(
            f"{path.name}: built from artifact "
            f"{str(meta.get('artifact_sha256'))[:12]}…, loaded artifact is "
            f"{expect_fingerprint[:12]}…"
        )
    table = LoadedTable(path, meta, data)
    _record_mapped(table)
    return table


def quarantine_table(path: Union[str, Path], reason: str) -> Path:
    """Move a damaged table aside (``<name>.corrupt-<stamp>``) so serving
    discovery stops tripping over it; mirrors the oracle-cache idiom."""
    return quarantine_file(path, reason, "table")


def _record_mapped(table: LoadedTable) -> None:
    """Surface the mapped bytes as a ``repro_table_bytes_mapped`` gauge."""
    from ..obs import get_registry

    m = table.meta
    get_registry().gauge(
        "repro_table_bytes_mapped",
        help="bytes of precomputed .tbl result tables memory-mapped",
        family=str(m["family"]),
        fn=str(m["fn"]),
        fmt=str(m["format"]),
    ).set(table.nbytes)


# ----------------------------------------------------------------------
# Building
# ----------------------------------------------------------------------
def _resolve_format(config, fmt=None, level=None):
    """``(level, FPFormat)`` within one family config (local mirror of the
    serve-layer resolver; this module must not import ``repro.serve``)."""
    if fmt is not None and level is not None:
        raise ValueError("pass either fmt or level, not both")
    if fmt is None and level is None:
        level = config.levels - 1
    if isinstance(fmt, int):
        level, fmt = fmt, None
    if level is not None:
        if not 0 <= level < config.levels:
            raise ValueError(
                f"level {level} out of range for {config.levels}-level "
                f"family {config.name!r}"
            )
        return level, config.formats[level]
    if isinstance(fmt, str):
        want = fmt.lower()
        for lvl, f in enumerate(config.formats):
            if f.display_name.lower() == want:
                return lvl, f
        raise ValueError(
            f"unknown format {fmt!r}; family {config.name!r} has "
            f"{sorted(f.display_name.lower() for f in config.formats)}"
        )
    for lvl, f in enumerate(config.formats):
        if f == fmt:
            return lvl, f
    raise ValueError(f"{fmt} is not a member of the {config.name!r} family")


def write_table(path: Union[str, Path], meta: dict, bits: np.ndarray) -> Path:
    """Atomically write one ``.tbl`` file from finished result patterns."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    body = np.ascontiguousarray(bits.astype(np.dtype(meta["dtype"])))
    meta = dict(meta, body_crc32=zlib.crc32(body.tobytes()))
    blob = json.dumps(meta, separators=(",", ":")).encode()
    if len(blob) > 0xFFFF:
        raise TableError(f"table meta of {len(blob)} bytes exceeds 64 KiB")
    offset = _body_offset(len(blob))
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    with open(tmp, "wb") as f:
        f.write(_HEAD.pack(MAGIC, VERSION, len(blob)))
        f.write(blob)
        f.write(b"\0" * (offset - _HEAD.size - len(blob)))
        f.write(body.tobytes())
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)
    return path


def build_table(
    fn: str,
    family,
    *,
    fmt: Optional[Union[str, int, FPFormat]] = None,
    level: Optional[int] = None,
    mode: Union[str, RoundingMode] = RoundingMode.RNE,
    directory: Optional[Union[str, Path]] = None,
    out_dir: Optional[Union[str, Path]] = None,
    chunk: int = 1 << 16,
    verify: bool = True,
    progress=None,
) -> Path:
    """Exhaustively evaluate ``fn`` over every encoding of a small format
    and write the dense ``.tbl`` result table.

    The sweep runs the *same* computation as the serve vector tier — the
    numpy kernel followed by the vectorized rounding — over
    ``decode(enc)`` for every encoding, so the table is bit-identical to
    the vector tier by construction.  ``verify=True`` re-opens the
    written file (full CRC + mmap) and re-checks every entry against the
    in-memory sweep.  Returns the written path.

    ``directory`` is where the JSON artifact is loaded from; ``out_dir``
    defaults to the same place so serving discovery finds the sidecar.
    """
    from ..funcs import FAMILY_CONFIGS, FamilyConfig, make_pipeline
    from ..obs import span as obs_span

    config = family if isinstance(family, FamilyConfig) else FAMILY_CONFIGS[family]
    level, fmt = _resolve_format(config, fmt, level)
    if isinstance(mode, str):
        mode = RoundingMode(mode.lower())
    if fmt.total_bits > MAX_TABLE_BITS:
        raise TableError(
            f"{fmt.display_name} has 2^{fmt.total_bits} encodings; dense "
            f"tables stop at 2^{MAX_TABLE_BITS} — use the polynomial tiers"
        )
    if not supports_vector_rounding(fmt):
        raise TableError(
            f"{fmt.display_name} is outside the vector-rounding envelope"
        )
    gen = load_generated(fn, config.name, directory)
    pipe = make_pipeline(fn, config)
    kernel = VectorizedFunction(pipe, gen)
    count = 1 << fmt.total_bits
    bits = np.empty(count, dtype=np.int64)
    with obs_span(
        "tables.build", fn=fn, family=config.name, fmt=fmt.display_name
    ):
        for start in range(0, count, chunk):
            stop = min(start + chunk, count)
            enc = np.arange(start, stop, dtype=np.int64)
            xs = decode_bits_to_doubles(enc, fmt)
            raw = kernel(xs, level)
            bits[start:stop] = round_doubles_to_bits(raw, fmt, mode)
            if progress is not None:
                progress(stop, count)
        meta = {
            "fn": fn,
            "family": config.name,
            "format": fmt.display_name,
            "total_bits": fmt.total_bits,
            "exponent_bits": fmt.exponent_bits,
            "level": level,
            "mode": mode.value,
            "dtype": table_dtype(fmt),
            "count": count,
            "artifact_sha256": artifact_fingerprint(
                fn, config.name, directory
            ),
        }
        path = write_table(
            table_path(fn, config.name, fmt, mode, out_dir or directory),
            meta,
            bits,
        )
        if verify:
            table = open_table(
                path, expect_fingerprint=meta["artifact_sha256"]
            )
            if not np.array_equal(
                table.data.astype(np.int64), bits
            ):  # pragma: no cover - would mean a broken write path
                raise TableError(f"{path.name}: verification sweep mismatch")
    return path


# ----------------------------------------------------------------------
# Discovery
# ----------------------------------------------------------------------
def available_tables(
    directory: Optional[Union[str, Path]] = None,
) -> List[Dict[str, object]]:
    """Header meta of every readable ``.tbl`` in a directory (corrupt
    files are reported with an ``error`` key, never raised)."""
    directory = Path(directory or ARTIFACT_DIR)
    out: List[Dict[str, object]] = []
    if not directory.is_dir():
        return out
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".tbl"):
            continue
        path = directory / name
        try:
            meta = dict(read_table_meta(path))
        except TableError as e:
            meta = {"error": str(e)}
        meta["path"] = str(path)
        out.append(meta)
    return out


def iter_table_paths(
    directory: Optional[Union[str, Path]] = None,
) -> Iterator[Path]:
    """Paths of every ``*.tbl`` file in a directory (no validation)."""
    directory = Path(directory or ARTIFACT_DIR)
    if not directory.is_dir():
        return
    for name in sorted(os.listdir(directory)):
        if name.endswith(".tbl"):
            yield directory / name
