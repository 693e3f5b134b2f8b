"""Columnar binary cache: parse the CSV once, mmap it forever after.

A *re*-audit of an unchanged file — the common monitoring case: new
estimator, new metric, new subset of workers — needs the file's codes
again, not its text. What skipping the text buys, measured by
perfbench's ``audit_csv`` (150,000 census rows, 2,400 groups, 500
posterior draws; 2-vCPU VM, medians of 10 runs): the cold serial audit
takes 523 ms and the warm re-audit over this cache 339 ms. In traced
runs the cold audit's CSV parse — :mod:`repro.tabular.csv_io`'s coded
reader, which parses each distinct line once — takes 189 ms and its
count 9 ms, against 13 ms to open this cache and 10 ms to count from it;
the subset and posterior sweeps, which both audits run, take the rest.
A build costs 0.22 s, so the cache has paid for itself by the second
audit that reads it. This module keeps the parse's result in a packed,
mmap-able binary file (suffix ``.rccol``):

File layout (all integers little-endian, preamble identical in spirit
to the ``.rcpk`` checkpoint format)::

    offset  size  field
    0       4     magic  b"RCOL"
    4       2     format version (currently 1)
    6       4     header length in bytes
    10      4     CRC32 of the header bytes
    14      8     payload length in bytes
    22      4     CRC32 of the payload bytes
    26      ...   header: UTF-8 JSON (source fingerprint, parse options,
                  per-column level tables and payload offsets)
    ...     ...   payload: per-column int32 code arrays, C order

Each selected column is **dictionary-factorised across the whole
file**: the header carries its level table (in the same canonical
sorted order :meth:`Column.categorical` would infer) and the payload
carries one int32 code per row. Readers :func:`mmap.mmap` the file and
take :func:`numpy.frombuffer` views — a chunk, a worker's row range, or
the whole file costs a slice, not a parse, and independent worker
processes share the page cache instead of each re-reading text.

Bit-identity with the parse path is a construction property, not a
hope: a chunk rebuilt from the cache selects the levels *present* in
its rows via :func:`numpy.unique` — and because the global table is
canonically sorted, that subset is exactly the sorted-distinct level
list :meth:`CsvPlan.build_chunk` infers for the same rows. Identical
chunk tables in, identical counts, traces, and reports out.

Staleness is a hard error. The header records the source file's size,
``mtime_ns``, and a CRC of its prologue bytes, plus the parse options
(projection, delimiter, missing-token handling) that shaped the codes.
:meth:`ColumnCache.open` re-checks all of it and raises
:class:`repro.exceptions.CacheError` on any mismatch — an audit must
never silently describe yesterday's file. :func:`ensure_column_cache`
is the convenience wrapper that rebuilds on *stale* (or missing) caches
but still refuses *corrupt* ones.
"""

from __future__ import annotations

import dataclasses
import json
import mmap
import os
import struct
import zlib
from collections.abc import Iterator
from pathlib import Path
from typing import Any

import numpy as np

from repro.exceptions import CacheError, CsvParseError
from repro.tabular.csv_io import (
    _coded_column,
    _narrowed_column,
    iter_csv_chunks,
)
from repro.tabular.schema import Schema
from repro.tabular.table import Table

__all__ = [
    "COLCACHE_MAGIC",
    "COLCACHE_SUFFIX",
    "COLCACHE_VERSION",
    "ColumnCache",
    "build_column_cache",
    "ensure_column_cache",
]

COLCACHE_MAGIC = b"RCOL"
COLCACHE_VERSION = 1
COLCACHE_SUFFIX = ".rccol"

# magic, version, header_len, header_crc, payload_len, payload_crc —
# the same preamble struct the .rcpk checkpoints use.
_PREAMBLE = struct.Struct("<4sHIIQI")

# Rows factorised per batch while building (bounds peak string memory).
_BUILD_CHUNK_ROWS = 65536


def _canonical_key(level: Any):
    """The level sort key :meth:`Column.categorical` uses for inference."""
    return (str(type(level)), str(level))


def _source_fingerprint(source_path: Path, data_offset: int) -> dict[str, Any]:
    """What must match for the cache to still describe ``source_path``.

    Size and mtime catch appends, truncations, and rewrites cheaply; the
    prologue CRC (the bytes before the first data row — comments plus
    the header line) catches a same-size header edit and anchors the
    fingerprint to actual content, not just stat metadata.
    """
    stat = source_path.stat()
    with source_path.open("rb") as handle:
        prologue = handle.read(data_offset)
    return {
        "size": stat.st_size,
        "mtime_ns": stat.st_mtime_ns,
        "data_offset": int(data_offset),
        "prologue_crc": zlib.crc32(prologue),
    }


def _plan_options(plan) -> dict[str, Any]:
    """The parse options that shaped the cached codes.

    The schema is deliberately excluded: the cache stores the *raw
    projected strings* (factorised), and any schema is applied at read
    time — so one cache serves schemaless and schema'd consumers alike.
    """
    return {
        "names": list(plan.names),
        "selected": list(plan.selected),
        "delimiter": plan.delimiter,
        "missing_token": plan.missing_token,
        "missing_replacement": plan.missing_replacement,
        "skip_comment_prefix": plan.skip_comment_prefix,
    }


def _write_atomic(path: Path, blob: bytes) -> None:
    """tmp-write, fsync, rename — a reader never sees a torn cache."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def build_column_cache(
    source_path: str | Path,
    plan,
    cache_path: str | Path,
    *,
    chunk_rows: int = _BUILD_CHUNK_ROWS,
) -> Path:
    """Parse ``source_path`` once under ``plan`` and write the cache.

    One streaming pass: :func:`iter_csv_chunks` parses bounded chunks
    (each distinct line once, or on its row path), each chunk column's
    levels are remapped into a growing global level table — a loop over
    the chunk's levels, not its rows, and the same whichever path read
    the chunk — and the global tables are canonically sorted at the end
    with one vectorised code remap per column. The write is atomic.
    """
    source_path = Path(source_path)
    cache_path = Path(cache_path)
    # The cache stores raw projected *strings*; any schema is applied at
    # read time, so one cache serves schemaless and schema'd consumers.
    raw_plan = dataclasses.replace(plan, schema=None)
    names = raw_plan.selected_names
    level_index: list[dict[Any, int]] = [{} for _ in names]
    levels: list[list[Any]] = [[] for _ in names]
    parts: list[list[np.ndarray]] = [[] for _ in names]
    n_rows = 0
    # Fingerprint before reading data: if the file is appended mid-build
    # the parse sees the new rows and the fingerprint records the old
    # stat, so the very next open flags the cache stale — fail-safe.
    fingerprint = _source_fingerprint(source_path, raw_plan.data_offset)
    for chunk in iter_csv_chunks(source_path, chunk_rows, plan=raw_plan):
        n_rows += chunk.n_rows
        for position, name in enumerate(names):
            column = chunk.column(name)
            index = level_index[position]
            table = levels[position]
            lut = np.empty(len(column.levels), dtype=np.int32)
            for code, level in enumerate(column.levels):
                slot = index.get(level)
                if slot is None:
                    slot = index[level] = len(table)
                    table.append(level)
                lut[code] = slot
            parts[position].append(lut[column.codes])

    columns_meta: list[dict[str, Any]] = []
    payload_parts: list[bytes] = []
    offset = 0
    for position, name in enumerate(names):
        order = sorted(range(len(levels[position])),
                       key=lambda code: _canonical_key(levels[position][code]))
        perm = np.empty(len(order), dtype=np.int32)
        for new_code, old_code in enumerate(order):
            perm[old_code] = new_code
        codes = (
            perm[np.concatenate(parts[position])]
            if parts[position]
            else np.empty(0, dtype=np.int32)
        ).astype("<i4", copy=False)
        blob = codes.tobytes()
        columns_meta.append(
            {
                "name": name,
                "levels": [levels[position][code] for code in order],
                "offset": offset,
            }
        )
        payload_parts.append(blob)
        offset += len(blob)

    header = json.dumps(
        {
            "source": fingerprint,
            "plan": _plan_options(plan),
            "n_rows": n_rows,
            "columns": columns_meta,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    payload = b"".join(payload_parts)
    blob = (
        _PREAMBLE.pack(
            COLCACHE_MAGIC,
            COLCACHE_VERSION,
            len(header),
            zlib.crc32(header),
            len(payload),
            zlib.crc32(payload),
        )
        + header
        + payload
    )
    _write_atomic(cache_path, blob)
    return cache_path


class ColumnCache:
    """An opened, validated ``.rccol`` file: mmap'd codes + level tables."""

    def __init__(self, path: Path, header: dict[str, Any], mapping: mmap.mmap,
                 payload_offset: int):
        self._path = path
        self._mm = mapping
        self._n_rows = int(header["n_rows"])
        self._plan_options = dict(header["plan"])
        self._source = dict(header["source"])
        self._levels: dict[str, tuple[Any, ...]] = {}
        self._codes: dict[str, np.ndarray] = {}
        self._names: tuple[str, ...] = tuple(
            meta["name"] for meta in header["columns"]
        )
        for meta in header["columns"]:
            codes = np.frombuffer(
                mapping,
                dtype="<i4",
                count=self._n_rows,
                offset=payload_offset + int(meta["offset"]),
            )
            self._levels[meta["name"]] = tuple(meta["levels"])
            self._codes[meta["name"]] = codes

    # ------------------------------------------------------------------
    # Opening and validation
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        path: str | Path,
        *,
        source_path: str | Path | None = None,
        plan=None,
    ) -> "ColumnCache":
        """Open and fully validate a cache file.

        Magic, version, and both CRCs are always checked (truncation and
        bit rot raise :class:`CacheError`). When ``source_path`` is
        given the recorded source fingerprint is re-verified against the
        live file — any drift (append, rewrite, header edit) raises with
        ``reason="stale"``. When ``plan`` is given the recorded parse
        options must match too (``reason="plan"``): codes produced under
        a different projection or delimiter describe different rows.
        """
        path = Path(path)
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            raise CacheError(
                f"column cache {path} does not exist", reason="missing"
            ) from None
        if size < _PREAMBLE.size:
            raise CacheError(
                f"column cache {path} is truncated: {size} bytes is smaller "
                f"than the {_PREAMBLE.size}-byte preamble",
                reason="truncated",
            )
        with path.open("rb") as handle:
            mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        try:
            magic, version, header_len, header_crc, payload_len, payload_crc = (
                _PREAMBLE.unpack_from(mapping, 0)
            )
            if magic != COLCACHE_MAGIC:
                raise CacheError(
                    f"{path} is not a column cache (magic {magic!r})",
                    reason="magic",
                )
            if version != COLCACHE_VERSION:
                raise CacheError(
                    f"column cache {path} has format version {version}; this "
                    f"library reads version {COLCACHE_VERSION}",
                    reason="version",
                )
            header_start = _PREAMBLE.size
            payload_start = header_start + header_len
            if size < payload_start + payload_len:
                raise CacheError(
                    f"column cache {path} is truncated: preamble promises "
                    f"{payload_start + payload_len} bytes, file has {size}",
                    reason="truncated",
                )
            header_bytes = bytes(mapping[header_start:payload_start])
            if zlib.crc32(header_bytes) != header_crc:
                raise CacheError(
                    f"column cache {path} header failed its CRC check",
                    reason="crc",
                )
            if (
                zlib.crc32(mapping[payload_start : payload_start + payload_len])
                != payload_crc
            ):
                raise CacheError(
                    f"column cache {path} payload failed its CRC check",
                    reason="crc",
                )
            try:
                header = json.loads(header_bytes)
            except ValueError:
                raise CacheError(
                    f"column cache {path} header is not valid JSON",
                    reason="crc",
                ) from None
            cache = cls(path, header, mapping, payload_start)
        except Exception:
            mapping.close()
            raise
        try:
            if source_path is not None:
                cache.verify_source(source_path)
            if plan is not None:
                cache.verify_plan(plan)
        except Exception:
            cache.close()
            raise
        return cache

    def verify_source(self, source_path: str | Path) -> None:
        """Raise ``CacheError(reason="stale")`` unless the source matches."""
        source_path = Path(source_path)
        recorded = self._source
        try:
            live = _source_fingerprint(
                source_path, int(recorded["data_offset"])
            )
        except FileNotFoundError:
            raise CacheError(
                f"column cache {self._path} points at {source_path}, which "
                "no longer exists",
                reason="stale",
            ) from None
        for field in ("size", "mtime_ns", "prologue_crc"):
            if live[field] != recorded[field]:
                raise CacheError(
                    f"column cache {self._path} is stale: source "
                    f"{source_path} {field} changed from "
                    f"{recorded[field]!r} to {live[field]!r} — rebuild the "
                    "cache rather than audit outdated rows",
                    reason="stale",
                )

    def verify_plan(self, plan) -> None:
        """Raise ``CacheError(reason="plan")`` unless parse options match."""
        live = _plan_options(plan)
        if live != self._plan_options:
            diff = [
                key
                for key in live
                if live[key] != self._plan_options.get(key)
            ]
            raise CacheError(
                f"column cache {self._path} was built under different parse "
                f"options (differing: {diff}); its codes do not describe "
                "this plan's rows",
                reason="plan",
            )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def column_names(self) -> tuple[str, ...]:
        return self._names

    @property
    def path(self) -> Path:
        return self._path

    def levels(self, name: str) -> tuple[Any, ...]:
        """The column's global level table, canonically sorted."""
        return self._levels[name]

    def codes(self, name: str) -> np.ndarray:
        """Zero-copy int32 code view over the whole file (read-only)."""
        return self._codes[name]

    def table_slice(
        self, start: int, stop: int, *, schema: Schema | None = None
    ) -> Table:
        """Rows ``[start, stop)`` as a chunk :class:`Table`.

        Levels are narrowed to those *present* in the slice, in global
        (canonical) order — byte-identical to what
        :meth:`CsvPlan.build_chunk` infers for the same rows, which is
        what keeps cached ingestion bit-identical to parsed ingestion
        chunk by chunk, not just in aggregate. Schema-covered columns
        are decoded to their raw strings and rebuilt through the
        schema's own parser, exactly as the CSV path does.
        """
        start = max(0, int(start))
        stop = min(self._n_rows, int(stop))
        return Table(
            [
                _narrowed_column(
                    name, self._codes[name][start:stop], self._levels[name], schema
                )
                for name in self._names
            ]
        )

    def chunk_tables(
        self,
        chunk_rows: int,
        *,
        schema: Schema | None = None,
        skip_rows: int = 0,
    ) -> Iterator[Table]:
        """Ordered chunk tables, matching the serial CSV chunk boundaries."""
        if chunk_rows < 1:
            raise CsvParseError(f"chunk_rows must be >= 1, got {chunk_rows}")
        if skip_rows < 0:
            raise CsvParseError(f"skip_rows must be >= 0, got {skip_rows}")
        if self._n_rows == 0 and skip_rows == 0:
            raise CsvParseError("no data rows found")
        for start in range(skip_rows, self._n_rows, chunk_rows):
            yield self.table_slice(
                start, start + chunk_rows, schema=schema
            )

    def full_table(self, *, schema: Schema | None = None) -> Table:
        """The whole file as one table with *global* level tables.

        The fast path for one-shot counting: no per-chunk level
        narrowing, one gather per column. Counts built from it are
        integer-identical to the chunked path; only internal level
        order differs, which every canonical snapshot erases.
        """
        return Table(
            [
                _coded_column(name, self._codes[name], self._levels[name], schema)
                for name in self._names
            ]
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the mapping. NumPy views taken earlier become invalid."""
        self._codes.clear()
        try:
            self._mm.close()
        except BufferError:  # pragma: no cover - exported views still alive
            pass

    def __enter__(self) -> "ColumnCache":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ColumnCache({str(self._path)!r}, rows={self._n_rows}, "
            f"columns={list(self._names)})"
        )


def ensure_column_cache(
    source_path: str | Path,
    plan,
    cache_path: str | Path,
    *,
    chunk_rows: int = _BUILD_CHUNK_ROWS,
) -> ColumnCache:
    """Open a valid cache, (re)building it when missing or stale.

    The contract mirrors cache semantics everywhere else in the engine:
    *staleness* (source drifted, parse options changed) and *absence*
    are normal cache misses and trigger a rebuild; *corruption* (bad
    magic, CRC failure, truncation, future version) raises — silently
    regenerating over a damaged file would hide real storage problems.
    """
    try:
        return ColumnCache.open(cache_path, source_path=source_path, plan=plan)
    except CacheError as error:
        if error.reason not in ("missing", "stale", "plan"):
            raise
    build_column_cache(source_path, plan, cache_path, chunk_rows=chunk_rows)
    return ColumnCache.open(cache_path, source_path=source_path, plan=plan)
