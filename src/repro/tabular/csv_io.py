"""CSV reading and writing.

The reader understands the UCI Adult file conventions: comma separation
with optional surrounding whitespace, ``?`` for missing values, trailing
``.`` on labels in the test split, and a possible junk first line
(``|1x3 Cross validator``).

Streaming and sharding
----------------------
:func:`iter_csv_chunks` streams a file in bounded-memory chunks; it is
built on :class:`CsvPlan`, which resolves the header, the projection,
and the byte offset where data begins *once* so that serial readers,
resumed readers, and independent shard workers all parse identically.
:func:`plan_csv_shards` (even byte-range splits) and
:func:`plan_csv_chunks` (chunk-aligned splits from one cheap line scan)
produce :class:`CsvSpan` byte ranges that workers can open, seek, and
parse without any coordination — the substrate of
:mod:`repro.engine.backends`.

The coded reader
----------------
An audit depends only on counts, and a categorical file repeats its
lines: 150,000 census rows over 2,400 intersections hold at most 4,800
distinct lines. So the chunk reader behind :func:`iter_csv_chunks`, the
pool workers' span counts and the ``.rccol`` build parses each distinct
line once. It reads the data region in blocks of ``_BLOCK_BYTES``, keys
every raw line in a per-reader dictionary, runs the row rules
(:meth:`CsvPlan.iter_data_rows`: ``csv.reader``, stripping, blank and
comment lines, the width check, projection, missing tokens) on each new
line only, and builds a chunk's column codes with one ``numpy.take``
from its lines' codes, narrowed to the levels present in the order
:meth:`Column.categorical` gives them. Rows are numbered as data rows,
so a width error names the same row as on the row path, and chunk
tables equal :meth:`CsvPlan.build_chunk`'s.

The row path — ``csv.reader`` over the text, :meth:`CsvPlan.iter_data_rows`
and :meth:`CsvPlan.build_chunk` per chunk — stays the reference, and
the reader hands the rest of its stream to it in two cases:

* a block holding a quote character or a bare ``\\r``, where one line
  of bytes need not be one csv record;
* a block whose new lines are more than ``_NEW_LINE_SHARE`` of its
  lines (mostly-unique input, such as an unprojected ID column, where
  a new line costs more than the row path's row), or one that would
  take the dictionary past ``_MAX_DISTINCT_LINES``.

So a reader holds at most one block, ``_MAX_DISTINCT_LINES`` lines and
one chunk; on the row path it holds one chunk, whatever the file's
length.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import compress, repeat
from pathlib import Path
from typing import Any

import numpy as np

from repro.exceptions import CsvParseError
from repro.tabular.column import CATEGORICAL, Column
from repro.tabular.schema import Schema
from repro.tabular.table import Table

__all__ = [
    "CsvPlan",
    "CsvSpan",
    "read_csv",
    "write_csv",
    "read_csv_text",
    "iter_csv_chunks",
    "iter_span_rows",
    "plan_csv_chunks",
    "plan_csv_shards",
]


def read_csv(
    path: str | Path,
    *,
    schema: Schema | None = None,
    header: bool = True,
    column_names: Sequence[str] | None = None,
    delimiter: str = ",",
    missing_token: str = "?",
    missing_replacement: str | None = None,
    skip_comment_prefix: str | None = None,
) -> Table:
    """Read a CSV file into a :class:`Table`.

    Parameters
    ----------
    schema:
        When provided, columns are parsed to the declared kinds; otherwise
        kinds are inferred (numeric-looking columns become numeric).
    header:
        Whether the first (non-comment) line holds column names. When
        false, ``column_names`` must be given (or a schema supplies names).
    missing_token / missing_replacement:
        Cells equal to ``missing_token`` (after stripping) are replaced by
        ``missing_replacement``. The default ``None`` replacement keeps the
        token itself, which matches how the paper's case study treats the
        Adult dataset (``?`` is just another category).
    """
    text = Path(path).read_text(encoding="utf-8")
    return read_csv_text(
        text,
        schema=schema,
        header=header,
        column_names=column_names,
        delimiter=delimiter,
        missing_token=missing_token,
        missing_replacement=missing_replacement,
        skip_comment_prefix=skip_comment_prefix,
    )


def read_csv_text(
    text: str,
    *,
    schema: Schema | None = None,
    header: bool = True,
    column_names: Sequence[str] | None = None,
    delimiter: str = ",",
    missing_token: str = "?",
    missing_replacement: str | None = None,
    skip_comment_prefix: str | None = None,
) -> Table:
    """Parse CSV content from a string; see :func:`read_csv`."""
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    rows = [
        row
        for raw_row in reader
        if (row := _row_cells(raw_row, skip_comment_prefix)) is not None
    ]
    if not rows:
        raise CsvParseError("no data rows found")

    if header:
        names = rows[0]
        body = rows[1:]
    else:
        if column_names is not None:
            names = list(column_names)
        elif schema is not None:
            names = schema.names
        else:
            raise CsvParseError(
                "header=False requires column_names or a schema to supply names"
            )
        body = rows
    if not body:
        raise CsvParseError("CSV contains a header but no data rows")
    width = len(names)
    for line_number, row in enumerate(body, start=1):
        if len(row) != width:
            raise CsvParseError(
                f"row {line_number} has {len(row)} cells, expected {width}"
            )

    if missing_replacement is not None:
        body = [
            [missing_replacement if cell == missing_token else cell for cell in row]
            for row in body
        ]

    columns: list[Column] = []
    for index, name in enumerate(names):
        raw_values = [row[index] for row in body]
        if schema is not None and name in schema:
            columns.append(schema.field(name).build_column(raw_values))
        else:
            columns.append(_infer_column(name, raw_values))
    return Table(columns)


def _row_cells(raw_row: list[str], comment_prefix: str | None) -> list[str] | None:
    """A raw csv row's stripped cells; ``None`` for a blank line (no
    cells, or only empty ones) and for a comment line."""
    row = [cell.strip() for cell in raw_row]
    if not any(row) or (comment_prefix and row[0].startswith(comment_prefix)):
        return None
    return row


@dataclass(frozen=True)
class CsvPlan:
    """Resolved header, projection, and parse options for one CSV file.

    Built once (:meth:`from_csv`) and shared by every path that reads
    the file — the serial chunk iterator, resumed readers, and shard
    workers on other processes or machines — so all of them agree on
    column names, the projection, duplicate-name rejection, and the
    byte offset at which data begins. The plan is a plain picklable
    dataclass: it travels to pool workers inside their task.
    """

    names: tuple[str, ...]
    selected: tuple[int, ...]
    data_offset: int
    delimiter: str = ","
    missing_token: str = "?"
    missing_replacement: str | None = None
    skip_comment_prefix: str | None = None
    schema: Schema | None = None

    @classmethod
    def from_csv(
        cls,
        path: str | Path,
        *,
        schema: Schema | None = None,
        header: bool = True,
        column_names: Sequence[str] | None = None,
        delimiter: str = ",",
        missing_token: str = "?",
        missing_replacement: str | None = None,
        skip_comment_prefix: str | None = None,
        columns: Sequence[str] | None = None,
    ) -> "CsvPlan":
        """Resolve the header and projection by reading the file prologue.

        Only the leading blank/comment lines and (when ``header=True``)
        the header line are read; ``data_offset`` is the byte offset of
        the first data line, so any reader can ``seek`` straight to it.
        Duplicate header names raise :class:`CsvParseError` here — at
        plan time — rather than surfacing (or being silently masked by
        the projection) on the first parsed chunk.
        """
        names: list[str] | None = None
        if not header:
            if column_names is not None:
                names = list(column_names)
            elif schema is not None:
                names = schema.names
            else:
                raise CsvParseError(
                    "header=False requires column_names or a schema to "
                    "supply names"
                )
        with Path(path).open("rb") as handle:
            offset = 0
            while True:
                line = handle.readline()
                if not line:
                    raise CsvParseError("no data rows found")
                row = _row_cells(
                    next(csv.reader([line.decode("utf-8")], delimiter=delimiter), []),
                    skip_comment_prefix,
                )
                if row is None:
                    offset = handle.tell()
                    continue
                if names is None:  # this line is the header
                    names = row
                    offset = handle.tell()
                # else: this line is the first data row; offset already
                # points at its start.
                break
        duplicates = sorted(
            {name for name in names if names.count(name) > 1}
        )
        if duplicates:
            raise CsvParseError(
                f"duplicate column names {duplicates} in header {names}"
            )
        return cls(
            names=tuple(names),
            selected=tuple(_select_indices(list(names), columns)),
            data_offset=offset,
            delimiter=delimiter,
            missing_token=missing_token,
            missing_replacement=missing_replacement,
            skip_comment_prefix=skip_comment_prefix,
            schema=schema,
        )

    @property
    def selected_names(self) -> tuple[str, ...]:
        """Projected column names, in projection order."""
        return tuple(self.names[index] for index in self.selected)

    def iter_data_rows(
        self,
        reader: Iterable[list[str]],
        *,
        first_row_number: int = 1,
    ) -> Iterator[list[str]]:
        """Parse raw csv rows: skip blanks/comments, strip, validate
        width, project, and apply missing-token replacement."""
        width = len(self.names)
        number = first_row_number - 1
        for raw_row in reader:
            row = _row_cells(raw_row, self.skip_comment_prefix)
            if row is None:
                continue
            number += 1
            if len(row) != width:
                raise self._width_error(number, len(row))
            yield self._project(row)

    def _width_error(self, number: int, n_cells: int) -> CsvParseError:
        return CsvParseError(
            f"row {number} has {n_cells} cells, expected {len(self.names)}"
        )

    def _project(self, row: list[str]) -> list[str]:
        """Projection pushdown, then missing-token replacement."""
        # Unselected cells are dropped here, so buffers never hold more
        # than chunk_rows x len(selected).
        row = [row[index] for index in self.selected]
        if self.missing_replacement is not None:
            row = [
                self.missing_replacement if cell == self.missing_token else cell
                for cell in row
            ]
        return row

    def to_column_cache(
        self, source_path: str | Path, cache_path: str | Path
    ) -> Path:
        """Parse ``source_path`` once and write a ``.rccol`` column cache.

        The cache packs every selected column as a factorised level
        table plus an int32 code array (see
        :mod:`repro.tabular.colcache`); re-audits of the same source
        then skip CSV parsing entirely via :meth:`from_column_cache`.
        """
        from repro.tabular.colcache import build_column_cache

        return build_column_cache(source_path, self, cache_path)

    def from_column_cache(
        self,
        cache_path: str | Path,
        *,
        source_path: str | Path | None = None,
    ):
        """Open a ``.rccol`` cache built for this plan's parse options.

        Validates the cache's magic/version/CRCs and its recorded parse
        options against this plan; with ``source_path`` the source
        fingerprint (size, mtime, prologue bytes) is re-verified too.
        Any mismatch raises :class:`repro.exceptions.CacheError` — a
        stale cache is never read silently.
        """
        from repro.tabular.colcache import ColumnCache

        return ColumnCache.open(
            cache_path, source_path=source_path, plan=self
        )

    def build_chunk(self, rows: Sequence[Sequence[str]]) -> Table:
        """Build a chunk table from already-projected rows."""
        chunk_columns: list[Column] = []
        for position, name in enumerate(self.selected_names):
            raw_values = [row[position] for row in rows]
            if self.schema is not None and name in self.schema:
                chunk_columns.append(
                    self.schema.field(name).build_column(raw_values)
                )
            else:
                chunk_columns.append(Column.categorical(name, raw_values))
        return Table(chunk_columns)


def _coded_column(
    name: str, codes: np.ndarray, levels: Sequence[Any], schema: Schema | None
) -> Column:
    """A chunk column from level codes, as the CSV path would build it.

    ``codes`` index ``levels``. A column the schema covers is decoded to
    its raw strings and rebuilt through the schema's own parser; any
    other column is categorical over ``levels`` as given.
    """
    if schema is not None and name in schema:
        decoded = np.array(levels, dtype=object)[codes]
        return schema.field(name).build_column(decoded.tolist())
    return Column.from_codes(name, codes, levels)


def _narrowed_column(
    name: str, codes: np.ndarray, levels: Sequence[Any], schema: Schema | None
) -> Column:
    """A chunk column over only the ``levels`` its ``codes`` use.

    ``levels`` are in canonical order, so the present ones keep the
    order :meth:`Column.categorical` gives a chunk's raw values.
    """
    present, inverse = np.unique(codes, return_inverse=True)
    return _coded_column(name, inverse, [levels[code] for code in present], schema)


@dataclass(frozen=True)
class CsvSpan:
    """A byte range of a CSV file's data region, aligned to line starts.

    ``n_rows`` is the number of data lines the planner counted inside
    the span (known for chunk-aligned spans from :func:`plan_csv_chunks`,
    ``None`` for the pure byte splits of :func:`plan_csv_shards`).
    """

    start: int
    end: int
    n_rows: int | None = None


def iter_csv_chunks(
    path: str | Path,
    chunk_rows: int = 4096,
    *,
    schema: Schema | None = None,
    header: bool = True,
    column_names: Sequence[str] | None = None,
    delimiter: str = ",",
    missing_token: str = "?",
    missing_replacement: str | None = None,
    skip_comment_prefix: str | None = None,
    columns: Sequence[str] | None = None,
    plan: CsvPlan | None = None,
    skip_rows: int = 0,
):
    """Stream a CSV file as a sequence of :class:`Table` chunks.

    The file is read incrementally — at most ``chunk_rows`` data rows,
    one block and the coded reader's bounded line dictionary (see the
    module docstring) are held at a time — which is what lets the
    streaming audit subsystem (:class:`repro.audit.stream.StreamingAuditor`,
    the CLI's ``audit-stream``) ingest files far larger than memory.

    Columns covered by ``schema`` are parsed to their declared kinds;
    all other columns come out *categorical* (dictionary-encoded
    strings). Whole-file kind inference is deliberately not attempted:
    a chunk cannot see the rest of the file, and per-chunk inference
    could flip a column's kind between chunks. ``columns`` restricts
    each chunk to the named columns (a projection pushdown — unneeded
    cells are dropped during parsing).

    Header and projection resolution happen once, in a :class:`CsvPlan`
    (pass ``plan`` to reuse one that was already built — the remaining
    keyword options are then ignored). ``skip_rows`` skips that many
    already-ingested data rows before the first chunk, which is how
    checkpoint resume re-enters a stream; with ``skip_rows > 0`` an
    exhausted stream is *not* an error.

    Cell stripping and ``missing_token`` handling match
    :func:`read_csv`. Raises :class:`CsvParseError` on ragged rows, on
    unknown ``columns`` names, and — like :func:`read_csv` — when the
    file contains no data rows (after the generator is exhausted).
    """
    if chunk_rows < 1:
        raise CsvParseError(f"chunk_rows must be >= 1, got {chunk_rows}")
    if skip_rows < 0:
        raise CsvParseError(f"skip_rows must be >= 0, got {skip_rows}")
    if plan is None:
        plan = CsvPlan.from_csv(
            path,
            schema=schema,
            header=header,
            column_names=column_names,
            delimiter=delimiter,
            missing_token=missing_token,
            missing_replacement=missing_replacement,
            skip_comment_prefix=skip_comment_prefix,
            columns=columns,
        )
    yielded = False
    for chunk in _iter_chunks(
        path, plan, chunk_rows, start=plan.data_offset, skip_rows=skip_rows
    ):
        yield chunk
        yielded = True
    if not yielded and skip_rows == 0:
        raise CsvParseError("no data rows found")


# The coded reader reads this many bytes at a time.
_BLOCK_BYTES = 1 << 20
# A block whose new lines are more than this share of its lines goes to
# the row path. Timed in-process on census rows only (2-vCPU VM), a
# repeated line costs the coded reader 0.65 us and a new one about 7 us
# more, against 4-5.5 us a row on the row path, so break-even lies
# between about 0.48 and 0.69; no benchmark workload has mostly-unique
# lines to confirm the choice end to end.
_NEW_LINE_SHARE = 0.5
# Bounds the dictionary: about 215 bytes a line at the census files'
# 50-byte lines, so 7 MB.
_MAX_DISTINCT_LINES = 1 << 15


def _iter_chunks(
    path: str | Path,
    plan: CsvPlan,
    chunk_rows: int,
    *,
    start: int,
    end: int | None = None,
    skip_rows: int = 0,
) -> Iterator[Table]:
    """The coded reader: chunk tables of the data rows in ``[start, end)``.

    See the module docstring. ``end=None`` reads to the end of the file
    with the serial reader's row path, whose ``csv.reader`` also ends a
    record at a bare ``\\r``; a span's row path is
    :func:`iter_span_rows`'s. Data rows are numbered from 1 at ``start``,
    and ``skip_rows`` of them are read, checked and dropped first.
    """
    coder = _LineCoder(plan)
    width = len(plan.names)
    pending = np.empty(0, dtype=np.intp)  # line ids of rows not yet chunked
    number = 0  # data rows read, the skipped ones included
    offset = start  # the first byte not yet coded
    blocks = _line_blocks(path, start, end)
    try:
        for block in blocks:
            ids = coder.code(block)
            if ids is None:
                break
            offset += len(block)
            cells = coder.cells[ids]
            data = cells != 0
            rows = ids[data]
            ragged = np.flatnonzero(cells[data] != width)
            error = None
            if ragged.size:
                first = int(ragged[0])
                error = plan._width_error(
                    number + first + 1, int(coder.cells[rows[first]])
                )
                rows = rows[:first]
            number += len(rows)
            dropped = min(skip_rows, len(rows))
            skip_rows -= dropped
            pending = np.concatenate((pending, rows[dropped:]))
            while len(pending) >= chunk_rows:
                yield coder.table(pending[:chunk_rows])
                pending = pending[chunk_rows:]
            if error is not None:
                raise error
        else:
            if len(pending):
                yield coder.table(pending)
            return
    finally:
        blocks.close()
    # The row path takes the rest of the stream, from the block that
    # stopped the coded read; rows read before it still fill its chunks.
    buffer = coder.rows(pending)
    del coder, pending, block
    row_path = plan.iter_data_rows(
        csv.reader(_row_path_lines(path, offset, end), delimiter=plan.delimiter),
        first_row_number=number + 1,
    )
    for _ in range(skip_rows):
        if next(row_path, None) is None:
            break
    for row in row_path:
        buffer.append(row)
        if len(buffer) == chunk_rows:
            yield plan.build_chunk(buffer)
            buffer = []
    if buffer:
        yield plan.build_chunk(buffer)


class _LineCoder:
    """The coded reader's dictionary: each distinct raw line, parsed once.

    ``ids`` maps a raw line (bytes, without its ``\\n``) to a line id.
    ``cells[id]`` is the line's cell count, 0 for a blank or comment
    line. For a data line of the file's width, ``codes[id]`` holds its
    level code in each selected column: the level's place in that
    column's ``_level_ids``, which keeps levels in first-seen order.
    """

    def __init__(self, plan: CsvPlan):
        self.plan = plan
        self.ids: dict[bytes, int] = {}
        self.cells = np.empty(0, dtype=np.intp)
        self.codes = np.empty((0, len(plan.selected)), dtype=np.int32)
        self._level_ids: list[dict[str, int]] = [{} for _ in plan.selected]
        # Per column: each level code's place in canonical order, and the
        # levels in that order.
        self._ranks = [np.empty(0, dtype=np.int32) for _ in plan.selected]
        self._sorted: list[list[str]] = [[] for _ in plan.selected]

    def code(self, block: bytes) -> np.ndarray | None:
        """The line ids of ``block``'s lines, parsing its new lines once;
        ``None`` when the block goes to the row path instead."""
        if b'"' in block or (
            b"\r" in block and block.count(b"\r") != block.count(b"\r\n")
        ):
            return None
        lines = block.split(b"\n")
        if not lines[-1]:
            lines.pop()  # the empty string after the block's last \n
        ids = np.fromiter(
            map(self.ids.get, lines, repeat(-1)), dtype=np.intp, count=len(lines)
        )
        if ids.min() < 0:
            new = list(dict.fromkeys(compress(lines, ids < 0)))
            if (
                len(new) > _NEW_LINE_SHARE * len(lines)
                or len(self.ids) + len(new) > _MAX_DISTINCT_LINES
            ):
                return None
            self.add(new)
            ids = np.fromiter(
                map(self.ids.__getitem__, lines), dtype=np.intp, count=len(lines)
            )
        return ids

    def add(self, lines: list[bytes]) -> None:
        """Parse new ``lines`` under the row rules and give them ids."""
        plan = self.plan
        width = len(plan.names)
        cells = np.zeros(len(lines), dtype=np.intp)
        data: list[int] = []
        rows: list[list[str]] = []
        texts = [line.decode("utf-8") for line in lines]
        for position, raw_row in enumerate(
            csv.reader(texts, delimiter=plan.delimiter)
        ):
            row = _row_cells(raw_row, plan.skip_comment_prefix)
            if row is None:
                continue
            cells[position] = len(row)
            if len(row) == width:
                data.append(position)
                rows.append(plan._project(row))
        codes = np.zeros((len(lines), len(self._level_ids)), dtype=np.int32)
        for column, values in enumerate(zip(*rows)):
            index = self._level_ids[column]
            for value in dict.fromkeys(values):
                index.setdefault(value, len(index))
            codes[data, column] = list(map(index.__getitem__, values))
            if len(index) != len(self._sorted[column]):
                levels = list(index)
                order = sorted(range(len(levels)), key=levels.__getitem__)
                self._ranks[column] = np.empty(len(levels), dtype=np.int32)
                self._ranks[column][order] = np.arange(len(levels))
                self._sorted[column] = [levels[code] for code in order]
        for line in lines:
            self.ids[line] = len(self.ids)
        self.cells = np.concatenate((self.cells, cells))
        self.codes = np.concatenate((self.codes, codes))

    def table(self, ids: np.ndarray) -> Table:
        """The chunk of data rows whose line ids are ``ids``."""
        codes = self.codes[ids]
        return Table(
            [
                _narrowed_column(
                    name,
                    self._ranks[column][codes[:, column]],
                    self._sorted[column],
                    self.plan.schema,
                )
                for column, name in enumerate(self.plan.selected_names)
            ]
        )

    def rows(self, ids: np.ndarray) -> list[list[str]]:
        """The projected rows of ``ids``, as the row path yields them."""
        levels = [list(index) for index in self._level_ids]
        return [
            [column[code] for column, code in zip(levels, self.codes[line])]
            for line in ids
        ]


def _line_blocks(
    path: str | Path, start: int, end: int | None = None
) -> Iterator[bytes]:
    """Bytes ``[start, end)`` (``end=None``: to the end of the file) in
    blocks of whole lines, read ``_BLOCK_BYTES`` at a time.

    Every block but the last ends in ``\\n``. Cutting after ``\\n`` is
    byte-safe in UTF-8 (no multi-byte sequence contains ``0x0A``), so a
    block never splits a character.
    """
    with Path(path).open("rb") as handle:
        handle.seek(start)
        position = start
        tail = b""
        while end is None or position < end:
            size = _BLOCK_BYTES if end is None else min(_BLOCK_BYTES, end - position)
            block = handle.read(size)
            if not block:
                break
            position += len(block)
            data = tail + block
            cut = data.rfind(b"\n") + 1
            tail = data[cut:]
            if cut:
                yield data[:cut]
        if tail:
            yield tail


def _row_path_lines(path: str | Path, start: int, end: int | None) -> Iterator[str]:
    """The row path's text from ``start``: a span's lines, or the rest of
    the file through the serial reader's universal-newline wrapper."""
    if end is not None:
        yield from _iter_span_lines(path, CsvSpan(start, end))
        return
    with Path(path).open("rb") as binary:
        binary.seek(start)
        yield from io.TextIOWrapper(binary, encoding="utf-8", newline="")


def _iter_span_lines(path: str | Path, span: CsvSpan) -> Iterator[str]:
    """Decoded lines of a span, read in bounded blocks."""
    for block in _line_blocks(path, span.start, span.end):
        lines = block.split(b"\n")
        last = lines.pop()
        for line in lines:
            yield line.decode("utf-8") + "\n"
        if last:
            yield last.decode("utf-8")


def iter_span_rows(
    path: str | Path, plan: CsvPlan, span: CsvSpan
) -> Iterator[list[str]]:
    """Parse one :class:`CsvSpan` independently of every other span.

    Opens the file, seeks to ``span.start``, and reads the span's bytes
    in bounded blocks — no shared handle, no coordination, and never
    more than a block (not the whole span) in memory — then parses them
    under ``plan``. This is the worker-side read of the sharded
    execution backends. Spans are line-aligned by construction, so the
    format must not contain newlines inside quoted cells (true of every
    dataset this library reads; documented on the planners).
    """
    reader = csv.reader(
        _iter_span_lines(path, span), delimiter=plan.delimiter
    )
    yield from plan.iter_data_rows(reader)


def plan_csv_shards(
    path: str | Path, plan: CsvPlan, n_shards: int
) -> list[CsvSpan]:
    """Split the data region into ``<= n_shards`` even byte-range spans.

    Cut points are placed at even byte fractions and advanced to the
    next line start, so every span begins and ends on a line boundary
    and the spans partition the data region exactly. No line is ever
    read twice and no scan of the whole file is needed — planning costs
    ``n_shards`` seeks. Workers parse their span with
    :func:`iter_span_rows`, opening the file independently (the spans
    can even be shipped to different machines alongside the plan).

    Line alignment assumes cells contain no embedded newlines (the CSV
    dialect this library reads and writes).
    """
    if n_shards < 1:
        raise CsvParseError(f"n_shards must be >= 1, got {n_shards}")
    size = Path(path).stat().st_size
    start = plan.data_offset
    if start >= size:
        return []
    boundaries = [start]
    with Path(path).open("rb") as handle:
        for index in range(1, n_shards):
            cut = start + (size - start) * index // n_shards
            handle.seek(cut)
            handle.readline()  # finish the line the cut landed in
            boundaries.append(min(handle.tell(), size))
    boundaries.append(size)
    return [
        CsvSpan(span_start, span_end)
        for span_start, span_end in zip(boundaries, boundaries[1:])
        if span_end > span_start
    ]


def plan_csv_chunks(
    path: str | Path, plan: CsvPlan, chunk_rows: int
) -> list[CsvSpan]:
    """Chunk-aligned spans: one span per ``chunk_rows`` data lines.

    One cheap line scan (no csv parsing, no cell materialisation)
    records the byte offset of every chunk boundary, so shard workers
    can parse *the same chunks* the serial reader would produce — which
    is what makes a multi-process ``audit-stream`` trace byte-identical
    to the serial one. Each span carries its counted ``n_rows``;
    consumers verify the parsed row count against it and fail loudly if
    the cheap scan rule (skip empty/comment lines) ever disagrees with
    the full parse rule (e.g. a line of empty cells like ``,,``).
    """
    if chunk_rows < 1:
        raise CsvParseError(f"chunk_rows must be >= 1, got {chunk_rows}")
    prefix = (
        plan.skip_comment_prefix.encode("utf-8")
        if plan.skip_comment_prefix
        else None
    )
    spans: list[CsvSpan] = []
    with Path(path).open("rb") as handle:
        handle.seek(plan.data_offset)
        position = start = plan.data_offset
        rows = 0
        for line in handle:
            position += len(line)
            stripped = line.strip()
            if not stripped:
                continue
            if prefix and stripped.startswith(prefix):
                continue
            rows += 1
            if rows == chunk_rows:
                spans.append(CsvSpan(start, position, rows))
                start = position
                rows = 0
        if rows:
            spans.append(CsvSpan(start, position, rows))
    return spans


def _select_indices(
    names: list[str], columns: Sequence[str] | None
) -> list[int]:
    if columns is None:
        return list(range(len(names)))
    positions = {name: index for index, name in enumerate(names)}
    missing = [name for name in columns if name not in positions]
    if missing:
        raise CsvParseError(f"unknown columns {missing}; file has {names}")
    return [positions[name] for name in columns]


def _infer_column(name: str, raw_values: list[str]) -> Column:
    """Infer numeric vs categorical from raw string cells."""
    try:
        numbers = [float(value) for value in raw_values]
    except ValueError:
        return Column.categorical(name, raw_values)
    return Column.numeric(name, numbers)


def write_csv(table: Table, path: str | Path, *, delimiter: str = ",") -> None:
    """Write a table to CSV with a header row."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(table.column_names)
        decoded = [column.to_list() for column in table.columns]
        for row_index in range(table.n_rows):
            writer.writerow(
                [_format_cell(values[row_index]) for values in decoded]
            )


def _format_cell(value: Any) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)
