"""Pluggable execution backends for contingency ingestion.

A fairness audit is a pure function of per-group outcome counts, and
counts form a commutative monoid under
:meth:`repro.core.streaming.StreamingContingency.merge` — so *where* the
counting runs is a deployment choice, not an algorithmic one. This
module makes that choice explicit: the same audit logic runs serially,
across a process pool, or (via :mod:`repro.engine.checkpoint`) across
machines, and every topology produces bit-identical results.

:class:`ExecutionBackend`
    The contract. Two operations cover every consumer:

    * :meth:`~ExecutionBackend.build` — the whole file as one merged
      accumulator (one-shot audits, benchmarks);
    * :meth:`~ExecutionBackend.iter_chunk_counts` — ordered per-chunk
      accumulators, for consumers that fold counts chunk by chunk and
      report progress (the CLI's per-chunk epsilon trace).

    Backends that can replay the stream *in row order* additionally
    implement :meth:`~ExecutionBackend.iter_chunk_tables` and advertise
    ``supports_ordered_rows`` — sliding windows and checkpoint resume
    need row order, which an unordered fan-out cannot provide.

:class:`SerialBackend`
    One process, one pass, ordered. The only backend that supports
    windows and resume.

:class:`ProcessPoolBackend`
    Fans byte spans of a CSV source out to a persistent pool of worker
    processes and merges their counts. A worker returns each unit's
    ``state_dict()`` through the executor's result queue: one count
    tensor, the only thing that crosses a process boundary. The
    coordinator submits up to ``max(2, 2 * workers)`` tasks ahead of
    consumption, so it merges chunk *i* while workers parse chunks
    *i+1 … i+W*; results still arrive in chunk order, preserving the
    chunk-aligned epsilon-trace contract. A source that names a
    ``.rccol`` column cache (:mod:`repro.tabular.colcache`) is counted
    in-process, exactly as :class:`SerialBackend` counts it: there is
    no parse left to share out.

    Chunk boundaries are byte-identical to :class:`SerialBackend`'s,
    and a worker whose parsed row count disagrees with the planner's
    fails loudly instead of shifting them.

The pool is constructed lazily and **reused across calls** on the same
backend instance; call :meth:`ProcessPoolBackend.close` (or use the
backend as a context manager) to release the worker processes.
"""

from __future__ import annotations

import logging
from collections import deque
from collections.abc import Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, TypeVar

from repro.core.streaming import StreamingContingency
from repro.exceptions import CsvParseError, ValidationError
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.tabular.colcache import ColumnCache, ensure_column_cache
from repro.tabular.csv_io import (
    CsvPlan,
    CsvSpan,
    _iter_chunks,
    iter_csv_chunks,
    plan_csv_chunks,
    plan_csv_shards,
)
from repro.tabular.schema import Schema
from repro.tabular.table import Table

__all__ = [
    "ChunkCounts",
    "ContingencySpec",
    "CsvSource",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "tree_merge",
]


@dataclass(frozen=True)
class CsvSource:
    """A CSV file plus the parse options every backend must agree on.

    Frozen and picklable: the same source object parameterises the
    serial loop, pool workers, and checkpoint metadata.

    ``column_cache`` names an optional ``.rccol`` columnar binary cache
    (:mod:`repro.tabular.colcache`). When set, every backend counts the
    file's pre-factorised codes in-process — skipping CSV parsing
    entirely on a warm cache — and (re)builds the cache from the CSV
    when it is missing or stale. Results are bit-identical to parsing;
    a *corrupt* cache file fails loudly instead of being regenerated.
    """

    path: str
    chunk_rows: int = 4096
    columns: tuple[str, ...] | None = None
    schema: Schema | None = None
    header: bool = True
    column_names: tuple[str, ...] | None = None
    delimiter: str = ","
    missing_token: str = "?"
    missing_replacement: str | None = None
    skip_comment_prefix: str | None = None
    column_cache: str | None = None

    def plan(self) -> CsvPlan:
        """Resolve the header/projection once for this source."""
        return CsvPlan.from_csv(
            self.path,
            schema=self.schema,
            header=self.header,
            column_names=self.column_names,
            delimiter=self.delimiter,
            missing_token=self.missing_token,
            missing_replacement=self.missing_replacement,
            skip_comment_prefix=self.skip_comment_prefix,
            columns=self.columns,
        )

    def open_cache(self) -> ColumnCache | None:
        """Open (building or refreshing as needed) the column cache.

        Returns ``None`` when the source has no cache configured.
        """
        if self.column_cache is None:
            return None
        return ensure_column_cache(self.path, self.plan(), self.column_cache)


@dataclass(frozen=True)
class ContingencySpec:
    """The accumulator schema workers build against (picklable)."""

    factor_names: tuple[str, ...]
    outcome_name: str
    factor_levels: tuple[tuple[Any, ...], ...] | None = None
    outcome_levels: tuple[Any, ...] | None = None

    def new_accumulator(self) -> StreamingContingency:
        return StreamingContingency(
            self.factor_names,
            self.outcome_name,
            self.factor_levels,
            self.outcome_levels,
        )


@dataclass(frozen=True)
class ChunkCounts:
    """One ordered chunk's worth of counts (0-based ``index``)."""

    index: int
    n_rows: int
    counts: StreamingContingency


_Mergeable = TypeVar("_Mergeable", StreamingContingency, MetricsRegistry)


def tree_merge(accumulators: Sequence[_Mergeable]) -> _Mergeable:
    """Balanced pairwise merge, preserving order.

    Order preservation keeps dynamic level discovery deterministic
    (first-seen across the sequence), and the PR-3 merge algebra makes
    the tree shape irrelevant to the result; the balanced shape just
    keeps intermediate tensors small. The fleet router folds shard
    :class:`MetricsRegistry` snapshots the same way.
    """
    items = list(accumulators)
    if not items:
        raise ValidationError("tree_merge needs at least one accumulator")
    while len(items) > 1:
        merged = [
            left.merge(right) for left, right in zip(items[::2], items[1::2])
        ]
        if len(items) % 2:
            merged.append(items[-1])
        items = merged
    return items[0]


# ----------------------------------------------------------------------
# Worker-side task protocol
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _SpanTask:
    """One worker assignment: parse one byte span, ship its counts."""

    path: str
    plan: CsvPlan
    spec: ContingencySpec
    index: int
    span: CsvSpan
    batch_rows: int = 4096


def _count_task(task: _SpanTask) -> tuple[int, int, dict[str, Any]]:
    """Worker entry point: ``(unit index, n_rows, state_dict())``.

    Module-level so it pickles under every multiprocessing start
    method. Workers never estimate probabilities — they only count — so
    the coordinator's estimator choice cannot skew shard results.
    """
    span = task.span
    accumulator = task.spec.new_accumulator()
    parsed = 0
    for table in _iter_chunks(
        task.path, task.plan, task.batch_rows, start=span.start, end=span.end
    ):
        accumulator.update_table(table)
        parsed += table.n_rows
    if span.n_rows is not None and parsed != span.n_rows:
        raise CsvParseError(
            f"span parsed {parsed} rows but the chunk planner counted "
            f"{span.n_rows}; the file mixes blank-cell lines (e.g. ',,') "
            "with data — ingest it with the serial backend"
        )
    return task.index, accumulator.n_rows, accumulator.state_dict()


class ExecutionBackend:
    """Where contingency counting runs; see the module docstring.

    Subclasses must implement :meth:`build` and
    :meth:`iter_chunk_counts`; ordered backends also override
    :meth:`iter_chunk_tables` and set ``supports_ordered_rows``.
    """

    name: str = "backend"
    supports_ordered_rows: bool = False
    #: Trace-span emitter; NULL_TRACER keeps every span site a no-op.
    #: Assign a live :class:`repro.obs.trace.Tracer` (the CLI's
    #: ``audit-stream --trace-out`` does) to record ingest stages.
    tracer: Tracer = NULL_TRACER

    def build(
        self, source: CsvSource, spec: ContingencySpec
    ) -> StreamingContingency:
        """Count the whole source into one merged accumulator."""
        raise NotImplementedError

    def iter_chunk_counts(
        self, source: CsvSource, spec: ContingencySpec
    ) -> Iterator[ChunkCounts]:
        """Per-chunk accumulators, in chunk order.

        Chunk boundaries are the same for every backend (groups of
        ``source.chunk_rows`` data rows), so folding the results in
        order reproduces the serial ingestion exactly.
        """
        raise NotImplementedError

    def iter_chunk_tables(
        self, source: CsvSource, *, skip_rows: int = 0
    ) -> Iterator[Table]:
        """Ordered row-level chunks; only ordered backends provide this."""
        raise ValidationError(
            f"the {self.name!r} backend cannot stream rows in order; "
            "sliding windows and checkpoint resume need SerialBackend"
        )

    def close(self) -> None:
        """Release any resources held across calls (pools, mappings)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """Single-process ordered ingestion (the default everywhere)."""

    name = "serial"
    supports_ordered_rows = True

    def iter_chunk_tables(
        self, source: CsvSource, *, skip_rows: int = 0
    ) -> Iterator[Table]:
        if source.column_cache is not None:
            cache = source.open_cache()
            try:
                yield from cache.chunk_tables(
                    source.chunk_rows,
                    schema=source.schema,
                    skip_rows=skip_rows,
                )
            finally:
                cache.close()
            return
        yield from iter_csv_chunks(
            source.path,
            source.chunk_rows,
            schema=source.schema,
            header=source.header,
            column_names=source.column_names,
            delimiter=source.delimiter,
            missing_token=source.missing_token,
            missing_replacement=source.missing_replacement,
            skip_comment_prefix=source.skip_comment_prefix,
            columns=source.columns,
            skip_rows=skip_rows,
        )

    def build(
        self, source: CsvSource, spec: ContingencySpec
    ) -> StreamingContingency:
        if source.column_cache is not None:
            # Warm-cache fast path: the whole file as one table over the
            # cache's global levels, counted straight from its mmap'd
            # codes — no per-chunk level narrowing, a gather only for a
            # column whose levels are out of the axis's order, and one
            # scatter-add. Integer counts are identical to the chunked
            # path; the canonical snapshot erases the only difference
            # (internal level order).
            cache = source.open_cache()
            try:
                if cache.n_rows == 0:
                    raise CsvParseError("no data rows found")
                return spec.new_accumulator().update_table(
                    cache.full_table(schema=source.schema)
                )
            finally:
                cache.close()
        accumulator = spec.new_accumulator()
        for table in self.iter_chunk_tables(source):
            accumulator.update_table(table)
        return accumulator

    def iter_chunk_counts(
        self, source: CsvSource, spec: ContingencySpec
    ) -> Iterator[ChunkCounts]:
        tables = self.iter_chunk_tables(source)
        with self.tracer.span("ingest", backend=self.name, path=source.path):
            index = 0
            while True:
                with self.tracer.span("parse", chunk=index):
                    table = next(tables, None)
                if table is None:
                    return
                with self.tracer.span("count", chunk=index, rows=table.n_rows):
                    accumulator = spec.new_accumulator().update_table(table)
                yield ChunkCounts(index, table.n_rows, accumulator)
                index += 1


class ProcessPoolBackend(ExecutionBackend):
    """Multi-process ingestion: shard the source, count, merge.

    ``workers`` processes each parse their byte range of the CSV
    independently and return compact count-tensor states through the
    pool's result queue.
    Results are bit-identical to :class:`SerialBackend` because the
    counts are the same integers and the merge algebra is exact.

    The coordinator keeps a bounded window of ``max(2, 2 * workers)``
    tasks in flight, so memory stays at that many count states however
    long the stream is. With ``workers=1`` the tasks run in-process.

    The worker pool is created lazily on first use and **reused across
    calls**; :meth:`close` (or the context-manager exit) shuts it down.
    A pool broken by a killed worker is discarded and lazily replaced
    on the next call.
    """

    name = "process-pool"

    def __init__(
        self,
        workers: int,
        *,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ):
        if int(workers) < 1:
            raise ValidationError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self._window = max(2, 2 * self.workers)
        self._pool: ProcessPoolExecutor | None = None
        self._closed = False
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Instrument handles resolve once here; the coordinator loop
        # pays an attribute access + lock per update (see repro.obs).
        registry = metrics if metrics is not None else default_registry()
        self._metric_clock = registry.clock
        self._metric_stage_seconds = {
            stage: registry.histogram(
                "repro_engine_stage_seconds",
                "Coordinator time per pipeline stage: submit (task "
                "fan-out), parse (wait for the next worker result), "
                "decode (materialise counts from the transport), merge "
                "(fold into the running total).",
                labels={"stage": stage},
            )
            for stage in ("submit", "parse", "decode", "merge")
        }
        self._metric_inflight = registry.gauge(
            "repro_engine_inflight_window",
            "Tasks currently in flight in the pipelined coordinator "
            "window (0 when idle).",
        )
        self._metric_chunks = registry.counter(
            "repro_engine_chunks_total",
            "Chunks materialised by the coordinator.",
        )
        self._metric_rows = registry.counter(
            "repro_engine_rows_total",
            "Rows counted across all materialised chunks.",
        )
        self._metric_pool_leaked = registry.counter(
            "repro_pool_leaked_total",
            "ProcessPoolBackend instances reclaimed by the garbage "
            "collector with a live worker pool and no close() call.",
        )

    def __repr__(self) -> str:
        return f"ProcessPoolBackend(workers={self.workers})"

    # ------------------------------------------------------------------
    # Pool lifecycle (reused across build/iter_chunk_counts calls)
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise ValidationError(
                "this ProcessPoolBackend has been closed; construct a new "
                "one to ingest again"
            )
        pool = self._pool
        if pool is not None and getattr(pool, "_broken", False):
            self._discard_pool()
            pool = None
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=self.workers)
            self._pool = pool
        return pool

    def _discard_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the worker pool down; the backend cannot be used after."""
        self._discard_pool()
        self._closed = True

    def __del__(self):
        # Reclaiming a backend with a live pool works — the destructor
        # shuts the workers down — but it means a close() was skipped
        # somewhere, the same lifecycle bug ResourceWarning exists for.
        # Count it and say so instead of cleaning up silently.
        try:
            if self._pool is not None and not self._closed:
                self._metric_pool_leaked.inc()
                logging.getLogger(__name__).warning(
                    "ProcessPoolBackend(workers=%d) was garbage-collected "
                    "with a live worker pool; call close() or use the "
                    "backend as a context manager",
                    self.workers,
                )
            self._discard_pool()
        except Exception:  # pragma: no cover - interpreter shutdown
            pass

    # ------------------------------------------------------------------
    # Coordinator internals
    # ------------------------------------------------------------------
    def _plan_tasks(
        self, source: CsvSource, spec: ContingencySpec, *, chunked: bool
    ) -> list[_SpanTask]:
        """One task per unit of work, in stream order.

        ``chunked`` units are the serial chunk boundaries' CSV spans;
        otherwise the source splits into ``2 * window`` even byte parts,
        more parts than workers so merging overlaps parsing.
        """
        plan = source.plan()
        if chunked:
            spans = plan_csv_chunks(source.path, plan, source.chunk_rows)
            if not spans:
                raise CsvParseError("no data rows found")
        else:
            spans = plan_csv_shards(source.path, plan, 2 * self._window)
        return [
            _SpanTask(source.path, plan, spec, index, span, source.chunk_rows)
            for index, span in enumerate(spans)
        ]

    def _drive(
        self, tasks: list[_SpanTask]
    ) -> Iterator[tuple[int, int, dict[str, Any]]]:
        """Run tasks with a bounded in-flight window, in task order.

        Up to ``_window`` tasks are submitted ahead of consumption, so
        workers parse ahead while the coordinator merges.
        """
        clock = self._metric_clock
        if self.workers == 1:
            for task in tasks:
                started = clock()
                result = _count_task(task)
                self._metric_stage_seconds["parse"].observe(clock() - started)
                yield result
            return
        pool = self._ensure_pool()
        pending: deque = deque()
        task_iter = iter(tasks)
        try:
            while True:
                submit_started = clock()
                while len(pending) < self._window:
                    task = next(task_iter, None)
                    if task is None:
                        break
                    pending.append(pool.submit(_count_task, task))
                self._metric_stage_seconds["submit"].observe(
                    clock() - submit_started
                )
                self._metric_inflight.set(len(pending))
                if not pending:
                    break
                wait_started = clock()
                result = pending.popleft().result()
                self._metric_stage_seconds["parse"].observe(
                    clock() - wait_started
                )
                yield result
        except BrokenProcessPool:
            # A worker died mid-chunk (OOM-kill, segfault, SIGKILL).
            # The pool is unusable: discard it so the next call starts
            # a fresh one.
            self._discard_pool()
            raise
        finally:
            self._metric_inflight.set(0)
            for future in pending:
                future.cancel()

    def _ingest(
        self, source: CsvSource, spec: ContingencySpec, *, chunked: bool
    ) -> Iterator[ChunkCounts]:
        """Plan, drive and decode: the one path behind both calls.

        Units that counted no rows (an even ``build`` part can be empty;
        a chunk never is) are skipped.
        """
        results = self._drive(self._plan_tasks(source, spec, chunked=chunked))
        clock = self._metric_clock
        # The "ingest" span stays on this thread's span stack while the
        # generator is suspended, so a consumer folding chunks between
        # yields (build's merge, the streaming auditor's "merge" spans)
        # nests under it in the trace.
        with self.tracer.span("ingest", backend=self.name, path=source.path):
            while True:
                with self.tracer.span("parse"):
                    result = next(results, None)
                if result is None:
                    return
                index, n_rows, state = result
                if not n_rows:
                    continue
                with self.tracer.span("decode", chunk=index, rows=n_rows):
                    started = clock()
                    counts = StreamingContingency.from_state(state)
                    self._metric_stage_seconds["decode"].observe(
                        clock() - started
                    )
                self._metric_chunks.inc()
                self._metric_rows.inc(n_rows)
                yield ChunkCounts(index, n_rows, counts)

    # ------------------------------------------------------------------
    # The backend contract
    # ------------------------------------------------------------------
    def _in_process(self) -> SerialBackend:
        """The backend that counts a cached source: there is no parse to
        fan out, so no worker starts."""
        serial = SerialBackend()
        serial.tracer = self.tracer
        return serial

    def build(
        self, source: CsvSource, spec: ContingencySpec
    ) -> StreamingContingency:
        if source.column_cache is not None:
            return self._in_process().build(source, spec)
        merged: StreamingContingency | None = None
        clock = self._metric_clock
        for chunk in self._ingest(source, spec, chunked=False):
            started = clock()
            with self.tracer.span("merge", chunk=chunk.index):
                counts = chunk.counts
                merged = counts if merged is None else merged.merge(counts)
            self._metric_stage_seconds["merge"].observe(clock() - started)
        if merged is None:
            raise CsvParseError("no data rows found")
        return merged

    def iter_chunk_counts(
        self, source: CsvSource, spec: ContingencySpec
    ) -> Iterator[ChunkCounts]:
        if source.column_cache is not None:
            return self._in_process().iter_chunk_counts(source, spec)
        return self._ingest(source, spec, chunked=True)
