"""Tests for repro.engine.backends and the csv_io shard planners.

The execution layer's contract is *bit-identity*: counting is a
commutative monoid, so serial, multi-process, and merged-shard ingests
must produce the same integers, the same epsilons, and the same report
bytes. Everything here asserts exact equality, never approximate. The
pool's lifecycle and crash contract live here too: a worker SIGKILLed
mid-chunk surfaces as ``BrokenProcessPool`` and the next call gets a
fresh pool.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import repro.engine.backends as backends_module
from repro.audit.auditor import FairnessAuditor
from repro.audit.stream import ChunkProgress, StreamingAuditor
from repro.cli import main
from repro.engine.backends import (
    ContingencySpec,
    CsvSource,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    tree_merge,
)
from repro.exceptions import CsvParseError, ReproError, ValidationError
from repro.tabular import csv_io
from repro.tabular.colcache import ColumnCache, build_column_cache
from repro.tabular.csv_io import (
    CsvPlan,
    iter_csv_chunks,
    iter_span_rows,
    plan_csv_chunks,
    plan_csv_shards,
)
from repro.tabular.schema import Field, Schema

PROTECTED = ("gender", "race")
OUTCOME = "hired"
SPEC = ContingencySpec(PROTECTED, OUTCOME)


def write_stream_csv(path, n_rows=997, seed=3, extra_column=True):
    """A deterministic CSV with enough rows to span many chunks."""
    rng = np.random.default_rng(seed)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            "gender,race,note,hired\n" if extra_column else "gender,race,hired\n"
        )
        for index in range(n_rows):
            cells = [
                f"g{rng.integers(2)}",
                f"r{rng.integers(4)}",
            ]
            if extra_column:
                cells.append(f"note{index}")
            cells.append(f"y{rng.integers(2)}")
            handle.write(",".join(cells) + "\n")
    return path


@pytest.fixture
def stream_csv(tmp_path):
    return write_stream_csv(tmp_path / "stream.csv")


def source_for(path, chunk_rows=128, column_cache=None):
    return CsvSource(
        str(path),
        chunk_rows=chunk_rows,
        columns=(*PROTECTED, OUTCOME),
        column_cache=column_cache,
    )


class TestCsvPlan:
    def test_plan_resolves_header_and_projection_once(self, stream_csv):
        plan = CsvPlan.from_csv(stream_csv, columns=[*PROTECTED, OUTCOME])
        assert plan.names == ("gender", "race", "note", "hired")
        assert plan.selected_names == ("gender", "race", "hired")
        assert plan.data_offset == len("gender,race,note,hired\n")

    def test_duplicate_column_names_rejected_at_plan_time(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,b,a\n1,2,3\n")
        with pytest.raises(CsvParseError, match="duplicate column names"):
            CsvPlan.from_csv(path)

    def test_unknown_projection_rejected(self, stream_csv):
        with pytest.raises(CsvParseError, match="unknown columns"):
            CsvPlan.from_csv(stream_csv, columns=["ghost"])

    def test_plan_reuse_matches_fresh_iteration(self, stream_csv):
        plan = CsvPlan.from_csv(stream_csv, columns=[*PROTECTED, OUTCOME])
        fresh = [
            chunk.to_dict()
            for chunk in iter_csv_chunks(
                stream_csv, 100, columns=[*PROTECTED, OUTCOME]
            )
        ]
        reused = [
            chunk.to_dict() for chunk in iter_csv_chunks(stream_csv, 100, plan=plan)
        ]
        assert fresh == reused

    def test_skip_rows_resumes_mid_stream(self, stream_csv):
        chunks = list(iter_csv_chunks(stream_csv, 100))
        resumed = list(iter_csv_chunks(stream_csv, 100, skip_rows=300))
        assert [c.to_dict() for c in resumed] == [
            c.to_dict() for c in chunks[3:]
        ]

    def test_skip_past_the_end_is_not_an_error(self, stream_csv):
        assert list(iter_csv_chunks(stream_csv, 100, skip_rows=10_000)) == []

    def test_comment_and_blank_prologue_offsets(self, tmp_path):
        path = tmp_path / "prologue.csv"
        path.write_text("|junk line\n\ng,y\na,1\n")
        plan = CsvPlan.from_csv(path, skip_comment_prefix="|")
        chunks = list(iter_csv_chunks(path, 10, skip_comment_prefix="|"))
        assert plan.names == ("g", "y")
        assert chunks[0].n_rows == 1


class TestSpanPlanners:
    def test_shard_spans_partition_the_data_region(self, stream_csv):
        plan = CsvPlan.from_csv(stream_csv)
        size = stream_csv.stat().st_size
        for n_shards in [1, 2, 3, 7, 16]:
            spans = plan_csv_shards(stream_csv, plan, n_shards)
            assert spans[0].start == plan.data_offset
            assert spans[-1].end == size
            for left, right in zip(spans, spans[1:]):
                assert left.end == right.start
            assert len(spans) <= n_shards

    def test_shard_spans_cover_every_row_exactly_once(self, stream_csv):
        plan = CsvPlan.from_csv(stream_csv, columns=[*PROTECTED, OUTCOME])
        serial_rows = [
            row
            for chunk in iter_csv_chunks(
                stream_csv, 200, columns=[*PROTECTED, OUTCOME]
            )
            for row in zip(
                *(chunk.column(name).to_list() for name in plan.selected_names)
            )
        ]
        sharded_rows = [
            tuple(row)
            for span in plan_csv_shards(stream_csv, plan, 5)
            for row in iter_span_rows(stream_csv, plan, span)
        ]
        assert sharded_rows == serial_rows

    def test_chunk_spans_match_serial_chunk_boundaries(self, stream_csv):
        plan = CsvPlan.from_csv(stream_csv, columns=[*PROTECTED, OUTCOME])
        spans = plan_csv_chunks(stream_csv, plan, 128)
        serial_sizes = [
            chunk.n_rows
            for chunk in iter_csv_chunks(
                stream_csv, 128, columns=[*PROTECTED, OUTCOME]
            )
        ]
        assert [span.n_rows for span in spans] == serial_sizes
        parsed_sizes = [
            len(list(iter_span_rows(stream_csv, plan, span))) for span in spans
        ]
        assert parsed_sizes == serial_sizes

    def test_more_shards_than_bytes_collapses(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("g,y\na,1\n")
        plan = CsvPlan.from_csv(path)
        spans = plan_csv_shards(path, plan, 64)
        assert sum(len(list(iter_span_rows(path, plan, s))) for s in spans) == 1


class TestTreeMerge:
    def test_tree_merge_equals_linear_merge(self):
        accumulators = []
        for shard in range(5):
            accumulator = SPEC.new_accumulator()
            accumulator.update(
                [(f"g{shard % 2}", f"r{shard}", f"y{row % 2}") for row in range(7)]
            )
            accumulators.append(accumulator)
        linear = accumulators[0]
        for other in accumulators[1:]:
            linear = linear.merge(other)
        tree = tree_merge(accumulators)
        assert np.array_equal(tree.snapshot().counts, linear.snapshot().counts)
        assert tree.n_rows == linear.n_rows

    def test_tree_merge_rejects_empty_input(self):
        with pytest.raises(ValidationError):
            tree_merge([])


class TestBackendBitIdentity:
    def test_pool_build_matches_serial_build(self, stream_csv):
        source = source_for(stream_csv)
        serial = SerialBackend().build(source, SPEC)
        for workers in [2, 3]:
            with ProcessPoolBackend(workers) as backend:
                pooled = backend.build(source, SPEC)
            assert pooled.n_rows == serial.n_rows
            assert np.array_equal(
                pooled.snapshot().counts, serial.snapshot().counts
            )
            assert (
                pooled.snapshot().factor_levels
                == serial.snapshot().factor_levels
            )

    @pytest.mark.parallel
    def test_pool_chunk_counts_reproduce_serial_chunks(self, stream_csv):
        source = source_for(stream_csv, chunk_rows=100)
        serial = list(SerialBackend().iter_chunk_counts(source, SPEC))
        with ProcessPoolBackend(2) as backend:
            pooled = list(backend.iter_chunk_counts(source, SPEC))
        assert [c.index for c in pooled] == [c.index for c in serial]
        assert [c.n_rows for c in pooled] == [c.n_rows for c in serial]
        for mine, theirs in zip(pooled, serial):
            assert np.array_equal(
                mine.counts.snapshot().counts, theirs.counts.snapshot().counts
            )

    @pytest.mark.parallel
    def test_audit_csv_identical_across_backends(self, stream_csv):
        auditor = FairnessAuditor(PROTECTED, OUTCOME, posterior_samples=20, seed=7)
        serial = auditor.audit_csv(source_for(stream_csv))
        with ProcessPoolBackend(2) as backend:
            pooled = auditor.audit_csv(source_for(stream_csv), backend=backend)
        assert pooled.to_text() == serial.to_text()
        assert pooled.posterior.mean == serial.posterior.mean

    def test_worker_detects_scan_parse_disagreement(self, tmp_path):
        # A line of empty cells is skipped by the parser but counted as
        # data by the cheap chunk scanner: the worker must fail loudly
        # rather than shift chunk boundaries silently.
        path = tmp_path / "blanks.csv"
        path.write_text("g,r,y\na,x,1\n,,\nb,z,0\n")
        plan = CsvPlan.from_csv(path)
        spans = plan_csv_chunks(path, plan, 2)
        source = CsvSource(str(path), chunk_rows=2)
        spec = ContingencySpec(("g", "r"), "y")
        assert any(span.n_rows == 2 for span in spans)
        with pytest.raises(CsvParseError, match="serial backend"):
            list(ProcessPoolBackend(1).iter_chunk_counts(source, spec))


    @pytest.mark.parallel
    def test_pool_matches_serial_over_column_cache(self, stream_csv, tmp_path):
        # The first pooled call builds the .rccol cache; the rest read it.
        cache = str(tmp_path / "stream.rccol")
        cached = source_for(stream_csv, column_cache=cache)
        serial = SerialBackend().build(source_for(stream_csv), SPEC)
        serial_chunks = list(
            SerialBackend().iter_chunk_counts(source_for(stream_csv), SPEC)
        )
        with ProcessPoolBackend(2) as backend:
            warmed = backend.build(cached, SPEC)
            again = backend.build(cached, SPEC)
            chunks = list(backend.iter_chunk_counts(cached, SPEC))
        assert os.path.exists(cache)
        for pooled in (warmed, again):
            assert pooled.n_rows == serial.n_rows
            assert np.array_equal(
                pooled.snapshot().counts, serial.snapshot().counts
            )
        assert [(c.index, c.n_rows) for c in chunks] == [
            (c.index, c.n_rows) for c in serial_chunks
        ]
        for mine, theirs in zip(chunks, serial_chunks):
            assert np.array_equal(
                mine.counts.snapshot().counts, theirs.counts.snapshot().counts
            )

    @pytest.mark.parallel
    def test_pool_counts_a_cached_source_in_process(self, stream_csv, tmp_path):
        cached = source_for(stream_csv, column_cache=str(tmp_path / "s.rccol"))
        serial = SerialBackend().build(cached, SPEC)
        with ProcessPoolBackend(2) as backend:
            pooled = backend.build(cached, SPEC)
            chunks = list(backend.iter_chunk_counts(cached, SPEC))
            assert backend._pool is None
        state, expected = pooled.state_dict(), serial.state_dict()
        assert np.array_equal(state.pop("counts"), expected.pop("counts"))
        assert state == expected
        assert sum(chunk.n_rows for chunk in chunks) == serial.n_rows


@pytest.mark.parallel
class TestPoolLifecycle:
    def test_pool_is_reused_across_calls(self, stream_csv):
        backend = ProcessPoolBackend(2)
        try:
            backend.build(source_for(stream_csv), SPEC)
            first = backend._pool
            assert first is not None
            backend.build(source_for(stream_csv), SPEC)
            assert backend._pool is first
        finally:
            backend.close()

    def test_closed_backend_refuses_work(self, stream_csv):
        backend = ProcessPoolBackend(2)
        backend.close()
        with pytest.raises(ValidationError, match="closed"):
            backend.build(source_for(stream_csv), SPEC)

    def test_context_manager_closes(self, stream_csv):
        with ProcessPoolBackend(2) as backend:
            backend.build(source_for(stream_csv), SPEC)
        assert backend._pool is None
        with pytest.raises(ValidationError, match="closed"):
            backend.build(source_for(stream_csv), SPEC)

    def test_validation(self):
        with pytest.raises(ValidationError, match="workers"):
            ProcessPoolBackend(0)

    def test_abandoned_iteration_leaves_backend_usable(self, stream_csv):
        source = source_for(stream_csv)
        serial = list(SerialBackend().iter_chunk_counts(source, SPEC))
        with ProcessPoolBackend(2) as backend:
            iterator = backend.iter_chunk_counts(source, SPEC)
            next(iterator)
            iterator.close()  # consumer walks away mid-stream
            again = list(backend.iter_chunk_counts(source, SPEC))
        assert [(c.index, c.n_rows) for c in again] == [
            (c.index, c.n_rows) for c in serial
        ]
        for mine, theirs in zip(again, serial):
            assert np.array_equal(
                mine.counts.snapshot().counts, theirs.counts.snapshot().counts
            )


# ----------------------------------------------------------------------
# Worker-kill crash contract
# ----------------------------------------------------------------------
_real_count_task = backends_module._count_task


def _sigkill_count_task(task):
    """Replacement worker fn: die hard on task 3, else count.

    Module-level so the executor can pickle it by reference; the forked
    workers inherit the patched module, so the coordinator's submission
    of ``_count_task`` resolves to this function inside the pool too.
    """
    if task.index == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return _real_count_task(task)


@pytest.mark.parallel
class TestWorkerCrash:
    def test_killed_worker_raises_and_next_call_recovers(
        self, stream_csv, monkeypatch
    ):
        monkeypatch.setattr(
            backends_module, "_count_task", _sigkill_count_task
        )
        backend = ProcessPoolBackend(2)
        try:
            # Surfaced as-is: the ingest is dead and says so, it does
            # not return partial counts.
            with pytest.raises(BrokenProcessPool):
                list(backend.iter_chunk_counts(source_for(stream_csv), SPEC))
            # The broken pool was discarded...
            assert backend._pool is None
            # ...and the backend recovers on the next call with a fresh
            # pool once the poison task is gone.
            monkeypatch.setattr(
                backends_module, "_count_task", _real_count_task
            )
            serial = SerialBackend().build(source_for(stream_csv), SPEC)
            recovered = backend.build(source_for(stream_csv), SPEC)
            assert np.array_equal(
                recovered.snapshot().counts, serial.snapshot().counts
            )
        finally:
            backend.close()

    def test_killed_worker_during_build_raises(self, stream_csv, monkeypatch):
        monkeypatch.setattr(
            backends_module, "_count_task", _sigkill_count_task
        )
        with ProcessPoolBackend(2) as backend:
            with pytest.raises(BrokenProcessPool):
                backend.build(source_for(stream_csv), SPEC)
            assert backend._pool is None


# ----------------------------------------------------------------------
# Differential property: pool vs serial on messy small files
# ----------------------------------------------------------------------
MESSY_SPEC = ContingencySpec(("g", "r"), "y")
_MESSY_ROW = st.tuples(
    st.sampled_from(["f", "m", "?"]),
    st.sampled_from(["x", "y", "z", "?"]),
    st.sampled_from(["0", "1", "?"]),
).map(",".join)
_CASE_NUMBERS = itertools.count()


@st.composite
def messy_csv(draw):
    """CSV text with 0-40 data rows, plus its comment prefix (or None).

    Blank, whitespace-only and (when the prefix is set) comment lines
    land anywhere, before the header too; ``?`` is the missing token;
    line endings are LF or CRLF; the final newline may be missing.
    """
    prefix = draw(st.sampled_from([None, "#"]))
    filler = st.lists(
        st.sampled_from(["", "  "] + (["# note", "#,x,1"] if prefix else [])),
        max_size=2,
    )
    lines = [*draw(filler), "g,r,y"]
    for row in draw(st.lists(_MESSY_ROW, max_size=40)):
        lines += [*draw(filler), row]
    lines += draw(filler)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines)
    if draw(st.booleans()):
        text += newline
    return text, prefix


def _counts_key(accumulator):
    snapshot = accumulator.snapshot()
    return (
        accumulator.n_rows,
        snapshot.factor_levels,
        snapshot.outcome_levels,
        snapshot.counts.tolist(),
    )


def _backend_outcomes(backend, source):
    """``build`` and ``iter_chunk_counts`` results, or each one's error."""
    calls = (
        lambda: _counts_key(backend.build(source, MESSY_SPEC)),
        lambda: [
            (chunk.index, chunk.n_rows, _counts_key(chunk.counts))
            for chunk in backend.iter_chunk_counts(source, MESSY_SPEC)
        ],
    )
    outcomes = []
    for call in calls:
        try:
            outcomes.append(call())
        except ReproError as error:
            outcomes.append(type(error))
    return outcomes


@pytest.fixture(scope="module")
def shared_pools():
    with ProcessPoolBackend(2) as two, ProcessPoolBackend(1) as one:
        yield two, one


@pytest.fixture(scope="module")
def messy_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("messy")


@pytest.mark.parallel
@given(
    case=messy_csv(),
    chunk_rows=st.integers(1, 7),
    missing_replacement=st.sampled_from([None, "unknown"]),
)
def test_pool_matches_serial_on_messy_csv(
    shared_pools, messy_dir, case, chunk_rows, missing_replacement
):
    # Files with fewer rows than build's even split has parts, and with
    # no data rows at all, are in the domain. Every case gets fresh file
    # names: a rewritten file can keep its size and mtime, and the cache
    # fingerprint would then call a stale .rccol fresh.
    text, prefix = case
    number = next(_CASE_NUMBERS)
    path = messy_dir / f"case{number}.csv"
    path.write_bytes(text.encode("utf-8"))
    for cache in (None, str(messy_dir / f"case{number}.rccol")):
        source = CsvSource(
            str(path),
            chunk_rows=chunk_rows,
            columns=("g", "r", "y"),
            missing_replacement=missing_replacement,
            skip_comment_prefix=prefix,
            column_cache=cache,
        )
        expected = _backend_outcomes(SerialBackend(), source)
        for backend in shared_pools:
            assert _backend_outcomes(backend, source) == expected


# ----------------------------------------------------------------------
# Differential property: the coded reader vs the row path
# ----------------------------------------------------------------------
_PLAIN_CELLS = ["f", "m", "?", " x ", "", "é", "日本"]
_QUOTED_CELLS = ['"a,b"', '"two\nlines"', '"q""t"']
_CODED_ROW = st.lists(
    st.sampled_from(_PLAIN_CELLS * 8 + _QUOTED_CELLS), min_size=4, max_size=4
).map(",".join)


@st.composite
def coded_csv(draw):
    """CSV text over ``g,r,n,y`` that repeats its lines, its comment
    prefix and the reader constants to run it under.

    Rows come from a pool of at most five, so later blocks mostly repeat
    earlier lines, and one row of 3 or 5 cells may be ragged. Cells may
    be quoted (with the delimiter, a newline or a doubled quote inside),
    blank, non-ASCII or the missing token. Blank, whitespace-only, in a
    quarter of the files ``,,,``, and (with a prefix) comment lines land
    anywhere, the prologue too. Data lines end in LF, CRLF or a mix with
    bare CRs, and the final line may have no ending.
    """
    prefix = draw(st.sampled_from([None, "#"]))
    blanks = ["", "  "] + draw(st.sampled_from([[], [], [], [",,,"]]))
    filler = st.lists(
        st.sampled_from(blanks + (["# note", "#,x,1,y"] if prefix else [])),
        max_size=2,
    )
    pool = draw(st.lists(_CODED_ROW, min_size=1, max_size=5))
    rows = draw(st.lists(st.sampled_from(pool), max_size=40))
    if rows and draw(st.integers(0, 4)) == 0:
        cells = draw(st.lists(st.sampled_from(_PLAIN_CELLS), min_size=3, max_size=5))
        rows.insert(draw(st.integers(0, len(rows))), ",".join(cells))
    prologue = [*draw(filler), "g,r,n,y"]
    body = []
    for row in rows:
        body += [*draw(filler), row]
    body += draw(filler)
    endings = draw(st.sampled_from([["\n"], ["\r\n"], ["\n", "\r\n", "\r"]]))
    text = "".join(line + endings[0] for line in prologue)
    text += "".join(line + draw(st.sampled_from(endings)) for line in body)
    if body and draw(st.booleans()):
        text = text.rstrip("\r\n")
    constants = {
        "_BLOCK_BYTES": draw(st.sampled_from([1, 8, 64, 1 << 20])),
        "_NEW_LINE_SHARE": draw(st.sampled_from([0.5, 1.0, 1.0])),
    }
    return text, prefix, constants


def _outcome(call):
    """``call()``'s value, or its error's type and message."""
    try:
        return call()
    except Exception as error:  # the row path's errors are part of its output
        return type(error), str(error)


def _chunks_key(chunks):
    """Each chunk table, then the iterator's error if it raised one."""
    out = []
    try:
        for chunk in chunks:
            out.append((chunk.to_dict(), chunk))
    except Exception as error:
        out.append((type(error), str(error)))
    return out


def _pool_chunks(pool, source):
    return _outcome(
        lambda: [
            (chunk.index, chunk.n_rows, _counts_key(chunk.counts))
            for chunk in pool.iter_chunk_counts(source, MESSY_SPEC)
        ]
    )


def _coded_outcomes(path, plan, source, skip_rows, pool, cache_path):
    """What every coded-reader entry point makes of one file."""
    chunk_rows = source.chunk_rows
    return [
        _chunks_key(iter_csv_chunks(path, chunk_rows, plan=plan, skip_rows=skip_rows)),
        _chunks_key(iter_csv_chunks(path, chunk_rows, plan=plan)),
        _outcome(lambda: _counts_key(SerialBackend().build(source, MESSY_SPEC))),
        _pool_chunks(pool, source),
        _outcome(lambda: _cache_key(path, plan, cache_path)),
    ]


def _cache_key(path, plan, cache_path):
    build_column_cache(path, plan, cache_path)
    with ColumnCache.open(cache_path) as cache:
        return cache.n_rows, [
            (cache.levels(name), cache.codes(name).tolist())
            for name in cache.column_names
        ]


_CODED_NUMBERS = itertools.count()
_CODED = {"_BLOCK_BYTES": 1 << 20, "_NEW_LINE_SHARE": 1.0}


@pytest.mark.parallel
@given(
    case=coded_csv(),
    chunk_rows=st.integers(1, 7),
    skip_rows=st.integers(0, 5),
    missing_replacement=st.sampled_from([None, "unknown"]),
    schema=st.sampled_from([None, Schema([Field("y", "boolean")])]),
)
# Lines parsed in one batch, a blank one first: each line's codes must
# land on that line, not on its place among the batch's data lines, and
# the ragged last line is data row 4 (but the fifth distinct line).
@example(
    case=("g,r,n,y\n\nf,m,x,0\n  \nm,f,x,1\nf,m,x,0\nf,m\n", None, _CODED),
    chunk_rows=2,
    skip_rows=0,
    missing_replacement=None,
    schema=None,
)
# A quoted line hands the stream to the row path, which must go on
# numbering data rows where the coded read stopped.
@example(
    case=(
        'g,r,n,y\nf,m,x,0\nf,m,x,0\n\nf,"m",x,1\nf,m\n',
        None,
        {"_BLOCK_BYTES": 8, "_NEW_LINE_SHARE": 1.0},
    ),
    chunk_rows=2,
    skip_rows=0,
    missing_replacement=None,
    schema=None,
)
def test_coded_reader_matches_the_row_path(
    shared_pools, messy_dir, case, chunk_rows, skip_rows, missing_replacement, schema
):
    # The reference is every entry point with the dictionary capped at
    # zero lines, so the row path reads the whole file. ProcessPoolBackend(1)
    # counts in this process, under the drawn reader constants; the
    # two-worker pool's processes keep the defaults.
    text, prefix, constants = case
    number = next(_CODED_NUMBERS)
    path = messy_dir / f"coded{number}.csv"
    path.write_bytes(text.encode("utf-8"))
    source = CsvSource(
        str(path),
        chunk_rows=chunk_rows,
        columns=("g", "r", "y"),
        missing_replacement=missing_replacement,
        skip_comment_prefix=prefix,
    )
    plan = _outcome(
        lambda: dataclasses.replace(source.plan(), schema=schema)
    )
    if not isinstance(plan, CsvPlan):
        return  # a prologue without a header line: no reader runs
    two, one = shared_pools
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(csv_io, "_MAX_DISTINCT_LINES", 0)
        expected = _coded_outcomes(
            path, plan, source, skip_rows, one, messy_dir / f"coded{number}.row.rccol"
        )
    with pytest.MonkeyPatch.context() as patch:
        for name, value in constants.items():
            patch.setattr(csv_io, name, value)
        coded = _coded_outcomes(
            path, plan, source, skip_rows, one, messy_dir / f"coded{number}.rccol"
        )
    assert coded == expected
    assert _pool_chunks(two, source) == expected[3]


class TestStreamingAuditorIngest:
    def test_serial_ingest_matches_observe_table_loop(self, stream_csv):
        source = source_for(stream_csv, chunk_rows=100)
        by_ingest = StreamingAuditor(PROTECTED, OUTCOME)
        trace: list[ChunkProgress] = []
        final = by_ingest.ingest(source, on_chunk=trace.append)

        by_loop = StreamingAuditor(PROTECTED, OUTCOME)
        epsilons = [
            by_loop.observe_table(chunk)
            for chunk in iter_csv_chunks(
                stream_csv, 100, columns=[*PROTECTED, OUTCOME]
            )
        ]
        assert [entry.epsilon for entry in trace] == epsilons
        assert [entry.index for entry in trace] == list(
            range(1, len(epsilons) + 1)
        )
        assert final == epsilons[-1]
        assert by_ingest.audit().to_text() == by_loop.audit().to_text()

    @pytest.mark.parallel
    def test_pool_ingest_trace_is_bit_identical(self, stream_csv):
        source = source_for(stream_csv, chunk_rows=100)
        serial_trace: list[ChunkProgress] = []
        pooled_trace: list[ChunkProgress] = []
        serial = StreamingAuditor(PROTECTED, OUTCOME)
        pooled = StreamingAuditor(PROTECTED, OUTCOME)
        serial.ingest(source, on_chunk=serial_trace.append)
        with ProcessPoolBackend(2) as backend:
            pooled.ingest(
                source, backend=backend, on_chunk=pooled_trace.append
            )
        assert pooled_trace == serial_trace
        assert pooled.audit().to_text() == serial.audit().to_text()

    def test_windowed_ingest_requires_ordered_backend(self, stream_csv):
        auditor = StreamingAuditor(PROTECTED, OUTCOME, window=50)
        with pytest.raises(ValidationError, match="row order"):
            auditor.ingest(
                source_for(stream_csv), backend=ProcessPoolBackend(2)
            )

    def test_windowed_serial_ingest_matches_manual_window(self, stream_csv):
        source = source_for(stream_csv, chunk_rows=100)
        auditor = StreamingAuditor(PROTECTED, OUTCOME, window=150)
        final = auditor.ingest(source)
        manual = StreamingAuditor(PROTECTED, OUTCOME, window=150)
        for chunk in iter_csv_chunks(
            stream_csv, 100, columns=[*PROTECTED, OUTCOME]
        ):
            manual_final = manual.observe_table(chunk)
        assert final == manual_final

    def test_absorb_rejected_for_windowed_auditors(self):
        windowed = StreamingAuditor(PROTECTED, OUTCOME, window=10)
        other = SPEC.new_accumulator().update([("g0", "r0", "y1")])
        with pytest.raises(ValidationError):
            windowed._absorb(other)


class TestCliBackendMatrix:
    @pytest.mark.parallel
    def test_workers_flag_is_byte_identical(self, stream_csv, monkeypatch):
        monkeypatch.chdir(stream_csv.parent)
        args = [
            "audit-stream", stream_csv.name,
            "--protected", "gender,race",
            "--outcome", "hired",
            "--chunk-rows", "200",
        ]
        serial_out, pooled_out = io.StringIO(), io.StringIO()
        assert main(args, out=serial_out) == 0
        assert main([*args, "--workers", "2"], out=pooled_out) == 0
        assert pooled_out.getvalue() == serial_out.getvalue()

    def test_workers_with_window_rejected(self, stream_csv, capsys):
        rc = main(
            [
                "audit-stream", str(stream_csv),
                "--protected", "gender,race",
                "--outcome", "hired",
                "--window", "100",
                "--workers", "2",
            ],
            out=io.StringIO(),
        )
        assert rc == 2
        assert "cumulative" in capsys.readouterr().err

    def test_resume_requires_checkpoint(self, stream_csv, capsys):
        rc = main(
            [
                "audit-stream", str(stream_csv),
                "--protected", "gender,race",
                "--outcome", "hired",
                "--resume",
            ],
            out=io.StringIO(),
        )
        assert rc == 2
        assert "--checkpoint" in capsys.readouterr().err


class TestCliColumnCache:
    def args_for(self, stream_csv, *extra):
        return [
            "audit-stream", str(stream_csv),
            "--protected", "gender,race",
            "--outcome", "hired",
            "--chunk-rows", "200",
            *extra,
        ]

    def test_cold_and_warm_runs_are_byte_identical(self, stream_csv, tmp_path):
        cache = tmp_path / "stream.rccol"
        plain, cold, warm = io.StringIO(), io.StringIO(), io.StringIO()
        assert main(self.args_for(stream_csv), out=plain) == 0
        assert not cache.exists()
        flags = self.args_for(stream_csv, "--column-cache", str(cache))
        assert main(flags, out=cold) == 0
        assert cache.exists()
        assert main(flags, out=warm) == 0
        assert cold.getvalue() == plain.getvalue()
        assert warm.getvalue() == plain.getvalue()

    @pytest.mark.parallel
    def test_cache_and_workers_compose(self, stream_csv, tmp_path):
        cache = tmp_path / "stream.rccol"
        plain, pooled = io.StringIO(), io.StringIO()
        assert main(self.args_for(stream_csv), out=plain) == 0
        assert (
            main(
                self.args_for(
                    stream_csv,
                    "--column-cache", str(cache),
                    "--workers", "2",
                ),
                out=pooled,
            )
            == 0
        )
        assert pooled.getvalue() == plain.getvalue()

    def test_cache_and_window_compose(self, stream_csv, tmp_path):
        cache = tmp_path / "stream.rccol"
        plain, cached = io.StringIO(), io.StringIO()
        assert main(self.args_for(stream_csv, "--window", "300"), out=plain) == 0
        assert (
            main(
                self.args_for(
                    stream_csv,
                    "--window", "300",
                    "--column-cache", str(cache),
                ),
                out=cached,
            )
            == 0
        )
        assert cached.getvalue() == plain.getvalue()

    def test_corrupt_cache_fails_loudly(self, stream_csv, tmp_path, capsys):
        cache = tmp_path / "stream.rccol"
        flags = self.args_for(stream_csv, "--column-cache", str(cache))
        assert main(flags, out=io.StringIO()) == 0
        blob = bytearray(cache.read_bytes())
        blob[-2] ^= 0x04
        cache.write_bytes(bytes(blob))
        assert main(flags, out=io.StringIO()) == 1
        assert "CRC" in capsys.readouterr().err

    def test_stale_cache_is_rebuilt_with_fresh_rows(self, stream_csv, tmp_path):
        cache = tmp_path / "stream.rccol"
        flags = self.args_for(stream_csv, "--column-cache", str(cache))
        assert main(flags, out=io.StringIO()) == 0
        with open(stream_csv, "a", encoding="utf-8") as handle:
            handle.write("g0,r0,extra,y1\n")
        plain, refreshed = io.StringIO(), io.StringIO()
        assert main(self.args_for(stream_csv), out=plain) == 0
        assert main(flags, out=refreshed) == 0
        assert refreshed.getvalue() == plain.getvalue()


def test_base_backend_refuses_ordered_iteration(tmp_path):
    class Stub(ExecutionBackend):
        name = "stub"

    with pytest.raises(ValidationError, match="SerialBackend"):
        next(Stub().iter_chunk_tables(CsvSource(str(tmp_path / "x.csv"))))
