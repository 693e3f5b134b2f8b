"""Property-based tests (hypothesis) for the streaming audit subsystem.

The algebraic contract of :class:`repro.core.streaming.StreamingContingency`
is what makes sharded and windowed deployment sound:

* ``merge`` is associative and commutative (any shard/reduce tree over a
  partitioned stream yields the same counts);
* ``update`` then ``retract`` of the same rows is an identity on the
  counted content (sliding windows are exact, not approximate);
* a shard-split + merge of any row set produces an accumulator whose
  snapshot audit is **bit-identical** to
  :meth:`FairnessAuditor.audit_dataset` on the concatenated table —
  including the posterior sweep for a fixed seed.

These are checked here on arbitrary row multisets, shard assignments,
and arrival orders.

The row-to-cell cache behind ``update``/``retract`` is checked against
:meth:`ContingencyTable.from_table` over interleaved updates and
retractions, with levels that are equal in Python but differ in type
(``1``, ``1.0``, ``True``) next to their string look-alike and
non-ASCII strings, and with new levels arriving mid-stream. The
write-ahead log's record bytes for in-domain batches are pinned to the
v1 encoding.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.audit.auditor import FairnessAuditor
from repro.core.streaming import StreamingContingency, canonical_rows
from repro.engine.backends import tree_merge
from repro.monitor.store import encode_record, sanitize_floats
from repro.monitor.wal import WriteAheadLog
from repro.tabular.column import CATEGORICAL, Column
from repro.tabular.crosstab import ContingencyTable
from repro.tabular.table import Table

FACTOR_POOLS = [
    ("a0", "a1", "a2", "é"),
    ("b0", "b1", "名前"),
    ("c0", "c1", "c2"),
]
OUTCOME_POOL = ("no", "yes", "maybe")

# 1 == 1.0 == True and 0 == -0.0 == False are one level each, stored
# as the first-seen object; "1" and the non-ASCII strings are not.
MIXED_POOL = (1, 1.0, True, "1", "é", "名前", 0, -0.0, None)
LATE_LEVELS = (False, 2.5, "ß")
MIXED_OUTCOMES = ("no", "yes", 1, True, "ü")


@st.composite
def row_sets(draw, min_rows=0, max_rows=30):
    """(factor names, rows) over small alphabets; 1-3 protected attributes."""
    n_factors = draw(st.integers(1, 3))
    names = [f"f{index}" for index in range(n_factors)]
    cell = st.tuples(
        *(st.sampled_from(FACTOR_POOLS[index]) for index in range(n_factors)),
        st.sampled_from(OUTCOME_POOL),
    )
    rows = draw(st.lists(cell, min_size=min_rows, max_size=max_rows))
    return names, rows


def build(names, rows) -> StreamingContingency:
    return StreamingContingency(names, "y").update(rows)


def snapshot_key(accumulator: StreamingContingency):
    """Canonical fingerprint: snapshot levels + count tensor bytes."""
    snapshot = accumulator.snapshot()
    return (
        tuple(snapshot.factor_names),
        tuple(map(tuple, snapshot.factor_levels)),
        tuple(snapshot.outcome_levels),
        snapshot.counts.tobytes(),
    )


def counted_content(accumulator: StreamingContingency):
    """The multiset actually counted: nonzero cells only.

    Retraction zeroes counts but keeps discovered levels, so identity is
    stated on content, not on tensor shape.
    """
    snapshot = accumulator.snapshot()
    if snapshot.counts.size == 0:  # nothing ever counted: no levels yet
        return {}
    matrix, labels = snapshot.group_outcome_matrix()
    return {
        (label, outcome): value
        for label, row in zip(labels, matrix)
        for outcome, value in zip(snapshot.outcome_levels, row)
        if value
    }


class TestMergeAlgebra:
    @given(row_sets(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_merge_commutative(self, ab, data):
        names, rows = ab
        split = data.draw(st.integers(0, len(rows)))
        a = build(names, rows[:split])
        b = build(names, rows[split:])
        assert snapshot_key(a.merge(b)) == snapshot_key(b.merge(a))

    @given(row_sets(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_merge_associative(self, abc, data):
        names, rows = abc
        first = data.draw(st.integers(0, len(rows)))
        second = data.draw(st.integers(first, len(rows)))
        a = build(names, rows[:first])
        b = build(names, rows[first:second])
        c = build(names, rows[second:])
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert snapshot_key(left) == snapshot_key(right)
        assert left.n_rows == right.n_rows == len(rows)

    @given(row_sets())
    @settings(max_examples=40, deadline=None)
    def test_merge_with_empty_is_identity(self, ab):
        names, rows = ab
        accumulator = build(names, rows)
        empty = StreamingContingency(names, "y")
        assert snapshot_key(accumulator.merge(empty)) == snapshot_key(accumulator)
        assert snapshot_key(empty.merge(accumulator)) == snapshot_key(accumulator)


class TestUpdateRetract:
    @given(row_sets(), row_sets())
    @settings(max_examples=60, deadline=None)
    def test_update_then_retract_is_identity(self, base_set, extra_set):
        base_names, base_rows = base_set
        extra_names, extra_rows = extra_set
        assume(len(extra_names) == len(base_names))
        accumulator = build(base_names, base_rows)
        before_content = counted_content(accumulator)
        before_rows = accumulator.n_rows
        accumulator.update(extra_rows)
        accumulator.retract(extra_rows)
        assert counted_content(accumulator) == before_content
        assert accumulator.n_rows == before_rows

    @given(row_sets(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_retract_in_any_order(self, ab, data):
        """Retracting a permutation of a sub-multiset equals never adding it."""
        names, rows = ab
        split = data.draw(st.integers(0, len(rows)))
        removed = data.draw(st.permutations(rows[split:]))
        accumulator = build(names, rows)
        accumulator.retract(removed)
        assert counted_content(accumulator) == counted_content(
            build(names, rows[:split])
        )


class TestShardSplitAuditBitIdentity:
    @given(row_sets(min_rows=2), st.data())
    @settings(max_examples=50, deadline=None)
    def test_sharded_merge_audit_matches_audit_dataset(self, ab, data):
        names, rows = ab
        assume(len({row[-1] for row in rows}) >= 2)
        n_shards = data.draw(st.integers(1, 4))
        assignment = data.draw(
            st.lists(
                st.integers(0, n_shards - 1),
                min_size=len(rows),
                max_size=len(rows),
            )
        )

        shards = [StreamingContingency(names, "y") for _ in range(n_shards)]
        for row, shard in zip(rows, assignment):
            shards[shard].update([row])
        merged = shards[0]
        for shard in shards[1:]:
            merged = merged.merge(shard)

        table = Table.from_rows([*names, "y"], rows)
        auditor = FairnessAuditor(names, "y", posterior_samples=8, seed=3)
        reference = auditor.audit_dataset(table)
        streamed = auditor.audit_contingency(merged.snapshot())

        # The count tensors agree bitwise, so every downstream statistic
        # must too; both layers are asserted to localise failures.
        table_contingency = ContingencyTable.from_table(table, names, "y")
        snapshot = merged.snapshot()
        assert snapshot.factor_levels == table_contingency.factor_levels
        assert snapshot.outcome_levels == table_contingency.outcome_levels
        assert np.array_equal(snapshot.counts, table_contingency.counts)

        for subset, result in reference.sweep.results.items():
            streamed_result = streamed.sweep.results[subset]
            assert streamed_result.epsilon == result.epsilon
            assert np.array_equal(
                streamed_result.probabilities,
                result.probabilities,
                equal_nan=True,
            )
        assert streamed.interpretation == reference.interpretation
        assert streamed.posterior.mean == reference.posterior.mean
        assert streamed.posterior.quantiles == reference.posterior.quantiles
        for subset, samples in reference.posterior_sweep.samples.items():
            assert np.array_equal(
                streamed.posterior_sweep.epsilon_samples(subset), samples
            )


class TestTreeMergeAtScale:
    """Merge-at-scale: the execution engine's reduction is bit-exact.

    K shards (K in 2..8) with an arbitrary row assignment — including
    *empty* shards and shards whose rows introduce levels no other shard
    has seen — are reduced by the engine's balanced
    :func:`repro.engine.backends.tree_merge`. The result must be
    bit-identical to one serial ingest of all rows: point epsilon for
    every attribute subset *and* the posterior audit for a fixed seed.
    """

    @given(row_sets(min_rows=2, max_rows=40), st.data())
    @settings(max_examples=40, deadline=None)
    def test_tree_merge_of_k_shards_is_bit_identical(self, ab, data):
        names, rows = ab
        assume(len({row[-1] for row in rows}) >= 2)
        n_shards = data.draw(st.integers(2, 8))
        assignment = data.draw(
            st.lists(
                st.integers(0, n_shards - 1),
                min_size=len(rows),
                max_size=len(rows),
            )
        )

        shards = [StreamingContingency(names, "y") for _ in range(n_shards)]
        for row, shard in zip(rows, assignment):
            shards[shard].update([row])
        merged = tree_merge(shards)
        assert merged.n_rows == len(rows)

        serial = StreamingContingency(names, "y").update(rows)
        assert snapshot_key(merged) == snapshot_key(serial)

        auditor = FairnessAuditor(names, "y", posterior_samples=6, seed=11)
        reference = auditor.audit_contingency(serial.snapshot())
        sharded = auditor.audit_contingency(merged.snapshot())
        for subset, result in reference.sweep.results.items():
            assert sharded.sweep.results[subset].epsilon == result.epsilon
        assert sharded.posterior.mean == reference.posterior.mean
        assert sharded.posterior.quantiles == reference.posterior.quantiles
        assert sharded.to_text() == reference.to_text()

    def test_empty_and_unseen_level_shards_merge_exactly(self):
        """The deterministic worst case: empties plus disjoint levels."""
        names = ["f0"]
        shards = [
            StreamingContingency(names, "y"),  # never sees a row
            StreamingContingency(names, "y").update(
                [("a0", "no"), ("a0", "yes")]
            ),
            StreamingContingency(names, "y"),  # also empty
            StreamingContingency(names, "y").update(
                [("a2", "maybe"), ("a1", "no")]  # levels unseen elsewhere
            ),
        ]
        merged = tree_merge(shards)
        serial = StreamingContingency(names, "y").update(
            [("a0", "no"), ("a0", "yes"), ("a2", "maybe"), ("a1", "no")]
        )
        assert snapshot_key(merged) == snapshot_key(serial)


@st.composite
def mixed_streams(draw):
    """(factor names, batches): mixed-type levels, new ones mid-stream."""
    n_factors = draw(st.integers(1, 3))
    names = [f"f{index}" for index in range(n_factors)]

    def rows(pool, outcomes):
        cell = st.tuples(
            *(st.sampled_from(pool) for _ in names), st.sampled_from(outcomes)
        )
        return st.lists(cell, min_size=1, max_size=15)

    early = rows(MIXED_POOL, MIXED_OUTCOMES)
    late = rows(MIXED_POOL + LATE_LEVELS, MIXED_OUTCOMES + ("late",))
    n_batches = draw(st.integers(1, 6))
    batches = [
        draw(early if index < n_batches // 2 else late)
        for index in range(n_batches)
    ]
    return names, batches


def typed_fingerprint(contingency: ContingencyTable):
    """Levels with their exact type and repr, plus the count bytes."""
    return (
        [
            [(type(level), repr(level)) for level in levels]
            for levels in [*contingency.factor_levels, contingency.outcome_levels]
        ],
        contingency.counts.dtype,
        contingency.counts.tobytes(),
    )


def from_table_reference(names, seen, counted) -> ContingencyTable:
    """``from_table`` over the counted rows, with the categorical levels
    ``Column.categorical`` infers from every row ever counted in (a
    retraction zeroes counts but keeps levels)."""
    columns = [*names, "y"]
    inferred = Table.from_dict(
        {name: [row[i] for row in seen] for i, name in enumerate(columns)},
        categorical=columns,
    )
    table = Table(
        [
            Column.categorical(
                name,
                [row[i] for row in counted],
                levels=inferred.column(name).levels,
            )
            for i, name in enumerate(columns)
        ]
    )
    return ContingencyTable.from_table(table, names, "y")


class TestCachedRowPath:
    @given(mixed_streams(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_interleaved_update_retract_matches_from_table(self, stream, data):
        names, batches = stream
        accumulator = StreamingContingency(names, "y")
        seen: list = []
        counted: list = []
        for batch in batches:
            accumulator.update(batch)
            seen.extend(batch)
            counted.extend(batch)
            picks = data.draw(
                st.sets(st.integers(0, len(counted) - 1), max_size=len(counted))
            )
            accumulator.retract(
                data.draw(st.permutations([counted[i] for i in picks]))
            )
            counted = [row for i, row in enumerate(counted) if i not in picks]
            assert accumulator.n_rows == len(counted)
            # At most one cache entry per cell (equal rows share one).
            assert len(accumulator._cells) <= accumulator.counts.size
            assert typed_fingerprint(accumulator.snapshot()) == typed_fingerprint(
                from_table_reference(names, seen, counted)
            )

    @given(mixed_streams(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_merged_and_restored_accumulators_keep_counting(self, stream, data):
        """``merge`` and ``from_state`` build through ``__new__``; both
        start an empty cache and then count like a serial pass."""
        names, batches = stream
        split = data.draw(st.integers(0, len(batches)))
        prefix = [row for batch in batches[:split] for row in batch]
        suffix = [row for batch in batches[split:] for row in batch]
        left = StreamingContingency(names, "y").update(prefix)
        right = StreamingContingency(names, "y").update(prefix[::-1])
        merged = left.merge(right)  # counts the prefix twice
        restored = StreamingContingency.from_state(left.state_dict())
        for batch in batches[split:]:
            merged.update(batch)
            restored.update(batch)
        for accumulator, rows in (
            (merged, prefix * 2 + suffix),
            (restored, prefix + suffix),
        ):
            assert typed_fingerprint(accumulator.snapshot()) == typed_fingerprint(
                from_table_reference(names, rows, rows)
            )


def chunk_column(name, values, levels=None) -> Column:
    """A chunk column over its own levels, as the CSV reader builds it,
    or over ``levels`` with int32 codes, as ``full_table`` builds it."""
    column = Column.categorical(name, values, levels=levels)
    if levels is None:
        return column
    return Column(name, CATEGORICAL, column.codes.astype(np.int32), levels)


class TestTablePath:
    """``update_table`` against the row path and ``from_table``.

    Each chunk table carries either its own levels or the whole
    stream's. Accumulators are dynamic or pinned, in canonical or
    shuffled order, so columns whose levels already sit in the axis's
    order and columns that need a gather both run.
    """

    @given(mixed_streams(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_table_chunks_match_the_row_path(self, stream, data):
        names, batches = stream
        rows = [row for batch in batches for row in batch]
        columns = [*names, "y"]
        whole = Table.from_dict(
            {name: [row[i] for row in rows] for i, name in enumerate(columns)},
            categorical=columns,
        )
        stream_levels = [whole.column(name).levels for name in columns]
        pinned = data.draw(st.booleans())
        declared = [
            tuple(data.draw(st.permutations(levels))) if pinned else levels
            for levels in stream_levels
        ]
        pins = (declared[:-1], declared[-1]) if pinned else ()
        by_table = StreamingContingency(names, "y", *pins)
        by_rows = StreamingContingency(names, "y", *pins)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=5)))
        for start, stop in zip([0, *cuts], [*cuts, len(rows)]):
            chunk = rows[start:stop]
            wide = data.draw(st.booleans())
            by_table.update_table(
                Table(
                    [
                        chunk_column(
                            name,
                            [row[i] for row in chunk],
                            stream_levels[i] if wide else None,
                        )
                        for i, name in enumerate(columns)
                    ]
                )
            )
            by_rows.update(chunk)
        assert by_table.n_rows == by_rows.n_rows == len(rows)
        fingerprint = typed_fingerprint(by_table.snapshot())
        assert fingerprint == typed_fingerprint(by_rows.snapshot())
        if pinned:  # snapshots in the declared order
            reference = ContingencyTable.from_table(
                Table(
                    [
                        Column.categorical(
                            name, [row[i] for row in rows], levels=declared[i]
                        )
                        for i, name in enumerate(columns)
                    ]
                ),
                names,
                "y",
            )
        else:
            reference = from_table_reference(names, rows, rows)
        assert fingerprint == typed_fingerprint(reference)


cells = st.one_of(
    st.text(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.none(),
)


@st.composite
def in_domain_records(draw):
    width = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.lists(cells, min_size=width, max_size=width), min_size=1, max_size=8
        )
    )
    record = {"rows": rows}
    if draw(st.booleans()):
        record["batch_id"] = draw(st.text(min_size=1, max_size=16))
    return width, record


class TestWalRecordBytes:
    @given(in_domain_records())
    @settings(max_examples=60, deadline=None)
    def test_payload_is_the_v1_encoding(self, case):
        width, record = case
        ts = 1_700_000_000.25
        canonical = canonical_rows(record["rows"], [f"c{i}" for i in range(width)])
        with tempfile.TemporaryDirectory() as directory:
            wal = WriteAheadLog(directory, fsync=False, clock=lambda: ts)
            wal.append({**record, "rows": canonical})
            (replayed,) = wal.records()
            wal.close()
            segment = next(Path(directory).glob("wal-*.seg")).read_bytes()
        v1 = json.dumps(
            sanitize_floats({"seq": 1, "ts": ts, **record}),
            separators=(",", ":"),
            allow_nan=False,
        ).encode("utf-8")
        assert segment.endswith(encode_record(v1))
        # Replay decodes exactly the values (and types) the live path saw.
        decoded = canonical_rows(replayed["rows"], [f"c{i}" for i in range(width)])
        assert [[(type(c), c) for c in row] for row in decoded] == [
            [(type(c), c) for c in row] for row in canonical
        ]
