"""Tests for repro.core.streaming (the mergeable contingency accumulator)."""

import numpy as np
import pytest

from repro.core.streaming import StreamingContingency, canonical_level_order
from repro.exceptions import SchemaError, ValidationError
from repro.tabular.crosstab import ContingencyTable
from repro.tabular.table import Table

ROWS = (
    [("A", "X", "yes")] * 3
    + [("A", "X", "no")] * 1
    + [("A", "Y", "yes")] * 1
    + [("A", "Y", "no")] * 3
    + [("B", "X", "yes")] * 2
    + [("B", "X", "no")] * 2
    + [("B", "Y", "yes")] * 2
    + [("B", "Y", "no")] * 2
)


def reference_contingency(rows=ROWS) -> ContingencyTable:
    table = Table.from_rows(["gender", "race", "hired"], rows)
    return ContingencyTable.from_table(table, ["gender", "race"], "hired")


class TestUpdateAndSnapshot:
    def test_snapshot_matches_from_table_bitwise(self):
        accumulator = StreamingContingency(["gender", "race"], "hired")
        accumulator.update(ROWS)
        snapshot = accumulator.snapshot()
        reference = reference_contingency()
        assert snapshot.factor_names == reference.factor_names
        assert snapshot.factor_levels == reference.factor_levels
        assert snapshot.outcome_levels == reference.outcome_levels
        assert np.array_equal(snapshot.counts, reference.counts)
        assert snapshot.counts.dtype == reference.counts.dtype

    def test_arrival_order_does_not_matter(self):
        forward = StreamingContingency(["gender", "race"], "hired")
        forward.update(ROWS)
        backward = StreamingContingency(["gender", "race"], "hired")
        backward.update(ROWS[::-1])
        assert np.array_equal(
            forward.snapshot().counts, backward.snapshot().counts
        )

    def test_incremental_equals_bulk(self):
        bulk = StreamingContingency(["gender", "race"], "hired").update(ROWS)
        incremental = StreamingContingency(["gender", "race"], "hired")
        for row in ROWS:
            incremental.update([row])
        assert np.array_equal(
            bulk.snapshot().counts, incremental.snapshot().counts
        )
        assert incremental.n_rows == len(ROWS)

    def test_pinned_levels_keep_declared_order(self):
        accumulator = StreamingContingency(
            ["gender", "race"],
            "hired",
            factor_levels=[("B", "A"), ("Y", "X")],
            outcome_levels=("yes", "no"),
        )
        accumulator.update(ROWS)
        snapshot = accumulator.snapshot()
        assert snapshot.factor_levels == [("B", "A"), ("Y", "X")]
        assert snapshot.outcome_levels == ("yes", "no")
        # Same data, different layout: cell lookups agree with reference.
        reference = reference_contingency()
        for group in reference.group_labels():
            for outcome in reference.outcome_levels:
                assert snapshot.cell(group, outcome) == reference.cell(
                    group, outcome
                )

    def test_pinned_axis_rejects_unseen_level(self):
        accumulator = StreamingContingency(
            ["gender"], "hired", factor_levels=[("A", "B")]
        )
        with pytest.raises(ValidationError):
            accumulator.update([("C", "yes")])

    def test_update_empty_is_noop(self):
        accumulator = StreamingContingency(["gender"], "hired")
        accumulator.update([])
        assert accumulator.n_rows == 0

    def test_bad_row_width_raises(self):
        accumulator = StreamingContingency(["gender", "race"], "hired")
        with pytest.raises(ValidationError):
            accumulator.update([("A", "yes")])

    def test_counts_view_is_read_only(self):
        accumulator = StreamingContingency(["gender"], "hired")
        accumulator.update([("A", "yes")])
        with pytest.raises(ValueError):
            accumulator.counts[0, 0] = 5


class TestRetract:
    def test_retract_unseen_row_raises(self):
        accumulator = StreamingContingency(["gender"], "hired")
        accumulator.update([("A", "yes")])
        with pytest.raises(ValidationError):
            accumulator.retract([("A", "no"), ("A", "yes")])

    def test_retract_more_than_counted_raises(self):
        accumulator = StreamingContingency(["gender"], "hired")
        accumulator.update([("A", "yes")])
        with pytest.raises(ValidationError):
            accumulator.retract([("A", "yes"), ("A", "yes")])

    def test_retract_keeps_levels_but_zeroes_counts(self):
        accumulator = StreamingContingency(["gender"], "hired")
        accumulator.update([("A", "yes"), ("B", "no")])
        accumulator.retract([("B", "no")])
        snapshot = accumulator.snapshot()
        assert snapshot.factor_levels == [("A", "B")]
        assert snapshot.cell(("B",), "no") == 0
        assert accumulator.n_rows == 1


class TestTableFastPath:
    def test_update_table_matches_row_path(self, hiring_table):
        by_rows = StreamingContingency(["gender", "race"], "hired").update(ROWS)
        by_table = StreamingContingency(["gender", "race"], "hired")
        by_table.update_table(hiring_table)
        assert np.array_equal(
            by_table.snapshot().counts, by_rows.snapshot().counts
        )

    def test_non_categorical_column_raises(self, numeric_table):
        accumulator = StreamingContingency(["x"], "group")
        with pytest.raises(SchemaError):
            accumulator.update_table(numeric_table)

    def test_rejected_table_leaves_levels_and_shape_untouched(self):
        # The dynamic factor axes come before the pinned outcome axis that
        # rejects the chunk: no axis may grow before every axis is checked.
        accumulator = StreamingContingency(
            ["a", "b"], "y", outcome_levels=["n", "p"]
        )
        accumulator.update([("a", "b", "n")])
        with pytest.raises(ValidationError, match="pinned"):
            accumulator.update_table(
                Table.from_rows(["a", "b", "y"], [("a2", "b2", "maybe")])
            )
        assert accumulator.factor_levels == [("a",), ("b",)]
        assert accumulator.counts.shape == (1, 1, 2)
        assert accumulator.n_rows == 1


class TestMerge:
    def test_merge_mismatched_schema_raises(self):
        left = StreamingContingency(["gender"], "hired")
        with pytest.raises(SchemaError):
            left.merge(StreamingContingency(["race"], "hired"))
        with pytest.raises(SchemaError):
            left.merge(StreamingContingency(["gender"], "loan"))

    def test_merge_conflicting_pinned_levels_raise(self):
        left = StreamingContingency(
            ["gender"], "hired", factor_levels=[("A", "B")]
        )
        right = StreamingContingency(
            ["gender"], "hired", factor_levels=[("B", "A")]
        )
        with pytest.raises(SchemaError):
            left.merge(right)

    def test_merge_disjoint_levels(self):
        left = StreamingContingency(["gender"], "hired").update(
            [("A", "yes"), ("A", "no")]
        )
        right = StreamingContingency(["gender"], "hired").update(
            [("B", "no"), ("B", "no")]
        )
        merged = left.merge(right).snapshot()
        assert merged.factor_levels == [("A", "B")]
        assert merged.cell(("A",), "yes") == 1
        assert merged.cell(("B",), "no") == 2

    def test_merge_does_not_mutate_inputs(self):
        left = StreamingContingency(["gender"], "hired").update([("A", "yes")])
        right = StreamingContingency(["gender"], "hired").update([("B", "no")])
        left_before = left.snapshot().counts.copy()
        left.merge(right)
        assert np.array_equal(left.snapshot().counts, left_before)
        assert left.factor_levels == [("A",)]


class TestCheckpoint:
    def test_state_roundtrip(self):
        accumulator = StreamingContingency(["gender", "race"], "hired")
        accumulator.update(ROWS)
        restored = StreamingContingency.from_state(accumulator.state_dict())
        assert np.array_equal(
            restored.snapshot().counts, accumulator.snapshot().counts
        )
        assert restored.n_rows == accumulator.n_rows
        # The restored accumulator keeps streaming independently.
        restored.update([("A", "X", "yes")])
        assert restored.n_rows == accumulator.n_rows + 1

    def test_checkpoint_is_isolated_from_source(self):
        accumulator = StreamingContingency(["gender"], "hired")
        accumulator.update([("A", "yes")])
        state = accumulator.state_dict()
        accumulator.update([("A", "yes")])
        assert StreamingContingency.from_state(state).total() == 1

    def test_tampered_state_rejected(self):
        accumulator = StreamingContingency(["gender"], "hired")
        accumulator.update([("A", "yes")])
        state = accumulator.state_dict()
        state["counts"] = state["counts"][:, :0]
        with pytest.raises(ValidationError):
            StreamingContingency.from_state(state)
        state = accumulator.state_dict()
        state["counts"] = state["counts"] - 5
        with pytest.raises(ValidationError):
            StreamingContingency.from_state(state)

    def test_copy_preserves_pinning(self):
        accumulator = StreamingContingency(
            ["gender"], "hired", factor_levels=[("B", "A")]
        )
        accumulator.update([("A", "yes")])
        duplicate = accumulator.copy()
        assert duplicate.snapshot().factor_levels == [("B", "A")]
        with pytest.raises(ValidationError):
            duplicate.update([("C", "yes")])


class TestConstructorValidation:
    def test_no_factors_raises(self):
        with pytest.raises(ValidationError):
            StreamingContingency([], "hired")

    def test_duplicate_factors_raise(self):
        with pytest.raises(ValidationError):
            StreamingContingency(["a", "a"], "hired")

    def test_outcome_in_factors_raises(self):
        with pytest.raises(ValidationError):
            StreamingContingency(["a"], "a")

    def test_duplicate_pinned_levels_raise(self):
        with pytest.raises(ValidationError):
            StreamingContingency(["a"], "y", factor_levels=[("x", "x")])

    def test_factor_levels_length_mismatch_raises(self):
        with pytest.raises(ValidationError):
            StreamingContingency(["a", "b"], "y", factor_levels=[("x",)])


def test_canonical_level_order_matches_column_inference():
    values = ["b", "a", "c", "a"]
    inferred = Table.from_rows(["v", "w"], [(v, "x") for v in values])
    assert tuple(canonical_level_order(set(values))) == inferred.column("v").levels
