"""Tests for repro.tabular.column."""

import numpy as np
import pytest

from repro.exceptions import SchemaError, ValidationError
from repro.tabular.column import Column


class TestCategoricalConstruction:
    def test_levels_inferred_sorted(self):
        column = Column.categorical("c", ["b", "a", "b"])
        assert column.levels == ("a", "b")
        assert column.to_list() == ["b", "a", "b"]

    def test_explicit_levels_preserved(self):
        column = Column.categorical("c", ["x"], levels=["y", "x", "z"])
        assert column.levels == ("y", "x", "z")
        assert column.codes.tolist() == [1]

    def test_value_outside_levels_rejected(self):
        with pytest.raises(ValidationError, match="not in levels"):
            Column.categorical("c", ["q"], levels=["a", "b"])

    def test_duplicate_levels_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            Column.categorical("c", ["a"], levels=["a", "a"])

    def test_from_codes(self):
        column = Column.from_codes("c", [0, 1, 0], ["lo", "hi"])
        assert column.to_list() == ["lo", "hi", "lo"]

    def test_from_codes_range_checked(self):
        with pytest.raises(ValidationError, match="out of range"):
            Column.from_codes("c", [2], ["a", "b"])

    def test_from_codes_duplicate_levels_rejected(self):
        # 1 == True: one level listed twice, which update_table would
        # grow into two axis levels for one dictionary key.
        with pytest.raises(ValidationError, match="duplicate"):
            Column.from_codes("y", [0, 1, 1], [1, True])

    def test_empty_categorical(self):
        column = Column.categorical("c", [], levels=["a"])
        assert len(column) == 0


class TestNumericAndBoolean:
    def test_numeric_values(self):
        column = Column.numeric("x", [1, 2, 3])
        assert column.kind == "numeric"
        assert column.values.dtype == float

    def test_numeric_rejects_2d(self):
        with pytest.raises(ValidationError):
            Column.numeric("x", np.zeros((2, 2)))

    def test_boolean(self):
        column = Column.boolean("flag", [True, False])
        assert column.values.dtype == bool

    def test_levels_rejected_for_numeric(self):
        with pytest.raises(ValidationError):
            Column("x", "numeric", np.zeros(2), levels=("a",))

    def test_categorical_requires_levels(self):
        with pytest.raises(ValidationError):
            Column("x", "categorical", np.zeros(2, dtype=np.int64))


class TestInfer:
    def test_strings_categorical(self):
        assert Column.infer("c", ["a", "b"]).kind == "categorical"

    def test_numbers_numeric(self):
        assert Column.infer("c", [1, 2.5]).kind == "numeric"

    def test_bools_boolean(self):
        assert Column.infer("c", [True, False]).kind == "boolean"

    def test_mixed_becomes_categorical(self):
        assert Column.infer("c", ["a", "a", "b"]).kind == "categorical"


class TestOperations:
    def test_equals_mask(self):
        column = Column.categorical("c", ["a", "b", "a"])
        assert column.equals_mask("a").tolist() == [True, False, True]

    def test_equals_mask_unknown_value(self):
        column = Column.categorical("c", ["a"])
        assert column.equals_mask("zzz").tolist() == [False]

    def test_isin_mask(self):
        column = Column.categorical("c", ["a", "b", "c"])
        assert column.isin_mask(["a", "c"]).tolist() == [True, False, True]

    def test_take_with_indices(self):
        column = Column.numeric("x", [10.0, 20.0, 30.0])
        assert column.take(np.array([2, 0])).values.tolist() == [30.0, 10.0]

    def test_take_with_mask(self):
        column = Column.categorical("c", ["a", "b", "a"])
        taken = column.take(np.array([True, False, True]))
        assert taken.to_list() == ["a", "a"]

    def test_unique_in_level_order(self):
        column = Column.categorical("c", ["b", "a"], levels=["b", "a"])
        assert column.unique() == ["b", "a"]

    def test_unique_excludes_absent_levels(self):
        column = Column.categorical("c", ["a"], levels=["a", "b"])
        assert column.unique() == ["a"]

    def test_rename(self):
        assert Column.numeric("x", [1.0]).rename("y").name == "y"

    def test_with_levels_superset(self):
        column = Column.categorical("c", ["a", "b"])
        widened = column.with_levels(["z", "b", "a"])
        assert widened.to_list() == ["a", "b"]
        assert widened.levels == ("z", "b", "a")

    def test_with_levels_missing_rejected(self):
        column = Column.categorical("c", ["a", "b"])
        with pytest.raises(ValidationError, match="missing"):
            column.with_levels(["a"])

    def test_map_levels_merges(self):
        column = Column.categorical("race", ["W", "A", "O", "A"])
        merged = column.map_levels({"A": "O"})
        assert merged.to_list() == ["W", "O", "O", "O"]
        assert set(merged.levels) == {"W", "O"}

    def test_levels_on_numeric_raises(self):
        with pytest.raises(SchemaError):
            Column.numeric("x", [1.0]).levels

    def test_immutability(self):
        column = Column.numeric("x", [1.0, 2.0])
        with pytest.raises(ValueError):
            column.values[0] = 99.0

    def test_equality(self):
        a = Column.categorical("c", ["a", "b"])
        b = Column.categorical("c", ["a", "b"])
        assert a == b
        assert a != Column.categorical("c", ["b", "a"])
