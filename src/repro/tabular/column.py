"""Typed columns: the storage unit of :class:`repro.tabular.Table`.

A column is immutable once constructed. Categorical columns store integer
codes plus a level list (dictionary encoding), which makes the group-by and
contingency-table operations in this package O(n) integer work.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from repro.exceptions import SchemaError, ValidationError

__all__ = ["Column", "CATEGORICAL", "NUMERIC", "BOOLEAN"]

CATEGORICAL = "categorical"
NUMERIC = "numeric"
BOOLEAN = "boolean"
_KINDS = (CATEGORICAL, NUMERIC, BOOLEAN)


class Column:
    """A named, typed, immutable vector of values.

    Use the constructors :meth:`categorical`, :meth:`numeric`,
    :meth:`boolean`, or :meth:`infer` rather than ``__init__`` directly.
    """

    __slots__ = ("name", "kind", "_data", "_levels")

    def __init__(
        self,
        name: str,
        kind: str,
        data: np.ndarray,
        levels: tuple[Any, ...] | None = None,
    ):
        if kind not in _KINDS:
            raise ValidationError(f"unknown column kind {kind!r}")
        if kind == CATEGORICAL and levels is None:
            raise ValidationError("categorical columns require levels")
        if kind != CATEGORICAL and levels is not None:
            raise ValidationError(f"{kind} columns must not define levels")
        self.name = str(name)
        self.kind = kind
        self._data = data
        self._data.setflags(write=False)
        self._levels = levels

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def categorical(
        cls,
        name: str,
        values: Iterable[Any],
        levels: Sequence[Any] | None = None,
    ) -> "Column":
        """Build a dictionary-encoded categorical column.

        ``levels`` fixes the level order (and allows levels absent from the
        data); when omitted, levels are the sorted distinct values.
        """
        values = list(values)
        if levels is None:
            levels = sorted(set(values), key=lambda item: (str(type(item)), str(item)))
        levels = tuple(levels)
        index = {level: code for code, level in enumerate(levels)}
        if len(index) != len(levels):
            raise ValidationError(f"column {name!r}: duplicate levels in {levels}")
        try:
            codes = np.fromiter(
                (index[value] for value in values), dtype=np.int64, count=len(values)
            )
        except KeyError as error:
            raise ValidationError(
                f"column {name!r}: value {error.args[0]!r} not in levels"
            ) from error
        return cls(name, CATEGORICAL, codes, levels)

    @classmethod
    def from_codes(
        cls, name: str, codes: Iterable[int], levels: Sequence[Any]
    ) -> "Column":
        """Build a categorical column from pre-computed integer codes."""
        levels = tuple(levels)
        if len(set(levels)) != len(levels):
            raise ValidationError(f"column {name!r}: duplicate levels in {levels}")
        code_array = np.asarray(list(codes) if not isinstance(codes, np.ndarray) else codes)
        code_array = code_array.astype(np.int64, copy=True)
        if code_array.size and (code_array.min() < 0 or code_array.max() >= len(levels)):
            raise ValidationError(
                f"column {name!r}: codes out of range for {len(levels)} levels"
            )
        return cls(name, CATEGORICAL, code_array, levels)

    @classmethod
    def numeric(cls, name: str, values: Iterable[float]) -> "Column":
        """Build a float64 column."""
        array = np.asarray(
            list(values) if not isinstance(values, np.ndarray) else values, dtype=float
        ).copy()
        if array.ndim != 1:
            raise ValidationError(f"column {name!r}: values must be 1-dimensional")
        return cls(name, NUMERIC, array)

    @classmethod
    def boolean(cls, name: str, values: Iterable[bool]) -> "Column":
        """Build a boolean column."""
        array = np.asarray(
            list(values) if not isinstance(values, np.ndarray) else values, dtype=bool
        ).copy()
        if array.ndim != 1:
            raise ValidationError(f"column {name!r}: values must be 1-dimensional")
        return cls(name, BOOLEAN, array)

    @classmethod
    def infer(cls, name: str, values: Iterable[Any]) -> "Column":
        """Infer the column kind from Python value types.

        Booleans become boolean columns, numbers numeric, everything else
        categorical (including mixed content).
        """
        values = list(values)
        if values and all(isinstance(value, bool) for value in values):
            return cls.boolean(name, values)
        if values and all(
            isinstance(value, (int, float)) and not isinstance(value, bool)
            for value in values
        ):
            return cls.numeric(name, values)
        return cls.categorical(name, values)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self._data.shape[0])

    def __repr__(self) -> str:
        return f"Column({self.name!r}, kind={self.kind!r}, n={len(self)})"

    @property
    def levels(self) -> tuple[Any, ...]:
        """Level list of a categorical column."""
        if self.kind != CATEGORICAL:
            raise SchemaError(f"column {self.name!r} is {self.kind}, not categorical")
        assert self._levels is not None
        return self._levels

    @property
    def codes(self) -> np.ndarray:
        """Integer codes of a categorical column (read-only view)."""
        if self.kind != CATEGORICAL:
            raise SchemaError(f"column {self.name!r} is {self.kind}, not categorical")
        return self._data

    @property
    def values(self) -> np.ndarray:
        """Decoded values: object array for categoricals, raw array otherwise."""
        if self.kind == CATEGORICAL:
            level_array = np.asarray(self._levels, dtype=object)
            return level_array[self._data]
        return self._data

    def to_list(self) -> list[Any]:
        """Values as a plain Python list."""
        if self.kind == CATEGORICAL:
            return [self._levels[code] for code in self._data]
        return self._data.tolist()

    def unique(self) -> list[Any]:
        """Distinct values present in the data, in level/sorted order."""
        if self.kind == CATEGORICAL:
            present = np.unique(self._data)
            return [self._levels[code] for code in present]
        return np.unique(self._data).tolist()

    # ------------------------------------------------------------------
    # Vectorised operations
    # ------------------------------------------------------------------
    def equals_mask(self, value: Any) -> np.ndarray:
        """Boolean mask of rows equal to ``value``."""
        if self.kind == CATEGORICAL:
            try:
                code = self.levels.index(value)
            except ValueError:
                return np.zeros(len(self), dtype=bool)
            return self._data == code
        return self._data == value

    def isin_mask(self, values: Iterable[Any]) -> np.ndarray:
        """Boolean mask of rows whose value is in ``values``."""
        mask = np.zeros(len(self), dtype=bool)
        for value in values:
            mask |= self.equals_mask(value)
        return mask

    def take(self, indices: np.ndarray) -> "Column":
        """New column containing the rows at ``indices`` (or boolean mask)."""
        indices = np.asarray(indices)
        data = self._data[indices]
        if self.kind == CATEGORICAL:
            return Column(self.name, CATEGORICAL, data.copy(), self._levels)
        return Column(self.name, self.kind, data.copy())

    def rename(self, name: str) -> "Column":
        """New column with the same data under a different name."""
        return Column(name, self.kind, self._data, self._levels)

    def with_levels(self, levels: Sequence[Any]) -> "Column":
        """Re-encode a categorical column onto a superset level list."""
        if self.kind != CATEGORICAL:
            raise SchemaError(f"column {self.name!r} is {self.kind}, not categorical")
        new_levels = tuple(levels)
        index = {level: code for code, level in enumerate(new_levels)}
        try:
            mapping = np.asarray(
                [index[level] for level in self.levels], dtype=np.int64
            )
        except KeyError as error:
            raise ValidationError(
                f"column {self.name!r}: level {error.args[0]!r} missing from new levels"
            ) from error
        return Column(self.name, CATEGORICAL, mapping[self._data], new_levels)

    def map_levels(self, mapping: dict[Any, Any]) -> "Column":
        """Merge/rename categorical levels via ``mapping`` (identity default).

        This is how the case study merges the tiny ``Amer-Indian-Eskimo``
        race category into ``Other``, as the paper does.
        """
        if self.kind != CATEGORICAL:
            raise SchemaError(f"column {self.name!r} is {self.kind}, not categorical")
        mapped = [mapping.get(level, level) for level in self.levels]
        new_levels = []
        for level in mapped:
            if level not in new_levels:
                new_levels.append(level)
        index = {level: code for code, level in enumerate(new_levels)}
        recode = np.asarray([index[level] for level in mapped], dtype=np.int64)
        return Column(self.name, CATEGORICAL, recode[self._data], tuple(new_levels))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        if self.name != other.name or self.kind != other.kind:
            return False
        if self.kind == CATEGORICAL:
            return self._levels == other._levels and np.array_equal(
                self._data, other._data
            )
        return np.array_equal(self._data, other._data, equal_nan=True)

    def __hash__(self) -> int:  # Columns are mutable-free but arrays unhashable
        return id(self)
