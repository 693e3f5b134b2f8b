"""Streaming contingency accumulation: the paper's counts, incrementally.

Every differential fairness measurement in this library is a function of
the per-group outcome counts ``N_{y, s}`` (Equations 6 and 7), which makes
the whole framework naturally *incremental*: rows can be counted in as
they arrive, counted out as they leave a sliding window, and partial
counts from independent shards can be added together. This module provides
the accumulator that makes those deployments first-class:

:class:`StreamingContingency`
    A mutable count tensor over the full intersection of the protected
    attributes with four core operations:

    * ``update(rows)`` — count rows in (O(k) for k rows);
    * ``retract(rows)`` — count rows out, for sliding windows (an exact
      inverse: integer counts make retraction lossless);
    * ``merge(other)`` — combine two accumulators; associative and
      commutative, so any shard/reduce tree over a partitioned stream
      produces the same counts as one sequential pass;
    * ``snapshot()`` — freeze the current counts into a
      :class:`repro.tabular.crosstab.ContingencyTable` in *canonical*
      (declaration or sorted) level order, so every existing kernel —
      :func:`repro.core.empirical.edf_from_contingency`,
      :func:`repro.core.sweep.sweep_results`,
      :func:`repro.core.sweep.posterior_subset_sweep` — applies unchanged,
      bit-identically to the one-shot
      :meth:`ContingencyTable.from_table` path on the same rows.

    Checkpointing is ``state_dict()`` / :meth:`from_state` — one array
    copy, cheap enough to take per ingestion batch.

Level handling
--------------
Axes may be *pinned* (levels declared up front; unseen values raise, as
:meth:`Column.categorical` does with explicit levels) or *dynamic*
(levels discovered from the data; the tensor grows as new levels appear).
Dynamic axes store levels in first-seen order internally but
:meth:`snapshot` reorders them with the same canonical sort
:class:`repro.tabular.column.Column` uses for inferred categoricals, so
two accumulators that saw the same multiset of rows in different orders —
or through different merge trees — produce bitwise-equal snapshots.

The level domain
----------------
A row-path level is a ``str``, ``bool``, ``int``, finite ``float`` or
``None``: exactly the values a strict-JSON write-ahead-log record carries
through a crash and a replay unchanged. :func:`canonical_rows` checks a
batch against it once at ingress; numpy bool/integer/floating scalars and
subclasses of ``str``, ``int`` and ``float`` become the plain Python value
(``np.int64(3)`` is stored as ``3``), while non-finite floats, lists,
dicts and every other type are rejected with a
:class:`~repro.exceptions.ValidationError` naming the value and its
column. Levels are dictionary keys, so values that are equal in Python
(``True``, ``1`` and ``1.0``) are one level, stored as the first-seen
object. :class:`StreamingContingency` itself normalises every new level
the same way and refuses non-finite floats, unhashable cells and ``str``
rows, but keeps other hashable values (a tuple level) for in-memory
audits; the ``.rcpk`` checkpoint refuses those at save time.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from itertools import chain
from typing import Any

import numpy as np

from repro.exceptions import SchemaError, ValidationError
from repro.tabular.column import CATEGORICAL
from repro.tabular.crosstab import ContingencyTable
from repro.tabular.table import Table

__all__ = [
    "StreamingContingency",
    "canonical_level_order",
    "canonical_rows",
]

# Cell types that pass ingress unchanged.
_PLAIN_LEVEL_TYPES = frozenset((str, bool, int, type(None)))
# What _canonical_level maps to a plain value (or refuses as non-finite).
_SCALAR_TYPES = (str, int, float, np.bool_, np.integer, np.floating)


def canonical_level_order(levels: Sequence[Any]) -> list[Any]:
    """Sort levels exactly as :meth:`Column.categorical` infers them.

    Dynamic accumulators store levels in first-seen order (which depends
    on arrival order); snapshots canonicalise with this ordering so the
    count tensor matches :meth:`ContingencyTable.from_table` on a table
    whose categorical levels were inferred from the same values.
    """
    return sorted(levels, key=lambda item: (str(type(item)), str(item)))


def _canonical_level(value: Any, column: str) -> Any:
    """``value`` as a member of the level domain (see the module docstring).

    Returns the plain Python value for numpy scalars and for subclasses
    of ``str``/``int``/``float``; raises :class:`ValidationError` naming
    the value and ``column`` for a non-finite float or any other type.
    """
    kind = type(value)
    if kind in _PLAIN_LEVEL_TYPES:
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, str):
        return str.__str__(value)
    if isinstance(value, int):
        return int.__int__(value)
    if isinstance(value, (float, np.floating)):
        number = (
            float.__float__(value) if isinstance(value, float) else float(value)
        )
        if math.isfinite(number):
            return number
        raise ValidationError(
            f"column {column!r}: {value!r} is not a finite float; levels "
            "are str, bool, int, finite float or None"
        )
    raise ValidationError(
        f"column {column!r}: {value!r} ({kind.__name__}) is not a level; "
        "levels are str, bool, int, finite float or None"
    )


def _row_tuples(
    rows: Iterable[Sequence[Any]], columns: Sequence[str]
) -> list[tuple[Any, ...]]:
    """Rows as tuples of ``len(columns)`` cells, or a ValidationError.

    A ``str``/``bytes`` row (which ``tuple()`` would split into
    characters) and any other non-sequence row are rejected by index.
    """
    rows = rows if type(rows) is list else list(rows)
    row_types = set(map(type, rows))
    if row_types != {tuple}:
        bad = {
            kind
            for kind in row_types
            if issubclass(kind, (str, bytes, bytearray))
            or not issubclass(kind, (Sequence, np.ndarray))
        }
        if bad:
            index = next(i for i, row in enumerate(rows) if type(row) in bad)
            raise ValidationError(
                f"row {index} is a {type(rows[index]).__name__}, not a "
                f"sequence of cells ({list(columns)})"
            )
        rows = [tuple(row) for row in rows]
    width = len(columns)
    if set(map(len, rows)) - {width}:
        index = next(i for i, row in enumerate(rows) if len(row) != width)
        raise ValidationError(
            f"row {index} has {len(rows[index])} cells; rows carry {width} "
            f"({list(columns)})"
        )
    return rows


def canonical_rows(
    rows: Iterable[Sequence[Any]], columns: Sequence[str]
) -> list[tuple[Any, ...]]:
    """Check one batch against the level domain; return its rows as tuples.

    The serving path's single ingress pass: ``Monitor.observe`` runs it
    once before the write-ahead-log append and ``Monitor.replay_wal`` on
    every decoded record, so live apply and replay see the same rows.
    ``columns`` names the cells of a row (protected attributes, then the
    outcome). A batch of plain ``str``/``bool``/``int``/``None`` cells
    costs one C-level pass over the cell types; any other batch (floats,
    numpy scalars, subclasses, out-of-domain values) is walked cell by
    cell.
    """
    rows = _row_tuples(rows, columns)
    if set(map(type, chain.from_iterable(rows))) <= _PLAIN_LEVEL_TYPES:
        return rows
    canonical = []
    for index, row in enumerate(rows):
        try:
            canonical.append(tuple(map(_canonical_level, row, columns)))
        except ValidationError as error:
            raise ValidationError(f"row {index}, {error}") from None
    return canonical


class _Axis:
    """One categorical axis: levels, code lookup, pinned flag."""

    __slots__ = ("name", "levels", "codes", "pinned")

    def __init__(self, name: str, levels: Sequence[Any] | None):
        self.name = name
        self.pinned = levels is not None
        self.levels: list[Any] = list(levels) if levels is not None else []
        self.codes: dict[Any, int] = {
            level: code for code, level in enumerate(self.levels)
        }
        if len(self.codes) != len(self.levels):
            raise ValidationError(
                f"axis {name!r}: duplicate levels in {self.levels}"
            )

    def __len__(self) -> int:
        return len(self.levels)

    def require_dynamic(self, value: Any) -> None:
        """Raise when ``value`` would be a new level of a pinned axis."""
        if self.pinned:
            raise ValidationError(
                f"{value!r} is not a level of pinned axis {self.name!r}; "
                f"levels are {self.levels}"
            )

    def add_level(self, value: Any) -> int:
        self.require_dynamic(value)
        code = len(self.levels)
        self.levels.append(value)
        self.codes[value] = code
        return code

    def snapshot_order(self) -> list[int]:
        """Positions of the canonical level order in the current layout."""
        if self.pinned:
            return list(range(len(self.levels)))
        return [self.codes[level] for level in canonical_level_order(self.levels)]


class StreamingContingency:
    """Mergeable, retractable counts over factors x outcome.

    Parameters
    ----------
    factor_names:
        The protected attribute axes, in declaration order.
    outcome_name:
        The outcome axis name.
    factor_levels / outcome_levels:
        Optional pinned level lists. A pinned axis keeps its declared
        order in snapshots and rejects unseen values; an omitted (dynamic)
        axis discovers levels from the data and snapshots them in
        canonical sorted order.
    """

    def __init__(
        self,
        factor_names: Sequence[str],
        outcome_name: str,
        factor_levels: Sequence[Sequence[Any]] | None = None,
        outcome_levels: Sequence[Any] | None = None,
    ):
        factor_names = list(factor_names)
        if not factor_names:
            raise ValidationError("at least one factor axis is required")
        if len(set(factor_names)) != len(factor_names):
            raise ValidationError(f"duplicate factor names: {factor_names}")
        if outcome_name in factor_names:
            raise ValidationError(
                f"outcome {outcome_name!r} cannot also be a factor"
            )
        if factor_levels is not None and len(factor_levels) != len(factor_names):
            raise ValidationError(
                "factor_levels must list one level sequence per factor"
            )
        self._factors = [
            _Axis(name, None if factor_levels is None else factor_levels[axis])
            for axis, name in enumerate(factor_names)
        ]
        self._outcome = _Axis(outcome_name, outcome_levels)
        self._counts = np.zeros(self._shape(), dtype=np.int64)
        self._n_rows = 0
        self._cells: dict[tuple[Any, ...], int] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def factor_names(self) -> list[str]:
        return [axis.name for axis in self._factors]

    @property
    def outcome_name(self) -> str:
        return self._outcome.name

    @property
    def factor_levels(self) -> list[tuple[Any, ...]]:
        """Current levels per factor, in internal (first-seen) order."""
        return [tuple(axis.levels) for axis in self._factors]

    @property
    def outcome_levels(self) -> tuple[Any, ...]:
        return tuple(self._outcome.levels)

    @property
    def n_rows(self) -> int:
        """Rows currently counted in (updates minus retractions)."""
        return self._n_rows

    @property
    def counts(self) -> np.ndarray:
        """Read-only view of the count tensor in internal level order."""
        view = self._counts.view()
        view.setflags(write=False)
        return view

    def total(self) -> int:
        return int(self._counts.sum())

    def __repr__(self) -> str:
        factors = " x ".join(self.factor_names)
        return (
            f"StreamingContingency({factors} x {self.outcome_name}, "
            f"shape={self._counts.shape}, rows={self._n_rows})"
        )

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _shape(self) -> tuple[int, ...]:
        return tuple(len(axis) for axis in self._factors) + (len(self._outcome),)

    def _axes(self) -> list[_Axis]:
        return [*self._factors, self._outcome]

    def _grow_axis(self, position: int, new_levels: int) -> None:
        pad = [(0, 0)] * self._counts.ndim
        pad[position] = (0, new_levels)
        self._counts = np.pad(self._counts, pad)
        # Growth changes the tensor's strides, so every cached flat
        # index is stale.
        self._cells.clear()

    def _new_levels(self, axis: _Axis, values: Sequence[Any]) -> list[Any]:
        """The distinct ``values`` that are not yet levels of ``axis``,
        in first-seen order, as the axis will store them.

        Strings and numbers (numpy scalars included) pass through
        :func:`_canonical_level`, which stores the plain value and
        rejects a non-finite float. Any other hashable value (a tuple,
        say) is kept as it is: the accumulator also serves in-memory
        audits, and the ``.rcpk`` checkpoint refuses such a level at
        save time. The serving path never gets here with one, because
        :func:`canonical_rows` rejects it at ingress.
        """
        try:
            # dict.fromkeys dedups in C while preserving first-seen
            # order, keeping dynamic level discovery deterministic.
            distinct = dict.fromkeys(values)
        except TypeError as error:
            raise ValidationError(
                f"axis {axis.name!r}: a level must be hashable ({error})"
            ) from None
        return [
            _canonical_level(value, axis.name)
            if isinstance(value, _SCALAR_TYPES)
            else value
            for value in distinct
            if value not in axis.codes
        ]

    def _flat_indices(
        self, rows: Iterable[Sequence[Any]], grow: bool
    ) -> tuple[list[tuple[Any, ...]], np.ndarray]:
        """The per-axis path: rows as tuples and their flat tensor indices.

        Validates the row shapes, then (``grow=True``) collects every
        axis's new levels and checks pinned axes *before* growing any
        axis, so a rejected batch leaves levels and shape untouched.
        Works column-at-a-time (one transpose, then per-axis dictionary
        lookups) so a batch of k rows costs O(k) with small constants.
        """
        axes = self._axes()
        rows = _row_tuples(rows, [axis.name for axis in axes])
        columns = list(zip(*rows))
        if grow:
            additions = [
                self._new_levels(axis, values)
                for axis, values in zip(axes, columns)
            ]
            for axis, new in zip(axes, additions):
                if new:
                    axis.require_dynamic(new[0])
            for position, (axis, new) in enumerate(zip(axes, additions)):
                if new:
                    for value in new:
                        axis.add_level(value)
                    self._grow_axis(position, len(new))
        shape = self._counts.shape
        flat = np.zeros(len(rows), dtype=np.int64)
        for position, axis in enumerate(axes):
            codes = axis.codes
            try:
                axis_codes = np.fromiter(
                    (codes[value] for value in columns[position]),
                    dtype=np.int64,
                    count=len(rows),
                )
            except KeyError as error:
                raise ValidationError(
                    f"{error.args[0]!r} is not a level of axis {axis.name!r}"
                ) from None
            except TypeError as error:  # unhashable: never a level
                raise ValidationError(
                    f"axis {axis.name!r}: a level must be hashable ({error})"
                ) from None
            flat *= shape[position]
            flat += axis_codes
        return rows, flat

    def _lookup(
        self, rows: Iterable[Sequence[Any]], grow: bool
    ) -> tuple[list[Any], np.ndarray]:
        """Rows and their flat indices: one dict lookup per row when every
        row is a cached cell, else the per-axis path (which fills the
        cache)."""
        rows = rows if type(rows) is list else list(rows)
        try:
            flat = np.fromiter(
                map(self._cells.__getitem__, rows),
                dtype=np.int64,
                count=len(rows),
            )
        except (KeyError, TypeError):  # a new cell, or an unhashable row
            rows, flat = self._flat_indices(rows, grow)
            self._cells.update(zip(rows, flat.tolist()))
        return rows, flat

    def update(self, rows: Iterable[Sequence[Any]]) -> "StreamingContingency":
        """Count rows in. Each row is ``(*factor values, outcome value)``.

        New levels follow the level domain: numpy scalars and
        subclasses of ``str``/``int``/``float`` are stored as the plain
        value, and a non-finite float, an unhashable cell, a ``str`` row
        or a row of the wrong width rejects the batch with a
        :class:`ValidationError` (other hashable values are kept as
        they are; see :meth:`_new_levels`). Levels are dictionary keys,
        so ``True``, ``1`` and ``1.0`` are one level (the first-seen
        object is stored). A rejected batch changes nothing.

        Each row tuple is looked up in a per-accumulator cache of
        row -> flat cell index, so a batch whose cells were all seen
        before costs one dictionary lookup per row plus a scatter-add;
        any other batch takes the per-axis path, which grows dynamic
        axes (once per batch) and fills the cache.
        """
        rows, flat = self._lookup(rows, grow=True)
        if not rows:
            return self
        np.add.at(self._counts.reshape(-1), flat, 1)
        self._n_rows += len(rows)
        return self

    def retract(self, rows: Iterable[Sequence[Any]]) -> "StreamingContingency":
        """Count rows out (sliding-window eviction); inverse of :meth:`update`.

        Raises :class:`ValidationError` if any row was never counted in
        (a cell would go negative) or names an unseen level.
        """
        rows, flat = self._lookup(rows, grow=False)
        if not rows:
            return self
        cells, removals = np.unique(flat, return_counts=True)
        counts = self._counts.reshape(-1)
        if np.any(counts[cells] < removals):
            raise ValidationError(
                "retract would make a count negative: some rows were never "
                "counted in"
            )
        np.subtract.at(counts, cells, removals)
        self._n_rows -= len(rows)
        return self

    # ------------------------------------------------------------------
    # Table fast paths (vectorised: per-level lookups, not per-row)
    # ------------------------------------------------------------------
    def _table_flat_indices(self, table: Table) -> np.ndarray:
        columns = [table.column(name) for name in self.factor_names]
        columns.append(table.column(self.outcome_name))
        for column in columns:
            if column.kind != CATEGORICAL:
                raise SchemaError(
                    f"column {column.name!r} must be categorical for "
                    "streaming ingestion"
                )
        # Check every axis's new levels before growing any, as
        # _flat_indices does: a chunk a pinned axis rejects leaves the
        # levels and the count tensor untouched.
        additions = [
            [level for level in column.levels if level not in axis.codes]
            for axis, column in zip(self._axes(), columns)
        ]
        for axis, new in zip(self._axes(), additions):
            if new:
                axis.require_dynamic(new[0])
        for position, (axis, new) in enumerate(zip(self._axes(), additions)):
            if new:
                for level in new:
                    axis.add_level(level)
                self._grow_axis(position, len(new))
        shape = self._counts.shape
        # Every flat index of a tensor under 2**31 cells fits int32, half
        # the bytes of int64 in each pass below.
        dtype = np.int32 if self._counts.size < 2**31 else np.int64
        flat = np.zeros(table.n_rows, dtype=dtype)
        for position, (axis, column) in enumerate(zip(self._axes(), columns)):
            lut = [axis.codes[level] for level in column.levels]
            flat *= shape[position]
            # A column whose levels already sit in the axis's order (a
            # dynamic axis's first chunk, a pinned axis declared in the
            # column's order) adds its codes as they are.
            if lut == list(range(len(lut))):
                flat += column.codes
            else:
                flat += np.take(np.array(lut, dtype=dtype), column.codes)
        return flat

    def update_table(self, table: Table) -> "StreamingContingency":
        """Vectorised :meth:`update` from a table's categorical columns.

        Level-code translation happens once per level, not per row, so a
        chunk of k rows costs one in-place flat index, one integer gather
        per column whose levels are not in the axis's order, and one
        scatter-add.
        """
        if table.n_rows == 0:
            return self
        flat = self._table_flat_indices(table)
        np.add.at(self._counts.reshape(-1), flat, 1)
        self._n_rows += table.n_rows
        return self

    # ------------------------------------------------------------------
    # Merging (sharded ingestion)
    # ------------------------------------------------------------------
    def merge(self, other: "StreamingContingency") -> "StreamingContingency":
        """A new accumulator holding ``self + other``.

        Associative and commutative: level unions are taken axis-by-axis,
        and because :meth:`snapshot` canonicalises dynamic level order,
        any merge tree over the same shards yields bitwise-identical
        snapshots. Pinned axes must agree exactly on both sides; an axis
        is pinned in the result only when pinned in both inputs.
        """
        if self.factor_names != other.factor_names:
            raise SchemaError(
                f"cannot merge: factor names differ "
                f"({self.factor_names} vs {other.factor_names})"
            )
        if self.outcome_name != other.outcome_name:
            raise SchemaError(
                f"cannot merge: outcome names differ "
                f"({self.outcome_name!r} vs {other.outcome_name!r})"
            )
        merged_axes: list[_Axis] = []
        for mine, theirs in zip(self._axes(), other._axes()):
            if mine.pinned and theirs.pinned and mine.levels != theirs.levels:
                raise SchemaError(
                    f"cannot merge: pinned levels of axis {mine.name!r} "
                    f"differ ({mine.levels} vs {theirs.levels})"
                )
            union = list(mine.levels)
            seen = set(mine.codes)
            for level in theirs.levels:
                if level not in seen:
                    seen.add(level)
                    union.append(level)
            axis = _Axis(mine.name, union)
            axis.pinned = mine.pinned and theirs.pinned
            merged_axes.append(axis)

        result = StreamingContingency.__new__(StreamingContingency)
        result._factors = merged_axes[:-1]
        result._outcome = merged_axes[-1]
        result._counts = np.zeros(result._shape(), dtype=np.int64)
        result._n_rows = self._n_rows + other._n_rows
        result._cells = {}
        for source in (self, other):
            if source._counts.size == 0:
                continue
            placement = tuple(
                np.array(
                    [axis.codes[level] for level in source_axis.levels],
                    dtype=np.int64,
                )
                for axis, source_axis in zip(merged_axes, source._axes())
            )
            result._counts[np.ix_(*placement)] += source._counts
        return result

    # ------------------------------------------------------------------
    # Snapshots and checkpoints
    # ------------------------------------------------------------------
    def snapshot(self) -> ContingencyTable:
        """The current counts as an immutable :class:`ContingencyTable`.

        Dynamic axes are reordered to canonical (sorted) level order, so
        the result is bit-identical to
        ``ContingencyTable.from_table(Table.from_rows(...), ...)`` on the
        multiset of currently-counted rows — integer counts permute
        exactly. Pinned axes keep their declared order. O(cells).
        """
        orders = [axis.snapshot_order() for axis in self._axes()]
        tensor = self._counts
        for position, order in enumerate(orders):
            if order != list(range(len(order))):
                tensor = np.take(tensor, order, axis=position)
        factor_orders = orders[:-1]
        return ContingencyTable(
            tensor.astype(np.float64),
            self.factor_names,
            [
                [axis.levels[code] for code in order]
                for axis, order in zip(self._factors, factor_orders)
            ],
            self.outcome_name,
            tuple(self._outcome.levels[code] for code in orders[-1]),
        )

    def state_dict(self) -> dict[str, Any]:
        """A self-contained checkpoint (one array copy; cheap)."""
        return {
            "factor_names": self.factor_names,
            "factor_levels": [list(axis.levels) for axis in self._factors],
            "factor_pinned": [axis.pinned for axis in self._factors],
            "outcome_name": self.outcome_name,
            "outcome_levels": list(self._outcome.levels),
            "outcome_pinned": self._outcome.pinned,
            "counts": self._counts.copy(),
            "n_rows": self._n_rows,
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "StreamingContingency":
        """Rebuild an accumulator from :meth:`state_dict` output."""
        result = cls.__new__(cls)
        result._factors = [
            _Axis(name, levels)
            for name, levels in zip(state["factor_names"], state["factor_levels"])
        ]
        for axis, pinned in zip(result._factors, state["factor_pinned"]):
            axis.pinned = bool(pinned)
        result._outcome = _Axis(state["outcome_name"], state["outcome_levels"])
        result._outcome.pinned = bool(state["outcome_pinned"])
        counts = np.asarray(state["counts"], dtype=np.int64).copy()
        if counts.shape != result._shape():
            raise ValidationError(
                f"checkpoint counts shape {counts.shape} does not match "
                f"levels {result._shape()}"
            )
        if np.any(counts < 0):
            raise ValidationError("checkpoint counts must be non-negative")
        result._counts = counts
        result._n_rows = int(state["n_rows"])
        result._cells = {}
        return result

    def copy(self) -> "StreamingContingency":
        """An independent copy."""
        return StreamingContingency.from_state(self.state_dict())
