"""Synthetic census rows for the benchmark workloads.

Every input is generated from the ``--seed`` argument: string levels per
protected attribute and a binary ``income`` outcome whose rate depends on
every attribute (a fixed per-level effect drawn from the seed), so the
audited data is biased the way census data is.
"""

from __future__ import annotations

import numpy as np

# (name, levels) per protected attribute. The serving workloads use the
# first four (2 * 5 * 5 * 4 = 200 groups), ``audit_csv`` all six
# (2 * 5 * 5 * 4 * 3 * 4 = 2,400 groups).
ATTRIBUTES = (
    ("sex", ("female", "male")),
    ("race", ("white", "black", "asian", "amer-indian", "other")),
    ("age", ("18-25", "26-35", "36-45", "46-60", "61+")),
    ("education", ("high-school", "college", "bachelors", "graduate")),
    ("region", ("north", "south", "west")),
    ("marital", ("single", "married", "divorced", "widowed")),
)
OUTCOME = "income"
OUTCOME_LEVELS = ("<=50k", ">50k")


class CensusRows:
    """A seeded stream of census rows over the first ``n_attributes``.

    Rows are produced as int8 code blocks (``(n, n_attributes + 1)``,
    outcome last) so a run can keep every row it sent for the
    correctness gates at one byte per cell; :meth:`as_rows` turns a
    block into the JSON rows the service ingests.
    """

    def __init__(self, seed: int, n_attributes: int):
        self.attributes = ATTRIBUTES[:n_attributes]
        self.protected = tuple(name for name, _ in self.attributes)
        self._rng = np.random.default_rng(seed)
        self._effects = [
            self._rng.normal(0.0, 0.6, len(levels))
            for _, levels in self.attributes
        ]
        self._levels = [
            np.array(levels, dtype=object) for _, levels in self.attributes
        ] + [np.array(OUTCOME_LEVELS, dtype=object)]

    def block(self, n_rows: int) -> np.ndarray:
        codes = np.empty((n_rows, len(self.attributes) + 1), dtype=np.int8)
        logit = np.full(n_rows, -0.9)
        for column, ((_, levels), effect) in enumerate(
            zip(self.attributes, self._effects)
        ):
            codes[:, column] = self._rng.integers(0, len(levels), n_rows)
            logit += effect[codes[:, column]]
        positive = self._rng.random(n_rows) < 1.0 / (1.0 + np.exp(-logit))
        codes[:, -1] = positive
        return codes

    def as_rows(self, block: np.ndarray) -> list[list[str]]:
        cells = np.empty(block.shape, dtype=object)
        for column, levels in enumerate(self._levels):
            cells[:, column] = levels[block[:, column]]
        return cells.tolist()

    def table(self, blocks):
        """The rows of ``blocks`` as a :class:`repro.tabular.table.Table`.

        Levels are sorted, exactly as ``Column.categorical`` orders the
        string values it is given, so this is the table
        ``dataset_edf`` would build from the same rows.
        """
        from repro.tabular.column import Column
        from repro.tabular.table import Table

        codes = np.concatenate(blocks)
        columns = []
        names = [*self.protected, OUTCOME]
        for column, (name, levels) in enumerate(zip(names, self._levels)):
            order = sorted(range(len(levels)), key=lambda i: levels[i])
            remap = np.empty(len(levels), dtype=np.int64)
            remap[order] = np.arange(len(levels))
            columns.append(
                Column.from_codes(
                    name, remap[codes[:, column]], [levels[i] for i in order]
                )
            )
        return Table(columns)

    def write_csv(self, path: str, n_rows: int, chunk_rows: int = 100_000) -> list:
        """Write ``n_rows`` rows to a CSV file; returns the code blocks."""
        blocks = []
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(",".join([*self.protected, OUTCOME]) + "\n")
            for start in range(0, n_rows, chunk_rows):
                block = self.block(min(chunk_rows, n_rows - start))
                blocks.append(block)
                handle.write(
                    "\n".join(",".join(row) for row in self.as_rows(block))
                )
                handle.write("\n")
        return blocks
