"""Tests for the pool's worker-to-coordinator transport.

Each :class:`ProcessPoolBackend` worker returns its chunk's count state
whole through the executor's result queue, and the coordinator keeps a
bounded window of tasks in flight ahead of the consumer. These tests
pin that pipelined path to the serial one: the same counts for
``build`` and the same chunks, in order, for ``iter_chunk_counts``.
The pool's lifecycle and crash contract are tested with the other
backend tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.backends import (
    ContingencySpec,
    CsvSource,
    ProcessPoolBackend,
    SerialBackend,
)

PROTECTED = ("gender", "race")
OUTCOME = "hired"
SPEC = ContingencySpec(PROTECTED, OUTCOME)


def write_stream_csv(path, n_rows=997, seed=3):
    rng = np.random.default_rng(seed)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("gender,race,hired\n")
        for _ in range(n_rows):
            handle.write(
                f"g{rng.integers(2)},r{rng.integers(4)},y{rng.integers(2)}\n"
            )
    return path


@pytest.fixture
def stream_csv(tmp_path):
    return write_stream_csv(tmp_path / "stream.csv")


def source_for(path, chunk_rows=128):
    return CsvSource(
        str(path), chunk_rows=chunk_rows, columns=(*PROTECTED, OUTCOME)
    )


@pytest.mark.parallel
class TestPipelinedBackend:
    def test_pipelined_build_is_bit_identical_to_serial(self, stream_csv):
        serial = SerialBackend().build(source_for(stream_csv), SPEC)
        with ProcessPoolBackend(2) as backend:
            pooled = backend.build(source_for(stream_csv), SPEC)
        assert np.array_equal(
            pooled.snapshot().counts, serial.snapshot().counts
        )
        assert pooled.n_rows == serial.n_rows

    def test_pipelined_chunks_match_serial_chunk_for_chunk(self, stream_csv):
        source = source_for(stream_csv)
        serial_chunks = list(SerialBackend().iter_chunk_counts(source, SPEC))
        with ProcessPoolBackend(2) as backend:
            pooled_chunks = list(backend.iter_chunk_counts(source, SPEC))
        assert [c.index for c in pooled_chunks] == [
            c.index for c in serial_chunks
        ]
        for left, right in zip(serial_chunks, pooled_chunks):
            assert left.n_rows == right.n_rows
            assert np.array_equal(
                left.counts.snapshot().counts,
                right.counts.snapshot().counts,
            )
