"""Execution engine: pluggable backends and durable checkpoints.

The audit pipeline's unit of state is the mergeable
:class:`repro.core.streaming.StreamingContingency` (PR 3 proved its
``merge`` is associative and commutative, so audits are bit-identical
under any shard split). This package turns that algebra into deployment
topologies:

* :mod:`repro.engine.backends` — the :class:`ExecutionBackend` contract
  plus :class:`SerialBackend` (one process, ordered chunks, windows and
  resume) and :class:`ProcessPoolBackend` (byte-range CSV shards
  fanned out to a persistent worker pool whose count states come back
  through the result queue, merged by a bounded-window coordinator —
  bit-identical to the serial pass; a source with a column cache is
  counted in-process);
* :mod:`repro.engine.checkpoint` — the versioned ``.rcpk`` on-disk
  checkpoint format (atomic write-rename, CRC corruption detection)
  for :class:`StreamingContingency` and
  :class:`repro.audit.stream.StreamingAuditor` state, enabling
  crash-resume and merge-across-machines workflows.
"""

from repro.engine.backends import (
    ChunkCounts,
    ContingencySpec,
    CsvSource,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    tree_merge,
)
from repro.engine.checkpoint import (
    CHECKPOINT_SUFFIX,
    checkpoint_generations,
    load_auditor_state,
    load_checkpoint,
    load_contingency,
    load_latest_auditor_state,
    merge_checkpoint_files,
    rotate_checkpoint,
    save_auditor_state,
    save_contingency,
)

__all__ = [
    "CHECKPOINT_SUFFIX",
    "ChunkCounts",
    "ContingencySpec",
    "CsvSource",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "checkpoint_generations",
    "load_auditor_state",
    "load_checkpoint",
    "load_contingency",
    "load_latest_auditor_state",
    "merge_checkpoint_files",
    "rotate_checkpoint",
    "save_auditor_state",
    "save_contingency",
    "tree_merge",
]
