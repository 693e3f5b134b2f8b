"""Sharded audit: the same audit on one core, a process pool, or many machines.

Differential fairness is a function of per-group outcome counts, and
counts merge exactly (``StreamingContingency.merge`` is associative and
commutative), so *where* the counting runs is purely a deployment
choice. This walkthrough exercises every topology the execution engine
supports and verifies they agree **bit for bit**:

1. **Serial** — ``FairnessAuditor.audit_csv`` with the default
   ``SerialBackend``: one process, one ordered pass.
2. **Process pool** — ``ProcessPoolBackend(workers)``: byte-range
   shards of the CSV are parsed by worker processes (each opens the
   file independently and seeks — no rows cross process boundaries,
   only compact count tensors) and tree-merged at the coordinator.
3. **Many machines** — each "machine" counts its own shard file and
   writes a durable ``.rcpk`` checkpoint
   (``repro.engine.checkpoint.save_contingency``); the checkpoints are
   collected anywhere and merged with ``merge_checkpoint_files``. The
   CLI equivalent is ``python -m repro merge-checkpoints shard*.rcpk``.

The same applies to crash-recovery on one machine: ``audit-stream
--checkpoint audit.rcpk`` persists the auditor after every chunk, and
``--resume`` continues a killed run with a final report identical to an
uninterrupted one (see ``python -m repro --help``, "Deployment
topologies").

Run:  python examples/sharded_audit.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.audit.auditor import FairnessAuditor
from repro.data.synthetic_adult import OUTCOME, PROTECTED, SyntheticAdult
from repro.engine.backends import (
    ContingencySpec,
    CsvSource,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.engine.checkpoint import merge_checkpoint_files, save_contingency
from repro.tabular.csv_io import write_csv

WORKERS = 2
MACHINES = 3

workdir = Path(tempfile.mkdtemp(prefix="sharded_audit_"))
table = SyntheticAdult(seed=0, features=False).train()
csv_path = workdir / "census.csv"
write_csv(table, csv_path)
print(f"wrote {table.n_rows:,} census rows to {csv_path}\n")

auditor = FairnessAuditor(PROTECTED, OUTCOME, estimator=1.0)
source = CsvSource(str(csv_path), columns=(*PROTECTED, OUTCOME))

# --- topology 1: one process --------------------------------------------
serial = auditor.audit_csv(source)
print(f"serial ingest:        epsilon = {serial.epsilon:.6f}")

# --- topology 2: a process pool on this machine -------------------------
with ProcessPoolBackend(WORKERS) as backend:
    pooled = auditor.audit_csv(source, backend=backend)
print(f"{WORKERS}-worker pool ingest: epsilon = {pooled.epsilon:.6f}")
assert pooled.to_text() == serial.to_text(), "pool must be bit-identical"

# --- topology 3: independent machines + durable checkpoints -------------
# Simulate machines by splitting the stream row-wise; each machine never
# sees the others' rows and ships only its .rcpk checkpoint (a few
# hundred bytes of counts) to the coordinator.
names = [*PROTECTED, OUTCOME]
rows = list(zip(*(table.column(name).to_list() for name in names)))
spec_backend = SerialBackend()
checkpoints = []
for machine in range(MACHINES):
    shard_rows = rows[machine::MACHINES]
    shard_csv = workdir / f"machine{machine}.csv"
    with shard_csv.open("w", encoding="utf-8") as handle:
        handle.write(",".join(names) + "\n")
        handle.writelines(",".join(map(str, row)) + "\n" for row in shard_rows)
    shard_source = CsvSource(str(shard_csv), columns=tuple(names))
    counts = spec_backend.build(
        shard_source, ContingencySpec(tuple(PROTECTED), OUTCOME)
    )
    checkpoint = workdir / f"machine{machine}.rcpk"
    save_contingency(checkpoint, counts)
    checkpoints.append(checkpoint)
    print(
        f"machine {machine}: counted {counts.n_rows:,} rows -> "
        f"{checkpoint.name} ({checkpoint.stat().st_size} bytes)"
    )

merged = merge_checkpoint_files(checkpoints)
merged_audit = auditor.audit_contingency(merged.snapshot())
print(f"merged checkpoints:   epsilon = {merged_audit.epsilon:.6f}")
assert merged_audit.to_text() == serial.to_text(), "merge must be bit-identical"

print("\nall three topologies produced byte-identical audit reports:\n")
print(serial.to_text())
