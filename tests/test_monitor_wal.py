"""Tests for repro.monitor.wal plus the kill-at-every-boundary matrix.

The unit half pins the WAL's contract: dense sequence numbers, reopen
continuity, torn-tail recovery, size rotation, checkpoint-driven trim,
one fsync per append, the degraded/probe admission cycle, and — the
subtle part — *rollback*: a failed write or fsync must leave the log
exactly as if the append never happened, or a client retry plus a
restart replay would double-count the batch.

The fault matrix (``-m faults``) is the PR's acceptance criterion: for
every crash boundary (torn WAL write, failed fsync, durable-but-
unapplied, buffered-but-unsynced, post-ack, between apply and history
append, before/inside/after checkpoint writes) and several batch
positions, a run that is killed there and recovers must end
bit-identical to a run that never crashed — same epsilon, same counts,
same apply cursor, and a history with every batch exactly once.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from faults import (
    CrashingCall,
    FaultyFileSystem,
    SimulatedCrash,
    feed_with_recovery,
)
from repro.exceptions import StoreError, ValidationError, WalError
from repro.monitor.registry import MonitorConfig, MonitorRegistry
from repro.monitor.wal import WriteAheadLog, inspect_wal

NAMES = ["gender", "race", "hired"]


def fake_clock(start: float = 1_700_000_000.0):
    state = {"now": start}

    def clock() -> float:
        state["now"] += 1.0
        return state["now"]

    return clock


def synthetic_batches(
    n_batches: int, batch_rows: int = 20, seed: int = 7
) -> list[list[tuple[str, str, str]]]:
    rng = np.random.default_rng(seed)
    return [
        [
            (
                f"g{rng.integers(2)}",
                f"r{rng.integers(3)}",
                f"y{rng.integers(2)}",
            )
            for _ in range(batch_rows)
        ]
        for _ in range(n_batches)
    ]


class TestWriteAheadLog:
    def test_append_assigns_dense_seqs_and_stamps(self, tmp_path):
        wal = WriteAheadLog(tmp_path, clock=fake_clock())
        assert wal.last_seq == 0
        seqs = [wal.append({"rows": [[1, 2, 3]]}) for _ in range(5)]
        assert seqs == [1, 2, 3, 4, 5]
        records = list(wal.records())
        assert [r["seq"] for r in records] == seqs
        assert all(r["ts"] > 0 for r in records)
        assert all(r["rows"] == [[1, 2, 3]] for r in records)
        wal.close()

    def test_reserved_fields_rejected(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for reserved in ("seq", "ts"):
            with pytest.raises(ValidationError, match="assigned by the WAL"):
                wal.append({reserved: 1, "rows": []})
        with pytest.raises(ValidationError, match="JSON"):
            wal.append({"rows": object()})
        assert wal.last_seq == 0
        wal.close()

    def test_segment_bytes_floor(self, tmp_path):
        with pytest.raises(ValidationError, match="segment_bytes"):
            WriteAheadLog(tmp_path, segment_bytes=16)

    def test_records_since(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for index in range(6):
            wal.append({"rows": [[index]]})
        assert [r["seq"] for r in wal.records(since=4)] == [5, 6]
        assert list(wal.records(since=6)) == []
        wal.close()

    def test_align_seq_fast_forwards_past_external_cursor(self, tmp_path):
        # The checkpointed apply cursor can legitimately be ahead of a
        # fresh or trimmed-empty log (a --no-wal run, a repointed
        # --wal-dir); appends after alignment must always outrun it.
        wal = WriteAheadLog(tmp_path)
        assert wal.align_seq(7) == 8
        assert wal.last_seq == 7  # counter pinned, no record written
        assert wal.append({"rows": [[1]]}) == 8
        # Never moves backwards: an up-to-date log is left alone.
        assert wal.align_seq(3) == 9
        assert wal.append({"rows": [[2]]}) == 9
        assert [r["seq"] for r in wal.records()] == [8, 9]
        wal.close()

    def test_reopen_continues_sequence(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for index in range(4):
            wal.append({"rows": [[index]]})
        wal.close()
        reopened = WriteAheadLog(tmp_path)
        assert reopened.last_seq == 4
        assert reopened.append({"rows": [[4]]}) == 5
        reopened.close()

    def test_torn_tail_truncated_on_reopen(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for index in range(3):
            wal.append({"rows": [[index]]})
        wal.close()
        segment = sorted(tmp_path.glob("wal-*.seg"))[-1]
        intact = segment.stat().st_size
        with segment.open("ab") as handle:
            handle.write(b"\xde\xad\xbe\xef" * 5)
        reopened = WriteAheadLog(tmp_path)
        assert segment.stat().st_size == intact
        assert reopened.last_seq == 3
        assert reopened.append({"rows": [[3]]}) == 4
        assert [r["seq"] for r in reopened.records()] == [1, 2, 3, 4]
        reopened.close()

    def test_rotation_seals_and_trim_reclaims(self, tmp_path):
        # Tiny segments: every append overflows, sealing one segment per
        # record; the active (empty) successor must always survive trim.
        wal = WriteAheadLog(tmp_path, segment_bytes=64)
        for index in range(5):
            wal.append({"rows": [[index, "pad-past-the-rotation-floor"]]})
        assert wal.status()["segments"] == 6
        removed = wal.trim(3)
        assert len(removed) == 3
        assert [r["seq"] for r in wal.records()] == [4, 5]
        assert wal.trim(3) == []
        # Sequence numbering survives reopen across the trimmed prefix.
        wal.close()
        reopened = WriteAheadLog(tmp_path, segment_bytes=64)
        assert reopened.last_seq == 5
        assert reopened.append({"rows": [[5]]}) == 6
        reopened.close()

    def test_concurrent_appends_fsync_every_record(self, tmp_path):
        # A slowed fsync and a short switch interval make producers pile
        # up behind the append lock; each record still gets its own
        # fsync before its append returns, and seqs stay dense.
        filesystem = FaultyFileSystem()
        filesystem.fsync_delay = 0.005
        wal = WriteAheadLog(tmp_path, filesystem=filesystem)
        threads, per_thread = 8, 25
        barrier = threading.Barrier(threads)

        def produce(worker: int) -> None:
            barrier.wait()
            for index in range(per_thread):
                wal.append({"rows": [[worker, index]]})

        workers = [
            threading.Thread(target=produce, args=(w,)) for w in range(threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        status = wal.status()
        assert status["appends"] == status["fsyncs"] == threads * per_thread
        seqs = [r["seq"] for r in wal.records()]
        assert seqs == list(range(1, threads * per_thread + 1))
        wal.close()

    def test_fsync_failure_rolls_back_and_probe_heals(self, tmp_path):
        filesystem = FaultyFileSystem()
        clock = fake_clock()
        wal = WriteAheadLog(
            tmp_path, filesystem=filesystem, clock=clock, probe_interval=3.0
        )
        first = wal.append({"rows": [[1]]})
        filesystem.fail_fsync_at.add(filesystem.fsync_calls + 1)
        with pytest.raises(WalError, match="safe to retry") as excinfo:
            wal.append({"rows": [[2]]})
        assert excinfo.value.indeterminate is False  # clean rollback
        assert wal.degraded
        assert "fsync failed" in wal.degraded_reason
        # The failed append is fully rolled back: no record, no seq.
        assert wal.last_seq == first
        # Fast-fail until the probe interval elapses (1s per clock call).
        assert not wal.admit()
        assert not wal.admit()
        assert wal.admit()  # the probe
        assert not wal.admit()
        retried = wal.append({"rows": [[2]]})
        assert retried == first + 1
        assert not wal.degraded
        assert [r["rows"] for r in wal.records()] == [[[1]], [[2]]]
        wal.close()

    def test_unrollbackable_fsync_failure_is_indeterminate(self, tmp_path):
        # When the fsync fails AND the rollback's truncate fails, the
        # record may still be durable (a crash would replay it), so the
        # error must advertise itself as not-safe-to-retry — the service
        # maps this to a non-retryable 500, never a Retry-After 503.
        filesystem = FaultyFileSystem()
        wal = WriteAheadLog(
            tmp_path, filesystem=filesystem, probe_interval=0.0
        )
        wal.append({"rows": [[1]]})
        filesystem.fail_fsync_at.add(filesystem.fsync_calls + 1)
        handle = wal._handle

        def broken_truncate(*args):
            raise OSError(5, "injected truncate failure")

        handle.truncate = broken_truncate
        with pytest.raises(WalError, match="indeterminate") as excinfo:
            wal.append({"rows": [[2]]})
        assert excinfo.value.indeterminate is True
        assert wal.degraded
        # Once the disk heals, the pending truncate removes the
        # maybe-durable bytes before the next record, so the log's
        # in-process policy (the batch was never acked) wins.
        del handle.truncate
        retried = wal.append({"rows": [[2]]})
        assert retried == 2
        assert [r["seq"] for r in wal.records()] == [1, 2]
        wal.close()

    def test_partial_write_truncated_then_clean_retry(self, tmp_path):
        filesystem = FaultyFileSystem()
        wal = WriteAheadLog(
            tmp_path, filesystem=filesystem, probe_interval=0.0
        )
        wal.append({"rows": [[1]]})
        filesystem.short_write_at.add(filesystem.write_calls + 1)
        with pytest.raises(WalError, match="safe to retry"):
            wal.append({"rows": [[2]]})
        assert wal.degraded
        retried = wal.append({"rows": [[2]]})
        assert retried == 2
        assert not wal.degraded
        # No torn bytes mid-segment: every record is readable.
        assert [r["seq"] for r in wal.records()] == [1, 2]
        wal.close()
        assert WriteAheadLog(tmp_path).last_seq == 2

    def test_slow_fsync_marks_degraded_without_losing_the_batch(
        self, tmp_path
    ):
        filesystem = FaultyFileSystem()
        filesystem.fsync_delay = 0.02
        wal = WriteAheadLog(
            tmp_path,
            filesystem=filesystem,
            probe_interval=0.0,
            stall_threshold=0.005,
        )
        seq = wal.append({"rows": [[1]]})
        assert seq == 1  # the append succeeded and is durable...
        assert wal.degraded  # ...but the disk is stalling: shed load
        assert "stalled" in wal.degraded_reason
        filesystem.fsync_delay = 0.0
        assert wal.append({"rows": [[2]]}) == 2
        assert not wal.degraded
        wal.close()

    def test_inspect_wal_reports_without_truncating(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_bytes=64, clock=fake_clock())
        for index in range(3):
            wal.append({"rows": [[index], [index]]})
        wal.close()
        newest = sorted(tmp_path.glob("wal-*.seg"))[-1]
        with newest.open("ab") as handle:
            handle.write(b"\x00" * 7)
        before = newest.stat().st_size
        report = inspect_wal(tmp_path)
        assert newest.stat().st_size == before  # read-only
        assert report["records"] == 3
        assert report["rows"] == 6
        assert (report["first_seq"], report["last_seq"]) == (1, 3)
        assert report["segments"][-1]["torn_bytes"] == 7
        assert sum(s["records"] for s in report["segments"]) == 3

    def test_inspect_wal_missing_directory(self, tmp_path):
        with pytest.raises(StoreError, match="does not exist"):
            inspect_wal(tmp_path / "ghost")


@pytest.mark.faults
class TestFaultMatrix:
    """Kill the process at every boundary; recovery must be bit-identical.

    ``feed_with_recovery`` treats ``SimulatedCrash``/``WalError`` as
    process death: abandon the registry un-shut-down, reopen fault-free
    (checkpoint restore + WAL replay), resume at the first unapplied
    batch. The survivor is compared field-by-field against a crash-free
    control run over the same batches.
    """

    N_BATCHES = 6
    CHECKPOINT_EVERY = 2

    def _config(self, window):
        return MonitorConfig(
            name="faulty",
            protected=("gender", "race"),
            outcome=NAMES[2],
            window=window,
        )

    def _snapshot(self, registry):
        monitor = registry.get("faulty")
        auditor = monitor._auditor
        state = auditor.state_dict()
        history = registry.store.query(monitor="faulty", kind="batch")
        return {
            "epsilon": monitor.epsilon(),
            "batches": monitor.batches,
            "rows_seen": monitor.rows_seen,
            "applied_seq": auditor.applied_seq,
            "counts": state["accumulator"]["counts"],
            "history": [int(r["batch_index"]) for r in history],
        }

    def _baseline(self, tmp_path, window):
        registry, crashes = feed_with_recovery(
            tmp_path / "control",
            self._config(window),
            synthetic_batches(self.N_BATCHES),
            checkpoint_every=self.CHECKPOINT_EVERY,
        )
        assert crashes == 0
        snapshot = self._snapshot(registry)
        registry.close()
        return snapshot

    def _assert_identical(self, survivor, control, *, crashes):
        assert crashes >= 1, "the fault never fired"
        assert survivor["epsilon"] == control["epsilon"]  # bit-identical
        assert survivor["batches"] == control["batches"]
        assert survivor["rows_seen"] == control["rows_seen"]
        assert survivor["applied_seq"] == control["applied_seq"]
        assert np.array_equal(survivor["counts"], control["counts"])
        assert survivor["history"] == list(range(1, self.N_BATCHES + 1))
        assert control["history"] == list(range(1, self.N_BATCHES + 1))

    @pytest.mark.parametrize("window", [None, 70])
    @pytest.mark.parametrize("batch", [1, 3, 6])
    @pytest.mark.parametrize(
        "fault",
        [
            "short_write_at",  # torn WAL record (never durable)
            "fail_write_at",  # append rejected outright
            "fail_fsync_at",  # written, not durable: rolled back
            "crash_after_write_at",  # buffered, process dies pre-fsync
            "crash_after_fsync_at",  # durable but unapplied, unacked
            "crash_before_write_at",  # post-ack of the previous batch
        ],
    )
    def test_wal_boundaries(self, tmp_path, window, batch, fault):
        control = self._baseline(tmp_path, window)
        filesystem = FaultyFileSystem()
        # Filesystem ordinal 1 is the first segment's preamble; batch k
        # is the (k+1)-th write and (k+1)-th fsync through the seam.
        getattr(filesystem, fault).add(batch + 1)
        registry, crashes = feed_with_recovery(
            tmp_path / "crashy",
            self._config(window),
            synthetic_batches(self.N_BATCHES),
            filesystem=filesystem,
            checkpoint_every=self.CHECKPOINT_EVERY,
        )
        self._assert_identical(
            self._snapshot(registry), control, crashes=crashes
        )
        registry.close()

    @pytest.mark.parametrize("window", [None, 70])
    @pytest.mark.parametrize("batch", [1, 3, 6])
    def test_crash_between_apply_and_history(
        self, tmp_path, window, batch, monkeypatch
    ):
        from repro.monitor.store import AuditHistoryStore

        control = self._baseline(tmp_path, window)
        monkeypatch.setattr(
            AuditHistoryStore,
            "append",
            CrashingCall(AuditHistoryStore.append, at=batch, before=True),
        )
        registry, crashes = feed_with_recovery(
            tmp_path / "crashy",
            self._config(window),
            synthetic_batches(self.N_BATCHES),
            checkpoint_every=self.CHECKPOINT_EVERY,
        )
        self._assert_identical(
            self._snapshot(registry), control, crashes=crashes
        )
        registry.close()

    @pytest.mark.parametrize("window", [None, 70])
    @pytest.mark.parametrize(
        "target,nth,before",
        [
            # Before generation rotation: the old checkpoint is intact.
            ("rotate_checkpoint", 1, True),
            ("rotate_checkpoint", 2, True),
            # After rotation, before the new generation is written.
            ("save_auditor_state", 1, True),
            ("save_auditor_state", 2, True),
            # Checkpoint written, cursor/trim bookkeeping never ran.
            ("save_auditor_state", 1, False),
            ("save_auditor_state", 3, False),
        ],
    )
    def test_crash_around_checkpoint_writes(
        self, tmp_path, window, target, nth, before, monkeypatch
    ):
        import repro.monitor.registry as registry_module

        control = self._baseline(tmp_path, window)
        monkeypatch.setattr(
            registry_module,
            target,
            CrashingCall(
                getattr(registry_module, target), at=nth, before=before
            ),
        )
        registry, crashes = feed_with_recovery(
            tmp_path / "crashy",
            self._config(window),
            synthetic_batches(self.N_BATCHES),
            checkpoint_every=self.CHECKPOINT_EVERY,
        )
        self._assert_identical(
            self._snapshot(registry), control, crashes=crashes
        )
        registry.close()

    # With an always-firing rule each batch makes two history appends
    # (its batch record, then its alert); crashing on the Nth append
    # lands between them — the boundary where the alert used to be
    # permanently lost because replay gated both kinds on the batch
    # cutoff. Ordinal 2k is batch k's alert append.
    @pytest.mark.parametrize("append_ordinal", [2, 4, 6])
    def test_crash_between_batch_and_alert_appends(
        self, tmp_path, append_ordinal, monkeypatch
    ):
        from repro.monitor.rules import EpsilonThresholdRule
        from repro.monitor.store import AuditHistoryStore

        config = MonitorConfig(
            name="faulty",
            protected=("gender", "race"),
            outcome=NAMES[2],
            alpha=1.0,
            rules=(EpsilonThresholdRule(-1.0, severity="info"),),
        )
        batches = synthetic_batches(self.N_BATCHES)
        every_batch = list(range(1, self.N_BATCHES + 1))
        control, crashes = feed_with_recovery(
            tmp_path / "control",
            config,
            batches,
            checkpoint_every=self.CHECKPOINT_EVERY,
        )
        assert crashes == 0
        control_epsilon = control.get("faulty").epsilon()
        assert [
            int(r["batch_index"])
            for r in control.store.query(monitor="faulty", kind="alert")
        ] == every_batch
        control.close()

        monkeypatch.setattr(
            AuditHistoryStore,
            "append",
            CrashingCall(
                AuditHistoryStore.append, at=append_ordinal, before=True
            ),
        )
        registry, crashes = feed_with_recovery(
            tmp_path / "crashy",
            config,
            batches,
            checkpoint_every=self.CHECKPOINT_EVERY,
        )
        assert crashes == 1
        store = registry.store
        assert [
            int(r["batch_index"])
            for r in store.query(monitor="faulty", kind="batch")
        ] == every_batch
        # The crash cut off exactly one alert append; replay re-appends
        # it — every batch's alert present exactly once, in order.
        assert [
            int(r["batch_index"])
            for r in store.query(monitor="faulty", kind="alert")
        ] == every_batch
        assert registry.get("faulty").epsilon() == control_epsilon
        registry.close()

    def test_repeated_crashes_converge(self, tmp_path):
        # Several boundaries armed at once: recovery composes.
        control = self._baseline(tmp_path, None)
        filesystem = FaultyFileSystem()
        filesystem.short_write_at.add(2)  # batch 1 torn
        filesystem.fail_fsync_at.add(4)  # a later batch's fsync dies
        filesystem.crash_after_fsync_at.add(6)  # durable-unapplied later
        registry, crashes = feed_with_recovery(
            tmp_path / "crashy",
            self._config(None),
            synthetic_batches(self.N_BATCHES),
            filesystem=filesystem,
            checkpoint_every=self.CHECKPOINT_EVERY,
        )
        assert crashes >= 3
        self._assert_identical(
            self._snapshot(registry), control, crashes=crashes
        )
        registry.close()
