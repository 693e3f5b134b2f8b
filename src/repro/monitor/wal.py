"""The write-ahead ingestion log: no acknowledged batch is ever lost.

A monitor that drops a batch under crash or load reports a wrong epsilon
with full confidence — the failure mode this module exists to prevent.
Every ``observe`` batch is appended to a per-monitor
:class:`WriteAheadLog` and fsynced **before** it touches the
:class:`repro.audit.stream.StreamingAuditor`; only then is the batch
applied and acknowledged to the client. On restart the registry replays
exactly the WAL suffix past the checkpoint's apply-sequence number, so
the recovered counts are bit-identical to a process that never died:

* acknowledged batch  → durable in the WAL → replayed (or already in
  the checkpoint) → never lost;
* crash between WAL append and apply → the batch was not yet
  acknowledged, but it *is* on disk, so replay applies it exactly once
  — never double-counted, because replay skips every record at or
  below the checkpointed sequence.

Format
------
The log is a directory of segments ``wal-00000001.seg`` ... in the
:class:`repro.monitor.store.AuditHistoryStore` segment format (RSEG
magic/version preamble, length-prefixed CRC32 JSON records, torn-tail
truncation on reopen, prefix corruption loud). Each record carries the
per-monitor apply sequence ``seq`` (dense, assigned at append), the
injectable clock's ``ts``, and the batch payload (``rows``). Segments
rotate by size; :meth:`WriteAheadLog.trim` drops sealed segments whose
records are all at or below the checkpointed sequence — the checkpoint
*is* their compaction.

Durability and degradation
--------------------------
One lock serialises appends: each record is written, flushed and
fsynced under it, so every acknowledged batch has its own fsync. (Its
only caller, ``Monitor.observe``, holds the monitor's lock across the
append, so no second append could share that fsync anyway.) A failed
write or fsync truncates the record away, marks the log *degraded* and
raises :class:`repro.exceptions.WalError`; while degraded, :meth:`admit`
rejects batches fast (the service maps this to ``503`` +
``Retry-After``) and lets one probe append through per
``probe_interval`` seconds so a recovered disk heals the log without
operator action. A slow fsync marks the log degraded too.

All filesystem touch points go through a :class:`FileSystem` seam so
the fault-injection harness (``tests/faults.py``) can fail, tear, or
stall the Nth write/fsync deterministically.
"""

from __future__ import annotations

import os
import json
import threading
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any

import time

from repro.exceptions import StoreError, ValidationError, WalError
from repro.monitor.store import (
    create_segment,
    encode_record,
    iter_segment_records,
    scan_segment,
)
from repro.obs.metrics import MetricsRegistry, default_registry

__all__ = [
    "FileSystem",
    "REAL_FILESYSTEM",
    "WriteAheadLog",
    "inspect_wal",
]

_WAL_PREFIX = "wal-"
_WAL_SUFFIX = ".seg"


class FileSystem:
    """Real filesystem operations behind one seam.

    The write-ahead log performs every durability-relevant operation —
    open, write (via the returned handle), fsync, rename — through an
    instance of this class, so tests can substitute a
    ``FaultyFileSystem`` that fails, short-writes, or stalls the Nth
    call without monkeypatching ``os`` globally.
    """

    def open(self, path: str | Path, mode: str):
        return open(path, mode)

    def fsync(self, handle) -> None:
        os.fsync(handle.fileno())

    def replace(self, source: str | Path, destination: str | Path) -> None:
        os.replace(source, destination)


REAL_FILESYSTEM = FileSystem()


def _segment_name(index: int) -> str:
    return f"{_WAL_PREFIX}{index:08d}{_WAL_SUFFIX}"


def _segment_index(path: Path) -> int:
    stem = path.name[len(_WAL_PREFIX) : -len(_WAL_SUFFIX)]
    try:
        return int(stem)
    except ValueError:
        raise StoreError(
            f"{path.name} is not a WAL segment (expected "
            f"{_WAL_PREFIX}NNNNNNNN{_WAL_SUFFIX})"
        ) from None


def _list_segments(directory: Path) -> list[Path]:
    return sorted(
        (
            path
            for path in directory.iterdir()
            if path.name.startswith(_WAL_PREFIX)
            and path.name.endswith(_WAL_SUFFIX)
        ),
        key=_segment_index,
    )


class WriteAheadLog:
    """Durable per-monitor ingestion log: one fsync per append.

    Parameters
    ----------
    directory:
        Where segments live; created if missing. One log per monitor.
    segment_bytes:
        Size threshold that seals the active segment and opens the next.
    fsync:
        Fsync every append before acknowledging it (the durability
        contract; benchmarks may disable it to measure the disk cost).
    clock:
        Timestamp source for records and the degraded-probe schedule;
        injectable for deterministic tests.
    probe_interval:
        While degraded, at most one append per this many seconds is
        attempted against the disk; everything else is rejected fast by
        :meth:`admit`.
    stall_threshold:
        An fsync slower than this (seconds) marks the log degraded even
        though it succeeded — the disk is stalling and the service
        should start shedding load before requests pile up.
    filesystem:
        The :class:`FileSystem` seam (fault injection); defaults to the
        real one.
    metrics:
        The :class:`repro.obs.metrics.MetricsRegistry` that receives
        append/fsync latency histograms, append/fsync counters and
        degraded transitions; the process-global default when omitted.
    metric_labels:
        Label set stamped on every instrument this log records (the
        registry passes ``{"monitor": name}`` so one ``/metrics`` page
        separates per-monitor logs).
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        segment_bytes: int = 16 * 1024 * 1024,
        fsync: bool = True,
        clock: Callable[[], float] = time.time,
        probe_interval: float = 1.0,
        stall_threshold: float = 5.0,
        filesystem: FileSystem | None = None,
        metrics: MetricsRegistry | None = None,
        metric_labels: dict[str, str] | None = None,
    ):
        if segment_bytes < 64:
            raise ValidationError(
                f"segment_bytes must allow at least one record, got "
                f"{segment_bytes}"
            )
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._segment_bytes = int(segment_bytes)
        self._fsync = bool(fsync)
        self._clock = clock
        self._probe_interval = float(probe_interval)
        self._stall_threshold = float(stall_threshold)
        self._fs = filesystem if filesystem is not None else REAL_FILESYSTEM
        # One lock: an append writes, fsyncs and rotates under it.
        self._lock = threading.Lock()
        self._handle = None
        self._degraded_reason: str | None = None
        self._last_probe = float("-inf")
        self._appends = 0
        self._fsyncs = 0
        # Offset a failed truncate still owes the active segment: the
        # next append truncates here before writing, so torn bytes from
        # a failed write can never be followed by valid records (the
        # reader would treat everything past the tear as lost).
        self._pending_truncate: int | None = None
        # Sealed segments' last sequence numbers, for trim().
        self._sealed_last_seq: dict[Path, int] = {}

        # Instrument handles are bound once here; the hot path pays one
        # attribute access + a lock per update.
        registry = metrics if metrics is not None else default_registry()
        labels = dict(metric_labels) if metric_labels else None
        self._metric_clock = registry.clock
        self._metric_append_seconds = registry.histogram(
            "repro_wal_append_seconds",
            "Durable append latency (write + fsync).",
            labels=labels,
        )
        self._metric_fsync_seconds = registry.histogram(
            "repro_wal_fsync_seconds",
            "Latency of each actual fsync call on the active segment.",
            labels=labels,
        )
        self._metric_appends_total = registry.counter(
            "repro_wal_appends_total",
            "Records durably appended to the write-ahead log.",
            labels=labels,
        )
        self._metric_fsyncs_total = registry.counter(
            "repro_wal_fsyncs_total",
            "Fsync calls that made an appended record durable.",
            labels=labels,
        )
        self._metric_degraded = registry.gauge(
            "repro_wal_degraded",
            "1 while the log is degraded (failed/stalled disk), else 0.",
            labels=labels,
        )
        self._metric_degraded_enter = registry.counter(
            "repro_wal_degraded_transitions_total",
            "Degraded-state transitions of the write-ahead log.",
            labels={**(labels or {}), "direction": "enter"},
        )
        self._metric_degraded_clear = registry.counter(
            "repro_wal_degraded_transitions_total",
            "Degraded-state transitions of the write-ahead log.",
            labels={**(labels or {}), "direction": "clear"},
        )

        segments = _list_segments(self._directory)
        self._next_seq = 1
        if segments:
            # A crash can only tear the newest segment's tail; truncate
            # it so the next append extends a clean prefix, and recover
            # the sequence counter from the newest record anywhere.
            intact, _ = scan_segment(segments[-1])
            if segments[-1].stat().st_size > intact:
                with segments[-1].open("rb+") as handle:
                    handle.truncate(intact)
            for segment in reversed(segments):
                _, next_seq = scan_segment(segment)
                if next_seq > 1:
                    self._next_seq = next_seq
                    break
            for sealed in segments[:-1]:
                _, after = scan_segment(sealed)
                self._sealed_last_seq[sealed] = after - 1
            self._active = segments[-1]
        else:
            self._active = create_segment(
                self._directory / _segment_name(1), filesystem=self._fs
            )

    # ------------------------------------------------------------------
    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest appended record (0 when empty)."""
        with self._lock:
            return self._next_seq - 1

    def align_seq(self, applied_seq: int) -> int:
        """Fast-forward the sequence counter past an external apply cursor.

        The auditor's ``applied_seq`` lives in the ``.rcpk`` checkpoint,
        this log's counter in its newest on-disk record — and the two
        can legitimately disagree *downward*: a registry run with the
        WAL disabled still advances (and checkpoints) the apply cursor,
        a repointed or deleted ``--wal-dir`` starts an empty log, and a
        checkpoint-then-trim cycle can leave the active segment empty so
        a reopen recovers ``next_seq == 1``. In every such case a fresh
        append would be assigned a sequence at or below the cursor and
        the auditor would silently skip it as "already replayed" —
        losing acknowledged batches. Called on restore, this pins the
        invariant instead: the next append's sequence is always
        ``> applied_seq``. Returns the aligned next sequence number.
        """
        with self._lock:
            if self._next_seq <= int(applied_seq):
                self._next_seq = int(applied_seq) + 1
            return self._next_seq

    @property
    def degraded(self) -> bool:
        return self._degraded_reason is not None

    @property
    def degraded_reason(self) -> str | None:
        return self._degraded_reason

    def status(self) -> dict[str, Any]:
        """Machine-readable health for ``/healthz`` and ``wal-inspect``."""
        with self._lock:
            return {
                "directory": str(self._directory),
                "last_seq": self._next_seq - 1,
                "degraded": self._degraded_reason is not None,
                "degraded_reason": self._degraded_reason,
                "appends": self._appends,
                "fsyncs": self._fsyncs,
                "segments": len(self._sealed_last_seq) + 1,
            }

    # ------------------------------------------------------------------
    # Admission + appends
    # ------------------------------------------------------------------
    def admit(self) -> bool:
        """Whether an append should be attempted right now.

        ``True`` while healthy. While degraded, ``True`` at most once
        per ``probe_interval`` (the probe that lets a recovered disk
        clear the flag); every other call is the fast-fail path the
        service turns into ``503 Retry-After``.
        """
        if self._degraded_reason is None:
            return True
        now = float(self._clock())
        with self._lock:
            if now - self._last_probe >= self._probe_interval:
                self._last_probe = now
                return True
        return False

    def append(self, record: dict[str, Any]) -> int:
        """Durably append one record; returns its assigned ``seq``.

        The record is on disk (fsynced) when this returns — the
        precondition for acknowledging the batch it carries. Raises
        :class:`repro.exceptions.WalError` on any filesystem failure,
        after marking the log degraded; the caller must *not* apply or
        acknowledge the batch in that case. The error's
        ``indeterminate`` flag is set only when a failed fsync could not
        be truncated away: the record may then be durable, so a retry
        could be double-counted by a replay.

        The record must be strict JSON as it stands (no non-finite
        floats; ``Monitor.observe`` checks every cell with
        :func:`repro.core.streaming.canonical_rows` first), so it is
        encoded with one ``json.dumps`` and decodes on replay to the
        same values; anything else raises
        :class:`repro.exceptions.ValidationError` before a byte is
        written.
        """
        for reserved in ("seq", "ts"):
            if reserved in record:
                raise ValidationError(
                    f"record field {reserved!r} is assigned by the WAL"
                )
        append_started = self._metric_clock()
        with self._lock:
            seq = self._next_seq
            stamped = {"seq": seq, "ts": float(self._clock()), **record}
            try:
                payload = json.dumps(
                    stamped, separators=(",", ":"), allow_nan=False
                ).encode("utf-8")
            except (TypeError, ValueError) as error:
                raise ValidationError(
                    f"WAL record is not JSON-serialisable: {error}"
                ) from None
            try:
                if self._handle is None:
                    self._handle = self._fs.open(self._active, "ab")
                if self._pending_truncate is not None:
                    self._handle.truncate(self._pending_truncate)
                    self._pending_truncate = None
                # fstat, not tell(): a freshly opened append handle may
                # report position 0 until its first write.
                start = os.fstat(self._handle.fileno()).st_size
            except OSError as error:
                self._mark_degraded(f"WAL segment unavailable: {error}")
                raise WalError(
                    f"write-ahead log segment unavailable: {error}"
                ) from error
            try:
                self._handle.write(encode_record(payload))
                self._handle.flush()
                size = self._handle.tell()
            except OSError as error:
                # Roll the (possibly partial) record back so the torn
                # bytes are never followed by valid records.
                self._truncate(start)
                self._mark_degraded(f"WAL append failed: {error}")
                raise WalError(
                    f"write-ahead log append failed: {error}; "
                    "the batch was not logged and is safe to retry"
                ) from error
            healthy = True
            if self._fsync:
                try:
                    healthy = self._sync()
                except OSError as error:
                    # Written but not known durable: the caller must not
                    # ack. The sequence counter has not advanced, so once
                    # the record is truncated away a retry is clean.
                    rolled_back = self._truncate(start)
                    self._mark_degraded(f"WAL fsync failed: {error}")
                    detail = (
                        "the batch was rolled back and is safe to retry"
                        if rolled_back
                        else (
                            "durability of the batch is indeterminate; a "
                            "crash may replay it, so do not retry"
                        )
                    )
                    raise WalError(
                        f"write-ahead log fsync failed: {error}; {detail}",
                        indeterminate=not rolled_back,
                    ) from error
            self._next_seq += 1
            self._appends += 1
            self._metric_appends_total.inc()
            # A failed rotation leaves the record durable (the ack
            # contract is met); it retries on the next append while
            # admit() sheds load for the degraded disk.
            if size >= self._segment_bytes and not self._rotate():
                healthy = False
            if healthy:
                self._clear_degraded()
        self._metric_append_seconds.observe(
            self._metric_clock() - append_started
        )
        return seq

    def _sync(self) -> bool:
        """Fsync the active segment (lock held).

        Returns whether the disk looked healthy: ``False`` when the
        fsync succeeded but took longer than ``stall_threshold``, which
        marks the log degraded.
        """
        started = time.monotonic()
        self._fs.fsync(self._handle)
        elapsed = time.monotonic() - started
        self._fsyncs += 1
        self._metric_fsyncs_total.inc()
        self._metric_fsync_seconds.observe(elapsed)
        if elapsed > self._stall_threshold:
            self._mark_degraded(
                f"WAL fsync stalled: {elapsed:.2f}s > "
                f"{self._stall_threshold:.2f}s threshold"
            )
            return False
        return True

    def _truncate(self, start: int) -> bool:
        """Truncate the active segment back to ``start`` (lock held).

        Returns whether that worked. On failure the offset is remembered
        and retried before the next append's write, keeping the
        invariant that valid records never follow torn bytes.
        """
        try:
            self._handle.truncate(start)
        except OSError:
            self._pending_truncate = start
            return False
        return True

    def _rotate(self) -> bool:
        """Seal the active segment and open its successor (lock held).

        Sealing needs no fsync of its own: with ``fsync`` on, every
        append fsyncs its record under the lock before it gets here.
        Returns ``False``
        when rotation fails; the segment then stays active (and is never
        marked sealed, so trim cannot touch it) and the next append
        retries.
        """
        segment = self._active
        handle, self._handle = self._handle, None
        try:
            handle.close()
            successor = create_segment(
                self._directory / _segment_name(_segment_index(segment) + 1),
                filesystem=self._fs,
            )
        except OSError as error:
            self._mark_degraded(f"WAL rotation failed: {error}")
            return False
        self._sealed_last_seq[segment] = self._next_seq - 1
        self._active = successor
        return True

    def _mark_degraded(self, reason: str) -> None:
        if self._degraded_reason is None:
            self._metric_degraded_enter.inc()
            self._metric_degraded.set(1)
        self._degraded_reason = reason
        self._last_probe = float(self._clock())

    def _clear_degraded(self) -> None:
        if self._degraded_reason is not None:
            self._degraded_reason = None
            self._metric_degraded_clear.inc()
            self._metric_degraded.set(0)

    # ------------------------------------------------------------------
    # Replay + retention
    # ------------------------------------------------------------------
    def records(self, *, since: int = 0) -> Iterator[dict[str, Any]]:
        """Records with ``seq > since``, oldest first (the replay path)."""
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
            segments = _list_segments(self._directory)
        for segment in segments:
            for record in iter_segment_records(segment, missing_ok=True):
                if int(record["seq"]) > since:
                    yield record

    def trim(self, upto_seq: int) -> list[Path]:
        """Drop sealed segments whose records are all ``<= upto_seq``.

        Called after a checkpoint persists the apply sequence: the
        checkpoint now carries those batches, so their WAL prefix is
        dead weight. The active segment always survives (it is the only
        file a crash can tear, and the recovery scan needs it). Returns
        the removed paths.
        """
        removed: list[Path] = []
        with self._lock:
            for path, last_seq in sorted(
                self._sealed_last_seq.items(), key=lambda item: item[1]
            ):
                if last_seq > int(upto_seq):
                    break
                path.unlink(missing_ok=True)
                del self._sealed_last_seq[path]
                removed.append(path)
        return removed

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({str(self._directory)!r}, "
            f"next_seq={self._next_seq}, degraded={self.degraded})"
        )


# ----------------------------------------------------------------------
# Offline inspection (the ``wal-inspect`` CLI)
# ----------------------------------------------------------------------
def inspect_wal(
    directory: str | Path,
    *,
    metrics: MetricsRegistry | None = None,
    metric_labels: dict[str, str] | None = None,
) -> dict[str, Any]:
    """Read-only summary of one monitor's WAL directory.

    Unlike opening a :class:`WriteAheadLog`, this never truncates the
    torn tail — it reports it, so an operator can inspect a crashed
    service's disk state before deciding to restart. Raises
    :class:`repro.exceptions.StoreError` for prefix corruption, like
    the recovery scan would.

    The report includes the scan cost itself (``scan_seconds``,
    ``n_segments``) — segment scans are recomputed per call, and an
    operator watching a large WAL should see what each ``wal-inspect``
    costs. When ``metrics`` is given, the scan is also recorded there
    (``repro_scan_seconds{scope="wal"}`` plus segment/record/row/torn
    gauges), which is how ``repro metrics-snapshot`` builds its page.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise StoreError(f"WAL directory {directory} does not exist")
    clock = metrics.clock if metrics is not None else time.perf_counter
    scan_started = clock()
    segments = []
    first_seq = None
    last_seq = 0
    total_records = 0
    total_rows = 0
    for path in _list_segments(directory):
        size = path.stat().st_size
        records = 0
        seg_first = None
        seg_last = None
        intact, _ = scan_segment(path)
        for record in iter_segment_records(path):
            records += 1
            seq = int(record["seq"])
            seg_first = seq if seg_first is None else seg_first
            seg_last = seq
            total_rows += len(record.get("rows", ()))
        torn = size - intact
        segments.append(
            {
                "segment": path.name,
                "bytes": size,
                "records": records,
                "first_seq": seg_first,
                "last_seq": seg_last,
                "torn_bytes": max(torn, 0),
            }
        )
        total_records += records
        if seg_first is not None and first_seq is None:
            first_seq = seg_first
        if seg_last is not None:
            last_seq = seg_last
    scan_seconds = clock() - scan_started
    if metrics is not None:
        labels = dict(metric_labels) if metric_labels else {}
        metrics.histogram(
            "repro_scan_seconds",
            "Duration of offline segment scans (wal-inspect, status).",
            labels={**labels, "scope": "wal"},
        ).observe(scan_seconds)
        metrics.gauge(
            "repro_wal_segments",
            "Segments found by the last WAL scan.",
            labels=labels or None,
        ).set(len(segments))
        metrics.gauge(
            "repro_wal_records",
            "Records found by the last WAL scan.",
            labels=labels or None,
        ).set(total_records)
        metrics.gauge(
            "repro_wal_rows",
            "Batch rows found by the last WAL scan.",
            labels=labels or None,
        ).set(total_rows)
        metrics.gauge(
            "repro_wal_torn_bytes",
            "Torn tail bytes found by the last WAL scan.",
            labels=labels or None,
        ).set(sum(entry["torn_bytes"] for entry in segments))
    return {
        "directory": str(directory),
        "segments": segments,
        "n_segments": len(segments),
        "records": total_records,
        "rows": total_rows,
        "first_seq": first_seq,
        "last_seq": last_seq,
        "scan_seconds": scan_seconds,
    }
