"""Append-only on-disk audit history: every batch and alert, durably.

The Bayesian companion paper (Foulds et al. 2018) argues fairness audits
should be *longitudinal* — a deployed mechanism's epsilon trace and its
posterior uncertainty over time, not a single number. This module is the
durable side of that: an append-only log of per-batch epsilon records and
:class:`repro.monitor.rules.AlertEvent` records that survives process
restarts and can be queried for trends.

Format
------
A store is a directory of segment files ``events-00000001.seg`` ... Each
segment starts with an 8-byte preamble (magic ``RSEG``, format version,
reserved short) and then holds length-prefixed records::

    offset  size  field
    0       4     payload length in bytes (little-endian)
    4       4     CRC32 of the payload bytes
    8      ...    payload: one UTF-8 JSON object

This reuses the hardening idioms of the ``.rcpk`` checkpoint format
(:mod:`repro.engine.checkpoint`): magic + version preamble, CRC-checked
body, and atomic creation (segments are born via tmp + fsync + rename,
so a crash never leaves a half-written *preamble*). Appends are flushed
and fsynced per batch; a crash mid-append can only tear the final
record, which :meth:`AuditHistoryStore.query` detects by its
length/CRC framing and drops — the log's prefix is always intact.
Anything *other* than a torn tail (bit rot inside the prefix, a foreign
file) raises :class:`repro.exceptions.StoreError` loudly.

Records are JSON objects with three store-assigned fields — ``seq`` (a
store-wide monotonic sequence number), ``ts`` (the injectable clock's
timestamp), and the caller's payload (``monitor``, ``kind``, and
kind-specific fields). Rotation is by size: when the active segment
exceeds ``segment_bytes`` the next append opens a new segment, and
:meth:`AuditHistoryStore.compact` drops the oldest whole segments past a
retention budget — the monitoring analogue of checkpoint generations.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.exceptions import StoreError, ValidationError

__all__ = [
    "AuditHistoryStore",
    "SEGMENT_MAGIC",
    "SEGMENT_VERSION",
    "TrendSummary",
    "create_segment",
    "encode_record",
    "iter_segment_records",
    "sanitize_floats",
    "scan_segment",
    "summarize_epsilon_trend",
]


def sanitize_floats(value: Any) -> Any:
    """Strict-JSON-safe copy: non-finite floats become ``"inf"``-style strings.

    A plug-in (Equation 6) epsilon is legitimately infinite when a group
    has zero probability for some outcome, but strict JSON has no
    encoding for ``inf``/``nan``. Both the store and the HTTP layer pass
    their payloads through this; ``float("inf")`` parses the strings
    right back, so ``float(record["epsilon"])`` works on every record.
    """
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == float("inf"):
            return "inf"
        if value == float("-inf"):
            return "-inf"
        return value
    if isinstance(value, dict):
        return {key: sanitize_floats(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize_floats(item) for item in value]
    return value

SEGMENT_MAGIC = b"RSEG"
SEGMENT_VERSION = 1

_SEGMENT_PREAMBLE = struct.Struct("<4sHH")  # magic, version, reserved
_RECORD_FRAME = struct.Struct("<II")  # payload length, payload CRC32

_SEGMENT_PREFIX = "events-"
_SEGMENT_SUFFIX = ".seg"


def _segment_name(index: int, prefix: str = _SEGMENT_PREFIX) -> str:
    return f"{prefix}{index:08d}{_SEGMENT_SUFFIX}"


def _segment_index(path: Path, prefix: str = _SEGMENT_PREFIX) -> int:
    stem = path.name[len(prefix) : -len(_SEGMENT_SUFFIX)]
    try:
        return int(stem)
    except ValueError:
        raise StoreError(
            f"{path.name} is not a store segment (expected "
            f"{prefix}NNNNNNNN{_SEGMENT_SUFFIX})"
        ) from None


# ----------------------------------------------------------------------
# Shared segment-format plumbing
# ----------------------------------------------------------------------
# The write-ahead ingestion log (:mod:`repro.monitor.wal`) reuses this
# exact on-disk format — preamble, length-prefixed CRC32 records,
# torn-tail semantics — so the helpers live at module level rather than
# inside :class:`AuditHistoryStore`.


def create_segment(path: str | Path, *, filesystem=None) -> Path:
    """Atomically create an empty segment (preamble only) at ``path``.

    Born via tmp + fsync + rename, so a crash never leaves a
    half-written preamble. ``filesystem`` is the fault-injection seam
    used by the WAL's tests; ``None`` uses the real ``os`` calls.
    """
    path = Path(path)
    preamble = _SEGMENT_PREAMBLE.pack(SEGMENT_MAGIC, SEGMENT_VERSION, 0)
    temporary = path.parent / f"{path.name}.tmp.{os.getpid()}"
    opener = open if filesystem is None else filesystem.open
    try:
        with opener(temporary, "wb") as handle:
            handle.write(preamble)
            handle.flush()
            if filesystem is None:
                os.fsync(handle.fileno())
            else:
                filesystem.fsync(handle)
        if filesystem is None:
            os.replace(temporary, path)
        else:
            filesystem.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)
    return path


def encode_record(payload: bytes) -> bytes:
    """Frame one payload as a length-prefixed CRC32-checked record."""
    return _RECORD_FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def iter_segment_records(
    path: str | Path,
    *,
    include_offsets: bool = False,
    missing_ok: bool = False,
) -> Iterator[Any]:
    """Yield the decoded JSON records of one segment file, prefix-safe.

    A torn tail (the only damage a crash mid-append can cause) ends the
    iteration silently; anything else — bit rot inside the prefix, a
    foreign file, a truncated preamble — raises
    :class:`repro.exceptions.StoreError`. With ``missing_ok`` a segment
    that vanished between listing and reading (compaction racing a
    query) yields nothing instead of raising.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        if missing_ok:
            return
        raise StoreError(f"segment {path} does not exist") from None
    except OSError as error:
        raise StoreError(f"segment {path} could not be read: {error}") from None
    if len(blob) < _SEGMENT_PREAMBLE.size:
        raise StoreError(
            f"segment {path} is truncated ({len(blob)} bytes; the "
            f"preamble alone is {_SEGMENT_PREAMBLE.size})"
        )
    magic, version, _ = _SEGMENT_PREAMBLE.unpack_from(blob)
    if magic != SEGMENT_MAGIC:
        raise StoreError(f"{path} is not a store segment (magic {magic!r})")
    if version > SEGMENT_VERSION:
        raise StoreError(
            f"segment {path} has format version {version}, newer than "
            f"this library's {SEGMENT_VERSION}; upgrade to read it"
        )
    offset = _SEGMENT_PREAMBLE.size
    while offset < len(blob):
        if offset + _RECORD_FRAME.size > len(blob):
            break  # torn tail: a frame header was mid-write
        length, crc = _RECORD_FRAME.unpack_from(blob, offset)
        start = offset + _RECORD_FRAME.size
        end = start + length
        if end > len(blob):
            break  # torn tail: the payload was mid-write
        payload = blob[start:end]
        if zlib.crc32(payload) != crc:
            if end == len(blob):
                break  # torn tail: final payload incomplete on crash
            raise StoreError(
                f"segment {path} record at byte {offset} failed its CRC "
                "check (corruption inside the log prefix)"
            )
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise StoreError(
                f"segment {path} record at byte {offset} is not valid "
                f"JSON: {error}"
            ) from None
        yield (record, end) if include_offsets else record
        offset = end


def scan_segment(path: str | Path) -> tuple[int, int]:
    """(bytes of intact prefix, sequence number after the last record)."""
    next_seq = 1
    offset = _SEGMENT_PREAMBLE.size
    for record, end in iter_segment_records(path, include_offsets=True):
        next_seq = int(record["seq"]) + 1
        offset = end
    return offset, next_seq


@dataclass(frozen=True)
class TrendSummary:
    """Drift summary of a monitor's recent epsilon trace.

    ``slope`` is the least-squares epsilon change *per batch*; ``drift``
    is ``last - first`` over the summarised span. Both are 0.0 for a
    single-record trace.
    """

    monitor: str
    n_batches: int
    first: float
    last: float
    mean: float
    minimum: float
    maximum: float
    slope: float
    drift: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "monitor": self.monitor,
            "n_batches": self.n_batches,
            "first": self.first,
            "last": self.last,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "slope": self.slope,
            "drift": self.drift,
        }


def summarize_epsilon_trend(
    monitor: str, epsilons: list[float]
) -> TrendSummary | None:
    """The :class:`TrendSummary` of an epsilon trace (``None`` if empty).

    Shared by :meth:`AuditHistoryStore.trend` (the durable, full-history
    path) and the registry's in-memory batch tail (the hot ``/report``
    path), so both report identical statistics for the same trace.
    """
    if not epsilons:
        return None
    n = len(epsilons)
    mean = sum(epsilons) / n
    if n > 1:
        # OLS slope against 0..n-1 without pulling in numpy for a
        # handful of floats.
        x_mean = (n - 1) / 2.0
        denominator = sum((index - x_mean) ** 2 for index in range(n))
        slope = (
            sum(
                (index - x_mean) * (value - mean)
                for index, value in enumerate(epsilons)
            )
            / denominator
        )
    else:
        slope = 0.0
    return TrendSummary(
        monitor=monitor,
        n_batches=n,
        first=epsilons[0],
        last=epsilons[-1],
        mean=mean,
        minimum=min(epsilons),
        maximum=max(epsilons),
        slope=float(slope),
        drift=epsilons[-1] - epsilons[0],
    )


class AuditHistoryStore:
    """Durable, thread-safe, append-only monitoring history.

    Parameters
    ----------
    directory:
        Where segments live; created if missing.
    segment_bytes:
        Size threshold that triggers segment rotation (the active
        segment is sealed once an append pushes it past this size).
    clock:
        Timestamp source for appended records. Injectable so tests and
        golden fixtures are deterministic; defaults to
        :func:`time.time`.

    Every append fsyncs its segment before returning.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        segment_bytes: int = 4 * 1024 * 1024,
        clock: Callable[[], float] = time.time,
    ):
        if segment_bytes < _SEGMENT_PREAMBLE.size + _RECORD_FRAME.size:
            raise ValidationError(
                f"segment_bytes must allow at least one record, got "
                f"{segment_bytes}"
            )
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._segment_bytes = int(segment_bytes)
        self._clock = clock
        self._lock = threading.Lock()
        self._handle = None
        segments = self._segments()
        if segments:
            # A torn tail (crash mid-append) can only be in the active —
            # newest — segment; truncate it away so the next append
            # extends a clean prefix.
            last = segments[-1]
            intact, _ = scan_segment(last)
            self._active = last
            self._truncate_to(last, intact)
            # Resume the sequence after the last record anywhere in the
            # log: rotation creates the next segment eagerly, so the
            # newest segment may legitimately be empty and the last
            # record then lives in an older one.
            self._next_seq = 1
            for segment in reversed(segments):
                _, next_seq = scan_segment(segment)
                if next_seq > 1:
                    self._next_seq = next_seq
                    break
        else:
            self._active = None
            self._next_seq = 1

    # ------------------------------------------------------------------
    # Segment plumbing
    # ------------------------------------------------------------------
    @property
    def directory(self) -> Path:
        return self._directory

    def _segments(self) -> list[Path]:
        """Existing segment files in index (== chronological) order."""
        segments = sorted(
            (
                path
                for path in self._directory.iterdir()
                if path.name.startswith(_SEGMENT_PREFIX)
                and path.name.endswith(_SEGMENT_SUFFIX)
            ),
            key=_segment_index,
        )
        return segments

    def _new_segment(self) -> Path:
        index = (
            _segment_index(self._active) + 1 if self._active is not None else 1
        )
        return create_segment(self._directory / _segment_name(index))

    def _truncate_to(self, path: Path, size: int) -> None:
        if path.stat().st_size > size:
            with path.open("rb+") as handle:
                handle.truncate(size)

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------
    def append(self, record: dict[str, Any]) -> dict[str, Any]:
        """Durably append one record; returns it with ``seq``/``ts`` set.

        The caller's dict must carry ``monitor`` and ``kind``; ``seq``
        and ``ts`` are assigned by the store (attempting to smuggle them
        in raises, so sequence numbers cannot collide).
        """
        for field in ("monitor", "kind"):
            if field not in record:
                raise ValidationError(f"record is missing the {field!r} field")
        for reserved in ("seq", "ts"):
            if reserved in record:
                raise ValidationError(
                    f"record field {reserved!r} is assigned by the store"
                )
        with self._lock:
            stamped = {
                "seq": self._next_seq,
                "ts": float(self._clock()),
                **sanitize_floats(record),
            }
            try:
                payload = json.dumps(
                    stamped, separators=(",", ":"), allow_nan=False
                ).encode("utf-8")
            except (TypeError, ValueError) as error:
                raise ValidationError(
                    f"record is not JSON-serialisable: {error}"
                ) from None
            if self._active is None:
                self._active = self._new_segment()
            with self._active.open("ab") as handle:
                handle.write(encode_record(payload))
                handle.flush()
                os.fsync(handle.fileno())
                size = handle.tell()
            self._next_seq += 1
            if size >= self._segment_bytes:
                self._active = self._new_segment()
            return stamped

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        *,
        monitor: str | None = None,
        kind: str | None = None,
        since: int = 0,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """Records with ``seq > since``, oldest first, optionally filtered.

        ``since`` is the resume cursor: pass the last ``seq`` you have
        seen to receive only newer records. ``limit`` bounds the result
        length after filtering.
        """
        if limit is not None and limit < 0:
            raise ValidationError(f"limit must be >= 0, got {limit}")
        if limit == 0:
            return []
        results: list[dict[str, Any]] = []
        with self._lock:
            segments = self._segments()
        # missing_ok: compact() may unlink a segment between the listing
        # above (taken under the lock) and this unlocked read — records
        # the retention policy dropped simply stop appearing, rather
        # than the read racing into a StoreError.
        for segment in segments:
            for record in iter_segment_records(segment, missing_ok=True):
                if record["seq"] <= since:
                    continue
                if monitor is not None and record.get("monitor") != monitor:
                    continue
                if kind is not None and record.get("kind") != kind:
                    continue
                results.append(record)
                if limit is not None and len(results) >= limit:
                    return results
        return results

    def last_seq(self) -> int:
        """The sequence number of the most recent record (0 when empty)."""
        with self._lock:
            return self._next_seq - 1

    def trend(
        self, monitor: str, *, window: int | None = None
    ) -> TrendSummary | None:
        """Drift summary over the monitor's last ``window`` batch records.

        Returns ``None`` when the monitor has no batch records yet. The
        slope is an ordinary least-squares fit of epsilon against batch
        position — the cheap "is bias trending up?" signal a dashboard
        polls for.
        """
        if window is not None and window < 1:
            raise ValidationError(f"window must be >= 1 batches, got {window}")
        records = self.query(monitor=monitor, kind="batch")
        if window is not None:
            records = records[-window:]
        return summarize_epsilon_trend(
            monitor, [float(record["epsilon"]) for record in records]
        )

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def compact(self, *, keep_segments: int) -> list[Path]:
        """Drop the oldest whole segments beyond ``keep_segments``.

        The active segment always survives. Returns the removed paths.
        Compaction never splits a segment — records are only ever
        dropped a-whole-segment-at-a-time, so the surviving log is a
        contiguous suffix of the history.
        """
        if keep_segments < 1:
            raise ValidationError(
                f"keep_segments must be >= 1, got {keep_segments}"
            )
        with self._lock:
            segments = self._segments()
            doomed = segments[:-keep_segments] if keep_segments < len(segments) else []
            for path in doomed:
                path.unlink()
            return doomed

    def __repr__(self) -> str:
        return (
            f"AuditHistoryStore({str(self._directory)!r}, "
            f"next_seq={self._next_seq})"
        )
