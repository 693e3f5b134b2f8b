"""Deterministic fault injection for the monitoring fleet's durability.

Three layers, used by ``tests/test_monitor_wal.py``'s fault matrix:

* :class:`FaultyFileSystem` — a :class:`repro.monitor.wal.FileSystem`
  that fails, tears (short-writes), crashes, or stalls the Nth write or
  fsync, injected through the WAL's ``filesystem`` seam;
* :class:`CrashingCall` — wraps any callable to raise
  :class:`SimulatedCrash` on its Nth invocation (history-store appends,
  checkpoint fsyncs, checkpoint-generation renames);
* :func:`feed_with_recovery` — the kill-at-every-boundary driver: feeds
  batches into a durable registry, and whenever a simulated crash (or a
  WAL rejection) fires it abandons the in-process state *without any
  shutdown path* — exactly what ``kill -9`` leaves behind — reopens the
  registry, and resumes at the first batch the recovered state has not
  applied. The caller then asserts the survivor is bit-identical to a
  run that never crashed.

:class:`SimulatedCrash` derives from ``BaseException`` on purpose: no
``except Exception`` recovery path in the code under test may swallow
it, so it truthfully models a process death at that instruction.

PR 7 adds the *process-level* layer for the sharded fleet, used by
``tests/test_monitor_fleet.py``: :func:`send_until_acked` (outlast a
restarting shard's breaker backoff with an idempotent retry loop) and
:func:`feed_fleet_with_kills` (real ``SIGKILL`` against a supervised
shard worker at every ingest boundary — before the send, racing the
send from another thread, and after the ack). No simulation there: the
kernel delivers the signal, the supervisor restarts the shard, WAL
replay restores acked batches, and ``batch_id`` dedup absorbs the
retries whose ack the kill ate.

Two small probes cover the HTTP and config-file edges:
:func:`cut_off_reply_server` is a peer that dies mid-reply, and
:func:`renames_fsynced_first` checks that an atomic rename's source was
fsynced before it landed.
"""

from __future__ import annotations

import contextlib
import functools
import os
import socket
import threading
import time

import pytest

from repro.exceptions import MonitorClientError, WalError
from repro.monitor.registry import MonitorConfig, MonitorRegistry
from repro.monitor.wal import FileSystem

__all__ = [
    "CrashingCall",
    "FaultyFileSystem",
    "SimulatedCrash",
    "cut_off_reply_server",
    "feed_fleet_with_kills",
    "feed_with_recovery",
    "renames_fsynced_first",
    "send_until_acked",
]


class SimulatedCrash(BaseException):
    """The process died here. Only the test driver may catch this."""


class _FaultyHandle:
    """File-handle proxy that routes writes through the fault schedule."""

    def __init__(self, handle, filesystem: "FaultyFileSystem"):
        self._handle = handle
        self._filesystem = filesystem

    def write(self, data):
        return self._filesystem._write(self._handle, data)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()
        return False

    def __getattr__(self, name):
        return getattr(self._handle, name)


class FaultyFileSystem(FileSystem):
    """A filesystem whose Nth operation fails, tears, crashes, or stalls.

    Ordinals are 1-based and global per instance (``write_calls`` /
    ``fsync_calls`` count every write/fsync the instance has seen), so a
    test arms e.g. ``crash_after_fsync_at={3}`` and knows exactly which
    batch dies. Faults:

    * ``fail_write_at`` — the write raises ``OSError`` without writing;
    * ``short_write_at`` — half the bytes land, then ``OSError`` (a torn
      record: the WAL must truncate it or replay would go blind past it);
    * ``crash_before_write_at`` / ``crash_after_write_at`` — process
      death around the write (after: bytes buffered but never fsynced);
    * ``fail_fsync_at`` — fsync raises ``OSError`` (the batch must not
      be acknowledged);
    * ``crash_after_fsync_at`` — fsync succeeds, then the process dies:
      the batch is durable but unapplied — replay must apply it once;
    * ``fsync_delay`` — every fsync sleeps this long first (drives the
      stall-degraded path).
    """

    def __init__(self):
        self.write_calls = 0
        self.fsync_calls = 0
        self.fail_write_at: set[int] = set()
        self.short_write_at: set[int] = set()
        self.crash_before_write_at: set[int] = set()
        self.crash_after_write_at: set[int] = set()
        self.fail_fsync_at: set[int] = set()
        self.crash_after_fsync_at: set[int] = set()
        self.fsync_delay = 0.0

    def open(self, path, mode):
        return _FaultyHandle(open(path, mode), self)

    def _write(self, handle, data):
        self.write_calls += 1
        ordinal = self.write_calls
        if ordinal in self.crash_before_write_at:
            raise SimulatedCrash(f"crash before write #{ordinal}")
        if ordinal in self.fail_write_at:
            raise OSError(5, f"injected write failure #{ordinal}")
        if ordinal in self.short_write_at:
            handle.write(data[: max(len(data) // 2, 1)])
            handle.flush()
            raise OSError(5, f"injected short write #{ordinal}")
        written = handle.write(data)
        if ordinal in self.crash_after_write_at:
            handle.flush()
            raise SimulatedCrash(f"crash after write #{ordinal}")
        return written

    def fsync(self, handle) -> None:
        self.fsync_calls += 1
        ordinal = self.fsync_calls
        if ordinal in self.fail_fsync_at:
            raise OSError(5, f"injected fsync failure #{ordinal}")
        if self.fsync_delay:
            time.sleep(self.fsync_delay)
        os.fsync(handle.fileno())
        if ordinal in self.crash_after_fsync_at:
            raise SimulatedCrash(f"crash after fsync #{ordinal}")


class CrashingCall:
    """Wrap ``func`` so its Nth invocation dies (before or after running).

    Monkeypatch this over any boundary the filesystem seam cannot reach:
    ``AuditHistoryStore.append`` (crash between apply and history),
    ``repro.engine.checkpoint.os.replace`` (crash mid checkpoint
    rotation), ``repro.engine.checkpoint.os.fsync`` (crash mid
    checkpoint write).
    """

    def __init__(self, func, *, at: int, before: bool = True):
        self.func = func
        self.at = int(at)
        self.before = bool(before)
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        if self.before and self.calls == self.at:
            raise SimulatedCrash(f"crash before call #{self.calls}")
        result = self.func(*args, **kwargs)
        if not self.before and self.calls == self.at:
            raise SimulatedCrash(f"crash after call #{self.calls}")
        return result

    def __get__(self, obj, objtype=None):
        # Bind like a method when patched over a class attribute, so
        # instance calls still deliver ``self`` to the wrapped function.
        if obj is None:
            return self
        return functools.partial(self.__call__, obj)


def feed_with_recovery(
    directory,
    config: MonitorConfig,
    batches,
    *,
    filesystem: FileSystem | None = None,
    checkpoint_every: int = 0,
    open_kwargs: dict | None = None,
    max_crashes: int = 25,
):
    """Feed every batch to a durable registry, surviving injected crashes.

    Opens (or reopens) ``MonitorRegistry`` at ``directory``, creates the
    monitor if needed, and feeds ``batches`` in order, checkpointing
    every ``checkpoint_every`` acknowledged batches when nonzero. A
    :class:`SimulatedCrash` or :class:`repro.exceptions.WalError`
    anywhere in observe/checkpoint is treated as process death: the
    registry object is abandoned un-shut-down, the registry is reopened
    on the same (surviving) filesystem — replaying the WAL — and
    feeding resumes at the first batch the recovered monitor has not
    applied: the retry policy of a client that was never acknowledged
    for it.

    Returns ``(registry, crashes)`` with every batch applied exactly
    once; the caller asserts bit-identity against a crash-free run.
    """
    open_kwargs = dict(open_kwargs or {})
    registry = MonitorRegistry.open(
        directory, wal_filesystem=filesystem, **open_kwargs
    )
    if config.name not in registry:
        registry.create_from_config(config)
    crashes = 0
    index = registry.get(config.name).batches
    assert index == 0, "feed_with_recovery expects a fresh monitor"
    while index < len(batches):
        try:
            registry.observe(config.name, batches[index])
            index += 1
            if checkpoint_every and index % checkpoint_every == 0:
                registry.checkpoint_all()
        except (SimulatedCrash, WalError):
            crashes += 1
            if crashes > max_crashes:
                raise AssertionError(
                    f"fault scenario did not converge after {crashes} "
                    "simulated crashes"
                ) from None
            # Process death: no close(), no checkpoint — reopen cold and
            # resume where the recovered state left off. The *same*
            # filesystem carries over (the disk survives the process;
            # each armed ordinal fires at most once).
            registry = MonitorRegistry.open(
                directory, wal_filesystem=filesystem, **open_kwargs
            )
            index = registry.get(config.name).batches
    return registry, crashes


# ----------------------------------------------------------------------
# Process-level fault injection for the sharded fleet (PR 7)
# ----------------------------------------------------------------------
def send_until_acked(client, name, rows, *, batch_id, deadline=90.0):
    """Retry one observe through ``client`` until the fleet acks it.

    The client already retries transient transport errors and 429/503
    internally, but a shard restart's breaker backoff can outlast the
    client's own retry budget; this outer loop keeps going until the
    shard is back. It is safe only because ``batch_id`` makes the send
    idempotent — a retry whose predecessor *was* durably applied is
    answered ``duplicate: true`` instead of being counted twice.
    """
    deadline_at = time.monotonic() + deadline
    last: BaseException | None = None
    while time.monotonic() < deadline_at:
        try:
            return client.observe(name, rows, batch_id=batch_id)
        except MonitorClientError as error:
            if not (error.transient or error.status in (429, 503)):
                raise
            last = error
            time.sleep(0.05)
    raise AssertionError(
        f"batch {batch_id!r} not acked within {deadline}s; last error: {last}"
    )


def feed_fleet_with_kills(
    client,
    name,
    batches,
    *,
    kill,
    boundaries=("before", "mid", "after"),
    batch_id_prefix="fault",
    deadline_per_batch=90.0,
):
    """Feed every batch through a supervised fleet, SIGKILLing at each
    ingest boundary in round-robin.

    ``kill`` is a zero-argument callable that SIGKILLs the shard under
    test (e.g. ``lambda: supervisor.kill_shard(shard)``); it must be
    idempotent when the worker is already down, which
    ``FleetSupervisor.kill_shard`` is. For batch ``i`` the boundary
    ``boundaries[i % len(boundaries)]`` fires:

    * ``"before"`` — kill before the send: the request meets a dead or
      mid-restart shard and must converge purely through retries;
    * ``"mid"`` — kill from a second thread racing the send: depending
      on scheduling it lands before the WAL write (batch lost → retry
      applies it), between fsync and ack (ack lost → the retry must be
      deduplicated, not double-counted), or after the ack;
    * ``"after"`` — kill after the ack: the batch is durable-but-hot
      and WAL replay must restore it exactly once.

    Returns ``(results, kills)`` — the per-batch ack payloads (in
    order) and how many kills were delivered.
    """
    if not boundaries:
        raise ValueError("boundaries must name at least one kill site")
    results = []
    kills = 0
    for index, rows in enumerate(batches):
        boundary = boundaries[index % len(boundaries)]
        batch_id = f"{batch_id_prefix}-{index:04d}"
        killer = None
        if boundary == "before":
            kill()
            kills += 1
        elif boundary == "mid":
            killer = threading.Thread(target=kill)
            killer.start()
            kills += 1
        elif boundary != "after":
            raise ValueError(f"unknown kill boundary {boundary!r}")
        try:
            results.append(
                send_until_acked(
                    client,
                    name,
                    rows,
                    batch_id=batch_id,
                    deadline=deadline_per_batch,
                )
            )
        finally:
            if killer is not None:
                killer.join()
        if boundary == "after":
            kill()
            kills += 1
    return results, kills


# ----------------------------------------------------------------------
# HTTP and config-file edges
# ----------------------------------------------------------------------
@contextlib.contextmanager
def cut_off_reply_server():
    """A raw-socket HTTP peer that dies mid-reply; yields its base URL.

    Each connection gets its whole request read, then ``HTTP/1.1 200``
    with ``Content-Length: 100`` and only 10 body bytes before the
    socket closes. Reading the request first makes the close a FIN, not
    a reset, so the client sees a reply cut off mid-body.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.1)
    stop = threading.Event()

    def serve() -> None:
        while not stop.is_set():
            try:
                connection, _ = listener.accept()
            except TimeoutError:
                continue
            except OSError:  # the listener was closed
                return
            with connection, connection.makefile("rb") as stream:
                connection.settimeout(5)
                length = 0
                for line in iter(stream.readline, b"\r\n"):
                    if not line:  # the client hung up
                        break
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                stream.read(length)
                connection.sendall(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 100\r\n\r\n" + b"x" * 10
                )

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}"
    finally:
        stop.set()
        thread.join(timeout=5)
        listener.close()


def renames_fsynced_first(action, target: str) -> list[bool]:
    """Run ``action`` and report, for each ``os.replace`` onto a file
    named ``target``, whether its source was fsynced before the rename.

    Records the inode every ``os.fsync`` saw and the source inode of
    every ``os.replace``; a rename that can land before its data is a
    ``False``.
    """
    fsynced: set[int] = set()
    verdicts: list[bool] = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        fsynced.add(os.fstat(fd).st_ino)
        return real_fsync(fd)

    def replace(source, destination, *args, **kwargs):
        if os.path.basename(destination) == target:
            verdicts.append(os.stat(source).st_ino in fsynced)
        return real_replace(source, destination, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "fsync", fsync)
        patch.setattr(os, "replace", replace)
        action()
    return verdicts
