"""In-memory trace spans around the public entry points of each layer.

The benchmark times calls *into* each layer from its own files; nothing
in ``src/`` changes. :class:`SpanLog` replaces a function or method with
a wrapper that records ``(name, start_ns, end_ns)`` on the system-wide
monotonic clock, so spans recorded by the benchmark, the router and the
shard processes line up on one time axis.

Server processes pick the wrappers up through ``hook/sitecustomize.py``
(put on ``PYTHONPATH`` only for traced runs). They keep spans in memory
and write them out at exit, or on ``SIGUSR1`` just before the benchmark
SIGKILLs them.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import signal
import threading
import time
from collections import defaultdict

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

clock_ns = time.monotonic_ns


class SpanLog:
    """Spans and byte counts recorded in this process."""

    def __init__(self):
        self.spans: list[tuple[str, int, int]] = []
        self.sizes: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []
        self._flushes = 0
        self._flush_lock = threading.Lock()

    def wrap(self, owner, attribute: str, name: str) -> None:
        original = getattr(owner, attribute)
        spans = self.spans

        @functools.wraps(original)
        def traced(*args, **kwargs):
            started = clock_ns()
            try:
                return original(*args, **kwargs)
            finally:
                spans.append((name, started, clock_ns()))

        self._patch(owner, attribute, original, traced)

    def count_bytes(self, owner, attribute: str, name: str) -> None:
        """Add ``len(result)`` of every call to ``sizes[name]``."""
        original = getattr(owner, attribute)
        sizes = self.sizes

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            sizes[name] += len(result)
            return result

        self._patch(owner, attribute, original, counted)

    def _patch(self, owner, attribute, original, replacement) -> None:
        # Keep what the owner itself defined (a subclass that inherits
        # the method gets its own override, removed again on restore).
        defined = owner.__dict__.get(attribute) if isinstance(owner, type) else original
        self._patched.append((owner, attribute, defined))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        for owner, attribute, defined in reversed(self._patched):
            if defined is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, defined)
        self._patched.clear()

    def take(self) -> dict:
        spans, self.spans[:] = list(self.spans), []
        sizes = dict(self.sizes)
        self.sizes.clear()
        return {"spans": spans, "sizes": sizes}

    def flush(self, directory: str) -> None:
        """Write the spans recorded since the last flush to one file."""
        with self._flush_lock:
            self._flushes += 1
            payload = {"pid": os.getpid(), **self.take()}
            path = os.path.join(
                directory, f"spans-{os.getpid()}-{self._flushes}.json"
            )
            with open(path + ".tmp", "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(path + ".tmp", path)


def install_serving(log: SpanLog) -> None:
    """Wrap every serving-path layer (service, router and shard side)."""
    from repro.audit import stream
    from repro.core import streaming
    from repro.monitor import registry, routing, rules, service, store, wal

    log.wrap(routing._RouterHandler, "do_POST", "routing")
    log.wrap(service._Handler, "do_POST", "service")
    log.wrap(registry.Monitor, "observe", "registry")
    log.wrap(registry.Monitor, "checkpoint", "checkpoint")
    log.wrap(registry.Monitor, "restore_from", "replay.restore")
    log.wrap(registry.Monitor, "replay_wal", "replay.wal")
    log.wrap(wal.WriteAheadLog, "append", "wal")
    log.count_bytes(wal, "encode_record", "wal.bytes")
    log.wrap(os, "fsync", "fsync")
    log.wrap(streaming.StreamingContingency, "update", "streaming")
    log.wrap(streaming.StreamingContingency, "retract", "streaming")
    log.wrap(stream.StreamingAuditor, "epsilon", "estimate")
    for rule_type in rules._RULE_TYPES.values():
        log.wrap(rule_type, "evaluate", "rules")
    log.wrap(store.AuditHistoryStore, "append", "store")


def install_batch(log: SpanLog) -> None:
    """Wrap the batch-path layers of ``FairnessAuditor.audit_csv``."""
    from repro.audit import auditor
    from repro.core import streaming
    from repro.engine import backends

    log.wrap(auditor.FairnessAuditor, "audit_csv", "audit")
    log.wrap(backends.SerialBackend, "build", "build.serial")
    log.wrap(backends.ProcessPoolBackend, "build", "build.pool")
    log.wrap(streaming.StreamingContingency, "update_table", "count")
    log.wrap(auditor, "subset_sweep", "sweep.point")
    log.wrap(auditor, "posterior_subset_sweep", "sweep.posterior")
    log.wrap(auditor, "metric_subset_sweep", "sweep.metrics")


def install_server_hook() -> None:
    """Called from ``sitecustomize`` in traced server processes."""
    directory = os.environ.get(TRACE_DIR_ENV)
    if not directory:
        return
    log = SpanLog()
    install_serving(log)
    atexit.register(log.flush, directory)
    signal.signal(signal.SIGUSR1, lambda *_: log.flush(directory))


def read_span_files(directory: str) -> tuple[list, dict]:
    spans: list[tuple[str, int, int]] = []
    sizes: dict[str, int] = defaultdict(int)
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            with open(os.path.join(directory, entry), encoding="utf-8") as handle:
                payload = json.load(handle)
            spans.extend(tuple(span) for span in payload["spans"])
            for name, value in payload["sizes"].items():
                sizes[name] += value
    return spans, dict(sizes)


def span_files(directory: str, pid: int) -> int:
    prefix = f"spans-{pid}-"
    return sum(
        1
        for entry in os.listdir(directory)
        if entry.startswith(prefix) and entry.endswith(".json")
    )


class Ledger:
    """Self time per layer, from spans nested by time containment.

    A span's self time is its duration minus the durations of the spans
    directly inside it. ``fsync`` spans are charged to ``wal.fsync``
    under a WAL append and otherwise stay in their parent's self time
    (the store's and the checkpoint's fsyncs), counted per parent. A
    child that ends after its parent is clipped to the parent's end.
    Only trees rooted at one of ``roots`` are charged; the other trees
    (start-up replay, shutdown checkpoints) are summed per root name in
    :attr:`outside`.
    """

    def __init__(self, spans, roots: tuple[str, ...]):
        self.roots = frozenset(roots)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.fsyncs: dict[str, int] = defaultdict(int)
        self.outside: dict[str, int] = defaultdict(int)
        self.clipped_ns = 0
        stack: list[list] = []  # [name, start, end, child_ns, root]
        for name, start, end in sorted(spans, key=lambda s: (s[1], -s[2])):
            while stack and stack[-1][2] <= start:
                self._close(stack)
            if stack and end > stack[-1][2]:
                # A server handler still returning after the caller
                # already has its response: the tail is off the blocking
                # path, so it is clipped to the caller's end.
                self.clipped_ns += end - stack[-1][2]
                end = stack[-1][2]
            root = stack[0][0] if stack else name
            stack.append([name, start, end, 0, root])
        while stack:
            self._close(stack)

    def _close(self, stack) -> None:
        name, start, end, child_ns, root = stack.pop()
        duration = end - start
        parent = stack[-1] if stack else None
        if root not in self.roots:
            if parent is None:
                self.outside[name] += duration
            return
        if name == "fsync" and parent is not None:
            self.fsyncs[parent[0]] += 1
            if parent[0] != "wal":
                return  # stays in the parent's self time
            name = "wal.fsync"
        if parent is not None:
            parent[3] += duration
        self.self_ns[name] += duration - child_ns
        self.total_ns[name] += duration
        self.calls[name] += 1
