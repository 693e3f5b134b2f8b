"""The fairness monitoring service: a stdlib-only concurrent HTTP API.

This is the serving layer the ROADMAP's north star asks for: deployed
mechanisms POST their decision rows as they happen, and the service
keeps every monitor's differential fairness current, durable, and
alert-guarded. It is deliberately stdlib-only so the repo's
no-new-dependencies constraint holds. The HTTP plumbing it shares with
the fleet router — the error shape, the keep-alive request handler and
the server lifecycle — lives in :mod:`repro.monitor.http`; this module
keeps only the routes and the mapping from exceptions to statuses. The
concurrency story lives in :class:`repro.monitor.registry.MonitorRegistry`
(per-monitor locks).

API
---
================================  =======================================
``GET  /healthz``                 liveness + monitor/row counters +
                                  latency-band summaries
``GET  /metrics``                 Prometheus text exposition of the
                                  registry's telemetry
``GET  /metrics.json``            the same telemetry as a mergeable
                                  ``MetricsRegistry.state_dict()`` (the
                                  fleet router's merge feed)
``GET  /monitors``                list monitor names
``POST /monitors``                create a monitor (JSON config, incl.
                                  declarative alert rules)
``DELETE /monitors/{name}``       delete a monitor
``POST /monitors/{name}/observe`` ingest ``{"rows": [[...], ...]}``;
                                  returns the batch's epsilon + alerts
``GET  /monitors/{name}/report``  epsilon, counters, posterior, trend
``GET  /monitors/{name}/history`` batch records (``since``/``limit``)
``GET  /monitors/{name}/alerts``  alert records (``since``/``limit``)
================================  =======================================

Errors come back as ``{"error": message}`` with conventional status
codes (400 bad request, 404 unknown monitor, 409 duplicate, 413 too
large). Every observed cell must be in the level domain of
:func:`repro.core.streaming.canonical_rows` — a JSON string, boolean,
integer, finite number or ``null``; a row that is not an array of the
monitor's width, or a cell that is ``NaN``/``Infinity``, an array or
an object, is a 400 naming the row or the value and its column, and
nothing is logged. The report endpoint's epsilon is bit-identical to
:func:`repro.core.empirical.dataset_edf` on the concatenated ingested
rows — the registry's contract, asserted end-to-end in the tests and in
``benchmarks/bench_service.py``.

Graceful shutdown checkpoints every monitor through the rotated
``.rcpk`` generations, so ``kill`` + restart resumes with at most the
in-flight batch lost — and a torn final checkpoint write falls back to
the previous generation.
"""

from __future__ import annotations

import re
import sys
import threading
import time
import traceback
from datetime import datetime, timezone
from pathlib import Path
from typing import Any
from urllib.parse import parse_qs, urlparse

from repro.exceptions import (
    MonitorError,
    ReproError,
    ValidationError,
    WalError,
)
from repro.monitor.http import (
    MAX_BODY_BYTES,  # re-exported: the service's request-size limit
    HttpError,
    HttpServer,
    JsonHandler,
)
from repro.monitor.registry import MonitorConfig, MonitorRegistry
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE, MetricsRegistry

__all__ = ["MonitorService", "render_status", "status_snapshot"]

# The Retry-After hint sent with queue-full (429) rejections. Clients
# using MonitorClient jitter around it, so rejected callers do not
# re-arrive in lockstep.
QUEUE_RETRY_AFTER = 0.5

# The Retry-After hint while the service is bound but its registry is
# not yet attached (WAL replay in progress).
STARTING_RETRY_AFTER = 1.0

_MONITOR_ROUTE = re.compile(
    r"^/monitors/(?P<name>[^/]+)(?:/(?P<action>report|history|alerts|observe))?$"
)


class _Handler(JsonHandler):
    """Routes requests onto the owning :class:`MonitorService`."""

    server_version = "repro-monitor/1"


class MonitorService(HttpServer):
    """The HTTP facade over a :class:`MonitorRegistry`.

    Parameters
    ----------
    registry:
        The monitor registry (durable when opened on a directory).
        ``None`` defers attachment: the socket binds and the service
        can start serving immediately, answering ``/healthz`` with
        ``status: "starting"`` and everything else with a retryable
        ``503`` until :meth:`attach_registry` is called. This is how a
        supervised shard stays probe-able while a large WAL replays —
        the readiness banner (and the supervisor's probe target) no
        longer wait behind replay.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    checkpoint_every:
        When positive and the registry is durable, every monitor also
        checkpoints after each ``checkpoint_every``-th batch it ingests
        (in addition to the graceful-shutdown checkpoint).
    queue_depth:
        Bounded admission per monitor: at most this many ``observe``
        requests may be in flight (applying or waiting on the monitor's
        lock) at once; excess requests are rejected immediately with
        ``429`` + ``Retry-After`` instead of queueing without bound.
        ``0`` (the default) disables the bound.
    verbose:
        Log each request to stderr (off by default: the access log is
        noise in tests and CI).
    label:
        An operator-facing name surfaced in ``/healthz`` (the fleet
        supervisor labels each worker ``shard-NN``).
    """

    handler = _Handler
    role = "service"

    def __init__(
        self,
        registry: MonitorRegistry | None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        checkpoint_every: int = 0,
        queue_depth: int = 0,
        verbose: bool = False,
        label: str | None = None,
    ):
        if checkpoint_every < 0:
            raise ValidationError(
                f"checkpoint_every must be >= 0 batches, got {checkpoint_every}"
            )
        if queue_depth < 0:
            raise ValidationError(
                f"queue_depth must be >= 0 requests, got {queue_depth}"
            )
        self.registry = registry
        self.label = label
        self._checkpoint_every = int(checkpoint_every)
        self._queue_depth = int(queue_depth)
        self._inflight: dict[str, int] = {}
        self._inflight_lock = threading.Lock()
        # Populated by shutdown(): monitors whose final checkpoint
        # failed (name -> message). The CLI exits nonzero when nonempty.
        self.checkpoint_failures: dict[str, str] = {}
        super().__init__(host, port, verbose=verbose)

    # ------------------------------------------------------------------
    def attach_registry(self, registry: MonitorRegistry) -> None:
        """Wire in the registry of a service constructed with ``None``.

        Until this is called the service answers ``/healthz`` with
        ``status: "starting"`` and rejects every other route with a
        retryable ``503`` — clients back off and converge once the
        registry (and its WAL replay) is ready.
        """
        if self.registry is not None:
            raise MonitorError("the service already has a registry")
        self.registry = registry

    def shutdown(self) -> int:
        """Stop serving and checkpoint every monitor; returns how many.

        Safe to call more than once (signal handlers can race); only the
        first call does the work. Checkpoint failures are isolated per
        monitor — one broken monitor does not cost the others their
        final checkpoint — and recorded in :attr:`checkpoint_failures`
        so the CLI can exit nonzero.
        """
        if not super().shutdown() or self.registry is None:
            return 0
        checkpointed = 0
        if self.registry.is_durable:

            def on_error(name: str, error: Exception) -> None:
                self.checkpoint_failures[name] = str(error)
                print(
                    f"shutdown checkpoint failed for monitor {name!r}: "
                    f"{error}",
                    file=sys.stderr,
                )

            checkpointed = len(self.registry.checkpoint_all(on_error=on_error))
        self.registry.close()
        return checkpointed

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(
        self, method: str, path_qs: str, request: JsonHandler
    ) -> tuple[Any, ...]:
        url = urlparse(path_qs)
        path = url.path
        if path == "/healthz" and method == "GET":
            return 200, self._healthz()
        if self.registry is None:
            # Bound but not yet attached (WAL replay in progress): shed
            # everything but healthz with a retryable 503 so clients
            # back off and converge once replay finishes.
            raise HttpError(
                503,
                "the service is starting (registry not yet attached); "
                "retry later",
                headers={"Retry-After": f"{STARTING_RETRY_AFTER:g}"},
                extra={
                    "starting": True,
                    "retry_after": STARTING_RETRY_AFTER,
                },
            )
        if path == "/metrics" and method == "GET":
            # The one non-JSON route: Prometheus text exposition.
            text = self.registry.metrics.render_prometheus()
            return (
                200,
                text.encode("utf-8"),
                {"Content-Type": PROMETHEUS_CONTENT_TYPE},
            )
        if path == "/metrics.json":
            if method != "GET":
                raise HttpError(405, f"{method} is not supported on {path}")
            # The mergeable snapshot feed: the fleet router fetches this
            # from every shard, rehydrates with MetricsRegistry.from_state,
            # and tree-merges into the fleet /metrics page (bit-exact
            # for counters).
            return 200, self.registry.metrics.state_dict()
        if path == "/monitors":
            if method == "GET":
                return 200, {"monitors": self.registry.names()}
            if method == "POST":
                return 201, self._create(request.read_json())
            raise HttpError(405, f"{method} is not supported on {path}")
        match = _MONITOR_ROUTE.match(path)
        if match is None:
            raise HttpError(404, f"no route for {path}")
        name, action = match.group("name"), match.group("action")
        if action is None:
            if method == "DELETE":
                self.registry.delete(name)
                return 200, {"deleted": name}
            if method == "GET":
                return 200, self.registry.report(name).to_dict()
            raise HttpError(405, f"{method} is not supported on {path}")
        if action == "observe":
            if method != "POST":
                raise HttpError(405, "observe requires POST")
            return 200, self._observe(name, request.read_json())
        if method != "GET":
            raise HttpError(405, f"{action} requires GET")
        if action == "report":
            return 200, self.registry.report(name).to_dict()
        return 200, self._records(name, action, parse_qs(url.query))

    def http_error(self, error: Exception) -> HttpError:
        if isinstance(error, WalError):
            if error.indeterminate:
                # A failed fsync that could not be rolled back: the
                # record may still be durable and replayed after a
                # crash, so a client retry could double-count the
                # batch. 500 (which MonitorClient never retries),
                # not the retryable 503 — and no Retry-After bait.
                return HttpError(
                    500,
                    str(error),
                    extra={"degraded": True, "indeterminate": True},
                )
            # The durable log cannot take appends and the batch is
            # provably not logged: shed load with a machine-readable
            # degraded marker so clients back off and retry.
            return HttpError(
                503,
                str(error),
                headers={"Retry-After": f"{error.retry_after:g}"},
                extra={"degraded": True, "retry_after": error.retry_after},
            )
        if isinstance(error, MonitorError):
            message = str(error)
            if "no monitor named" in message:
                return HttpError(404, message)
            if "already exists" in message:
                return HttpError(409, message)
            return HttpError(400, message)
        if isinstance(error, ValidationError):
            return HttpError(400, str(error))
        if isinstance(error, ReproError):
            return HttpError(500, str(error))
        # A bug, not a modelled failure: the client gets the uniform
        # JSON error shape (never a raw traceback); the traceback goes
        # to the server log where it belongs.
        traceback.print_exc(file=sys.stderr)
        return HttpError(500, "unexpected server error; see the service log")

    def _healthz(self) -> dict[str, Any]:
        if self.registry is None:
            # Alive and probe-able, but the registry is still opening
            # (WAL replay). Supervisors treat "starting" as neither a
            # failure nor a recovery signal.
            return {
                "status": "starting",
                "label": self.label,
                "monitors": 0,
                "rows_ingested": 0,
                "batches_ingested": 0,
                "queue_depth": self._queue_depth or None,
                "durability": {},
                "latency": {},
            }
        names = self.registry.names()
        rows = 0
        batches = 0
        for name in names:
            try:
                monitor = self.registry.get(name)
            except MonitorError:  # deleted between list and get
                continue
            rows += monitor.rows_seen
            batches += monitor.batches
        # Per-monitor durability detail: orchestrators need to tell
        # "alive" apart from "durably caught up" (checkpoint age) and
        # from "silently shedding load" (WAL degraded).
        durability = self.registry.durability_status()
        with self._inflight_lock:
            inflight = dict(self._inflight)
        for name, status in durability.items():
            status["inflight"] = inflight.get(name, 0)
        degraded = any(
            status.get("wal_degraded") for status in durability.values()
        )
        # Latency-band summaries off the metrics registry: bucketed
        # percentile *bands* (the histogram boundary the quantile fell
        # under), not averages — the per-component banding the paper's
        # continuous-monitoring framing asks for. Bands can be +Inf
        # (overflow bucket); the response writer's sanitize_floats
        # keeps the payload strict-JSON-safe.
        metrics = self.registry.metrics
        latency = {
            name: summary
            for name, summary in (
                ("observe_seconds", metrics.histogram_summary(
                    "repro_observe_seconds"
                )),
                ("wal_append_seconds", metrics.histogram_summary(
                    "repro_wal_append_seconds"
                )),
                ("wal_fsync_seconds", metrics.histogram_summary(
                    "repro_wal_fsync_seconds"
                )),
            )
            if summary is not None
        }
        return {
            "status": "degraded" if degraded else "ok",
            "label": self.label,
            "monitors": len(names),
            "rows_ingested": rows,
            "batches_ingested": batches,
            "queue_depth": self._queue_depth or None,
            "durability": durability,
            "latency": latency,
        }

    def _create(self, body: dict[str, Any]) -> dict[str, Any]:
        config = MonitorConfig.from_dict(body)
        self.registry.create_from_config(config)
        return config.to_dict()

    def _observe(self, name: str, body: dict[str, Any]) -> dict[str, Any]:
        rows = body.get("rows")
        if not isinstance(rows, list) or not rows:
            raise HttpError(400, 'the body must carry a non-empty "rows" list')
        batch_id = body.get("batch_id")
        if batch_id is not None and not isinstance(batch_id, str):
            raise HttpError(400, '"batch_id" must be a string when given')
        monitor = self.registry.get(name)
        self._admit(name)
        try:
            if batch_id is None:
                result = monitor.observe(rows)
            else:
                result = monitor.observe(rows, batch_id=batch_id)
            if (
                self._checkpoint_every
                and self.registry.is_durable
                and not result.duplicate
                and result.batch_index % self._checkpoint_every == 0
            ):
                self.registry.checkpoint_monitor(name)
        finally:
            self._release(name)
        return result.to_dict()

    def _admit(self, name: str) -> None:
        """Claim an ingestion slot for ``name`` or reject with 429.

        The bound covers the whole observe lifetime — waiting on the
        monitor's lock included — so a slow monitor surfaces as fast,
        explicit 429s instead of an unbounded pile of blocked threads.
        """
        if not self._queue_depth:
            return
        with self._inflight_lock:
            inflight = self._inflight.get(name, 0)
            if inflight >= self._queue_depth:
                raise HttpError(
                    429,
                    f"monitor {name!r} ingestion queue is full "
                    f"({inflight} requests in flight, depth "
                    f"{self._queue_depth}); retry later",
                    headers={"Retry-After": f"{QUEUE_RETRY_AFTER:g}"},
                    extra={"retry_after": QUEUE_RETRY_AFTER},
                )
            self._inflight[name] = inflight + 1

    def _release(self, name: str) -> None:
        if not self._queue_depth:
            return
        with self._inflight_lock:
            remaining = self._inflight.get(name, 0) - 1
            if remaining > 0:
                self._inflight[name] = remaining
            else:
                self._inflight.pop(name, None)

    def _records(
        self, name: str, action: str, query: dict[str, list[str]]
    ) -> dict[str, Any]:
        if self.registry.store is None:
            raise HttpError(400, "this registry has no history store")
        self.registry.get(name)  # 404 for unknown monitors
        try:
            since = int(query.get("since", ["0"])[0])
            limit_values = query.get("limit")
            limit = None if limit_values is None else int(limit_values[0])
        except ValueError as error:
            raise HttpError(400, f"bad query parameter: {error}") from None
        kind = "batch" if action == "history" else "alert"
        records = self.registry.store.query(
            monitor=name, kind=kind, since=since, limit=limit
        )
        return {"monitor": name, "kind": kind, "records": records}


# ----------------------------------------------------------------------
# Offline status rendering (the ``monitor-status`` CLI)
# ----------------------------------------------------------------------
def _format_ts(ts: float) -> str:
    return datetime.fromtimestamp(float(ts), timezone.utc).strftime(
        "%Y-%m-%d %H:%M:%SZ"
    )


def status_snapshot(
    directory: str | Path,
    *,
    trend_window: int | None = None,
    recent_alerts: int = 5,
    metrics: MetricsRegistry | None = None,
) -> dict[str, Any]:
    """Inspect a service data directory without the service running.

    Re-creates each monitor from ``monitors.json``, resumes it from its
    newest valid checkpoint generation (so the epsilon shown is exactly
    what the service would report), and joins in the audit-history
    store's trend and alert records.

    The whole snapshot re-scans checkpoints, WAL suffixes, and history
    segments per call, so the report carries its own cost — a ``scan``
    block with the duration and the segment/record counts touched. With
    ``metrics`` given, the scan is also recorded there
    (``repro_scan_seconds{scope="status"}``), which is how
    ``repro metrics-snapshot`` builds its page.
    """
    directory = Path(directory)
    if not directory.exists():
        raise MonitorError(f"data directory {directory} does not exist")
    clock = metrics.clock if metrics is not None else time.perf_counter
    scan_started = clock()
    registry = MonitorRegistry.open(directory)
    monitors = []
    for name in registry.names():
        monitor = registry.get(name)
        report = registry.report(name)
        trend = (
            registry.store.trend(name, window=trend_window)
            if registry.store is not None
            else None
        )
        alerts = (
            registry.store.query(monitor=name, kind="alert")
            if registry.store is not None
            else []
        )
        severities: dict[str, int] = {}
        for alert in alerts:
            severity = alert.get("severity", "warning")
            severities[severity] = severities.get(severity, 0) + 1
        monitors.append(
            {
                "name": name,
                "config": monitor.config.to_dict(),
                "report": report.to_dict(),
                "trend": None if trend is None else trend.to_dict(),
                "alerts_total": len(alerts),
                "alerts_by_severity": dict(sorted(severities.items())),
                "recent_alerts": alerts[-recent_alerts:],
            }
        )
    history_records = (
        registry.store.last_seq() if registry.store is not None else 0
    )
    history_segments = (
        len(list(registry.store.directory.glob("events-*.seg")))
        if registry.store is not None
        else 0
    )
    scan_seconds = clock() - scan_started
    if metrics is not None:
        metrics.histogram(
            "repro_scan_seconds",
            "Duration of offline segment scans (wal-inspect, status).",
            labels={"scope": "status"},
        ).observe(scan_seconds)
        metrics.gauge(
            "repro_status_history_segments",
            "History segments found by the last status scan.",
        ).set(history_segments)
        metrics.gauge(
            "repro_status_history_records",
            "History records found by the last status scan.",
        ).set(history_records)
    return {
        "directory": str(directory),
        "monitors": monitors,
        "history_records": history_records,
        "scan": {
            "seconds": scan_seconds,
            "history_segments": history_segments,
            "history_records": history_records,
            "monitors": len(monitors),
        },
    }


def _monitor_lines(entry: dict[str, Any]) -> list[str]:
    report = entry["report"]
    config = entry["config"]
    window = (
        "cumulative"
        if config["window"] is None
        else f"last {config['window']} rows"
    )
    lines = [
        f"monitor {entry['name']} ({', '.join(config['protected'])} x "
        f"{config['outcome']}, {window})",
        f"  epsilon = {report['epsilon']:.4f}   rows seen = "
        f"{report['rows_seen']}   batches = {report['batches']}",
    ]
    posterior = report.get("posterior")
    if posterior is not None:
        quantiles = ", ".join(
            f"q{float(level) * 100:g}={value:.4f}"
            for level, value in posterior["quantiles"].items()
        )
        lines.append(
            f"  posterior: mean={posterior['mean']:.4f}, {quantiles} "
            f"({posterior['n_samples']} draws, alpha={posterior['alpha']:g})"
        )
    trend = entry["trend"]
    if trend is not None:
        lines.append(
            f"  trend over {trend['n_batches']} batches: "
            f"{trend['first']:.4f} -> {trend['last']:.4f} "
            f"(drift {trend['drift']:+.4f}, slope {trend['slope']:+.5f}/batch)"
        )
    severities = entry["alerts_by_severity"]
    if entry["alerts_total"]:
        breakdown = ", ".join(
            f"{count} {severity}" for severity, count in severities.items()
        )
        lines.append(f"  alerts: {entry['alerts_total']} ({breakdown})")
        for alert in entry["recent_alerts"]:
            lines.append(
                f"    [{_format_ts(alert['ts'])}] {alert['severity']} "
                f"{alert['rule']} (batch {alert['batch_index']}): "
                f"{alert['message']}"
            )
    else:
        lines.append("  alerts: none")
    return lines


def _render_text(snapshot: dict[str, Any]) -> str:
    lines = [
        f"monitoring data dir: {snapshot['directory']}",
        f"monitors: {len(snapshot['monitors'])}   history records: "
        f"{snapshot['history_records']}",
    ]
    for entry in snapshot["monitors"]:
        lines.append("")
        lines.extend(_monitor_lines(entry))
    return "\n".join(lines)


def _render_markdown(snapshot: dict[str, Any]) -> str:
    lines = [
        "# Fairness monitoring status",
        "",
        f"- data dir: `{snapshot['directory']}`",
        f"- monitors: {len(snapshot['monitors'])}",
        f"- history records: {snapshot['history_records']}",
    ]
    if snapshot["monitors"]:
        lines += [
            "",
            "| monitor | scope | epsilon | rows | batches | alerts | drift |",
            "| --- | --- | ---: | ---: | ---: | ---: | ---: |",
        ]
        for entry in snapshot["monitors"]:
            report = entry["report"]
            config = entry["config"]
            scope = (
                "cumulative"
                if config["window"] is None
                else f"window {config['window']}"
            )
            trend = entry["trend"]
            drift = "—" if trend is None else f"{trend['drift']:+.4f}"
            lines.append(
                f"| {entry['name']} | {scope} | {report['epsilon']:.4f} "
                f"| {report['rows_seen']} | {report['batches']} "
                f"| {entry['alerts_total']} | {drift} |"
            )
    for entry in snapshot["monitors"]:
        if not entry["recent_alerts"]:
            continue
        lines += ["", f"## Recent alerts: {entry['name']}", ""]
        for alert in entry["recent_alerts"]:
            lines.append(
                f"- `{_format_ts(alert['ts'])}` **{alert['severity']}** "
                f"{alert['rule']} (batch {alert['batch_index']}): "
                f"{alert['message']}"
            )
    return "\n".join(lines)


def render_status(
    directory: str | Path,
    *,
    markdown: bool = False,
    trend_window: int | None = None,
) -> str:
    """The ``monitor-status`` report for a service data directory."""
    snapshot = status_snapshot(directory, trend_window=trend_window)
    return (
        _render_markdown(snapshot) if markdown else _render_text(snapshot)
    )
