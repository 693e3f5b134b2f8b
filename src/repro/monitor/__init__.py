"""Long-running fairness monitoring: registry, history, rules, service.

The paper frames differential fairness as a criterion to enforce on
*deployed* mechanisms; this package is the deployment side of the
reproduction. It layers on the streaming/engine stack (PRs 3-4):

* :mod:`repro.monitor.registry` — named :class:`Monitor`\\ s, each a
  locked :class:`repro.audit.stream.StreamingAuditor`, managed by a
  thread-safe :class:`MonitorRegistry` with config persistence and
  rotated checkpoint durability;
* :mod:`repro.monitor.store` — the append-only
  :class:`AuditHistoryStore` of per-batch epsilon records and alerts
  (length-prefixed CRC-checked JSON segments, size-based rotation);
* :mod:`repro.monitor.rules` — declarative alert rules: point
  threshold, posterior credible threshold, window-vs-cumulative
  divergence, and registered-metric thresholds (demographic-parity
  ratio, worst-case gap, ...);
* :mod:`repro.monitor.service` — the stdlib-only concurrent HTTP
  ingestion API (``repro monitor-serve``) and the offline
  ``repro monitor-status`` report;
* :mod:`repro.monitor.http` — the one HTTP layer under the service, the
  router, the client and the health probe;
* :mod:`repro.monitor.wal` — the per-monitor write-ahead log that
  makes every acked ``observe`` batch crash-durable (one fsync per
  append before the ack, replay-on-restart past the newest checkpoint);
* :mod:`repro.monitor.client` / :mod:`repro.monitor.backoff` — the
  retrying HTTP client and the decorrelated-jitter backoff policy it
  uses to honour 429/503 backpressure;
* :mod:`repro.monitor.routing` / :mod:`repro.monitor.fleet` — the
  sharded fleet (``repro fleet-serve``): a front router that
  hash-assigns monitors to shard worker processes, and a supervisor
  that health-probes shards, detects crash/hang/replay-stall, and
  restarts them behind a per-shard circuit breaker while the router
  fast-fails only that shard's monitors with ``503 + Retry-After``.
"""

from repro.monitor.backoff import decorrelated_jitter, retry_call
from repro.monitor.client import (
    RETRYABLE_STATUSES,
    TRANSIENT_ERRORS,
    MonitorClient,
)
from repro.monitor.fleet import (
    FleetSupervisor,
    ShardProcess,
    ShardSupervisor,
    SupervisorPolicy,
    fleet_shard_count,
    fleet_status_snapshot,
    init_fleet_dir,
    probe_healthz,
    render_fleet_status,
)
from repro.monitor.registry import (
    BatchResult,
    Monitor,
    MonitorConfig,
    MonitorRegistry,
    MonitorReport,
)
from repro.monitor.rules import (
    AlertEvent,
    AlertRule,
    DivergenceRule,
    EpsilonThresholdRule,
    MetricThresholdRule,
    PosteriorCredibleRule,
    RuleContext,
    rule_from_dict,
    rules_from_dicts,
)
from repro.monitor.routing import FleetRouter, shard_for
from repro.monitor.service import MonitorService, render_status, status_snapshot
from repro.monitor.store import AuditHistoryStore, TrendSummary
from repro.monitor.wal import FileSystem, WriteAheadLog, inspect_wal

__all__ = [
    "AlertEvent",
    "AlertRule",
    "AuditHistoryStore",
    "BatchResult",
    "DivergenceRule",
    "EpsilonThresholdRule",
    "FileSystem",
    "FleetRouter",
    "FleetSupervisor",
    "MetricThresholdRule",
    "Monitor",
    "MonitorClient",
    "MonitorConfig",
    "MonitorRegistry",
    "MonitorReport",
    "MonitorService",
    "PosteriorCredibleRule",
    "RETRYABLE_STATUSES",
    "RuleContext",
    "ShardProcess",
    "ShardSupervisor",
    "SupervisorPolicy",
    "TRANSIENT_ERRORS",
    "TrendSummary",
    "WriteAheadLog",
    "decorrelated_jitter",
    "fleet_shard_count",
    "fleet_status_snapshot",
    "init_fleet_dir",
    "inspect_wal",
    "probe_healthz",
    "render_fleet_status",
    "render_status",
    "retry_call",
    "rule_from_dict",
    "rules_from_dicts",
    "shard_for",
    "status_snapshot",
]
