"""A thread-safe registry of named, long-running fairness monitors.

This is the in-process heart of the monitoring service: each
:class:`Monitor` wraps a :class:`repro.audit.stream.StreamingAuditor`
(windowed or cumulative) behind its own re-entrant lock, so concurrent
ingestion threads — the HTTP server spawns one per request — never
interleave scatter-adds into the same count tensor, while *different*
monitors ingest fully in parallel. Every batch appends an epsilon record
to the :class:`repro.monitor.store.AuditHistoryStore`, evaluates the
monitor's :mod:`alert rules <repro.monitor.rules>`, and appends any
:class:`~repro.monitor.rules.AlertEvent` that fires — all inside the
monitor's lock, so the store's history is a serialisation of the batches
actually applied and no alert is ever lost or duplicated.

Bit-identity contract
---------------------
A monitor's reported epsilon after batches ``B1..Bn`` equals
:func:`repro.core.empirical.dataset_edf` on the concatenated rows, and
its posterior summary equals
:meth:`repro.audit.auditor.FairnessAuditor.audit_contingency`'s on the
same counts — both inherited from :class:`StreamingAuditor` and asserted
in the test suite and ``benchmarks/bench_service.py``.

Durability
----------
A registry opened on a directory (:meth:`MonitorRegistry.open`) persists
each monitor's configuration in ``monitors.json`` and writes rotated
``.rcpk`` checkpoint generations under ``checkpoints/``
(:func:`repro.engine.checkpoint.rotate_checkpoint`), so a restarted
service resumes every monitor from its newest *valid* checkpoint — a
torn final write falls back to the previous generation.

Each durable monitor additionally owns a per-monitor
:class:`repro.monitor.wal.WriteAheadLog` under ``wal/<name>/``: every
batch is fsynced to the WAL *before* it is applied, and the checkpoint
header records the auditor's apply-sequence cursor, so
:meth:`MonitorRegistry.open` replays exactly the WAL suffix past the
newest valid checkpoint. The contract this buys: **an acknowledged
observe is never lost, and no batch is ever double-counted**, no matter
where between WAL append, apply, history append, and checkpoint the
process is killed.
"""

from __future__ import annotations

import json
import re
import threading
import time
from collections import OrderedDict, deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.audit.auditor import DatasetAudit
from repro.audit.stream import StreamingAuditor
from repro.core.bayesian import PosteriorEpsilon
from repro.core.streaming import canonical_rows
from repro.engine.checkpoint import (
    _write_atomic,
    checkpoint_generations,
    load_latest_auditor_state,
    rotate_checkpoint,
    save_auditor_state,
)
from repro.exceptions import (
    CheckpointError,
    MonitorError,
    ReproError,
    ValidationError,
    WalError,
)
from repro.monitor.rules import (
    AlertEvent,
    AlertRule,
    RuleContext,
    rules_from_dicts,
)
from repro.monitor.store import (
    AuditHistoryStore,
    TrendSummary,
    summarize_epsilon_trend,
)
from repro.monitor.wal import FileSystem, WriteAheadLog
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "BatchResult",
    "Monitor",
    "MonitorConfig",
    "MonitorRegistry",
    "MonitorReport",
]

# Monitor names appear in URLs and filesystem paths; keep them boring.
_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Batch epsilons kept in memory per monitor for the hot /report trend
# path (the durable store holds the full history; this bounds what a
# report poll can summarise without touching disk).
TREND_TAIL_BATCHES = 512

# How many applied batch_id idempotency keys each monitor remembers
# (newest-wins). A retried batch is only deduplicated while its key is
# within this horizon — sized so that a client retrying within any
# sane backoff window is covered, while memory stays bounded.
RECENT_BATCH_IDS = 4096

# batch_id keys travel in JSON bodies, WAL records, and checkpoint
# headers; bound their size so a hostile key cannot bloat all three.
MAX_BATCH_ID_CHARS = 128

CHECKPOINT_DIR = "checkpoints"
HISTORY_DIR = "history"
WAL_DIR = "wal"
CONFIG_FILE = "monitors.json"


@dataclass(frozen=True)
class MonitorConfig:
    """The declarative identity of a monitor (JSON-serialisable).

    Everything needed to rebuild the monitor after a restart: the audit
    schema, the estimator, the posterior budget, and the alert rules.
    """

    name: str
    protected: tuple[str, ...]
    outcome: str
    window: int | None = None
    alpha: float | None = None
    posterior_samples: int = 0
    seed: int = 0
    factor_levels: tuple[tuple[Any, ...], ...] | None = None
    outcome_levels: tuple[Any, ...] | None = None
    rules: tuple[AlertRule, ...] = ()

    def __post_init__(self):
        if not _NAME_PATTERN.match(self.name):
            raise MonitorError(
                f"monitor name {self.name!r} must match "
                f"{_NAME_PATTERN.pattern} (it is used in URLs and file names)"
            )
        if not self.protected:
            raise MonitorError("protected must name at least one column")
        if self.window is not None and int(self.window) < 1:
            raise MonitorError(f"window must be >= 1 rows, got {self.window}")
        if int(self.posterior_samples) < 0:
            raise MonitorError(
                f"posterior_samples must be >= 0, got {self.posterior_samples}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "protected": list(self.protected),
            "outcome": self.outcome,
            "window": self.window,
            "alpha": self.alpha,
            "posterior_samples": self.posterior_samples,
            "seed": self.seed,
            "factor_levels": (
                None
                if self.factor_levels is None
                else [list(levels) for levels in self.factor_levels]
            ),
            "outcome_levels": (
                None
                if self.outcome_levels is None
                else list(self.outcome_levels)
            ),
            "rules": [rule.to_dict() for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, spec: dict[str, Any]) -> "MonitorConfig":
        try:
            return cls(
                name=spec["name"],
                protected=tuple(spec["protected"]),
                outcome=spec["outcome"],
                window=spec.get("window"),
                alpha=spec.get("alpha"),
                posterior_samples=int(spec.get("posterior_samples", 0)),
                seed=int(spec.get("seed", 0)),
                factor_levels=(
                    None
                    if spec.get("factor_levels") is None
                    else tuple(
                        tuple(levels) for levels in spec["factor_levels"]
                    )
                ),
                outcome_levels=(
                    None
                    if spec.get("outcome_levels") is None
                    else tuple(spec["outcome_levels"])
                ),
                rules=rules_from_dicts(spec.get("rules", [])),
            )
        except KeyError as error:
            raise MonitorError(
                f"monitor config is missing field {error.args[0]!r}"
            ) from None
        except (TypeError, ValidationError) as error:
            raise MonitorError(f"bad monitor config: {error}") from None


@dataclass(frozen=True)
class BatchResult:
    """What one ``observe`` call did: the new epsilon plus fired alerts.

    ``duplicate`` means the batch's ``batch_id`` had already been
    applied, so nothing was ingested and the result reports the
    monitor's current state — the ack a retrying client should have
    received the first time.
    """

    monitor: str
    batch_index: int
    n_rows: int
    epsilon: float
    cumulative_epsilon: float | None
    alerts: tuple[AlertEvent, ...]
    duplicate: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "monitor": self.monitor,
            "batch_index": self.batch_index,
            "n_rows": self.n_rows,
            "epsilon": self.epsilon,
            "cumulative_epsilon": self.cumulative_epsilon,
            "alerts": [alert.to_dict() for alert in self.alerts],
            "duplicate": self.duplicate,
        }


@dataclass(frozen=True)
class MonitorReport:
    """A light status snapshot (no subset sweep; see :meth:`Monitor.audit`)."""

    monitor: str
    epsilon: float
    rows_seen: int
    n_window_rows: int
    window: int | None
    batches: int
    posterior: PosteriorEpsilon | None
    trend: TrendSummary | None = None

    def to_dict(self) -> dict[str, Any]:
        posterior = None
        if self.posterior is not None:
            posterior = {
                "mean": self.posterior.mean,
                "median": self.posterior.median,
                "quantiles": {
                    str(level): value
                    for level, value in sorted(self.posterior.quantiles.items())
                },
                "n_samples": self.posterior.n_samples,
                "alpha": self.posterior.alpha,
            }
        return {
            "monitor": self.monitor,
            "epsilon": self.epsilon,
            "rows_seen": self.rows_seen,
            "n_window_rows": self.n_window_rows,
            "window": self.window,
            "batches": self.batches,
            "posterior": posterior,
            "trend": None if self.trend is None else self.trend.to_dict(),
        }


class Monitor:
    """One named audit stream: a locked auditor plus rules and history.

    Windowed monitors also maintain a cumulative *shadow* accumulator
    over the same rows, so :class:`repro.monitor.rules.DivergenceRule`
    can compare "recent traffic" against "the whole stream" — the
    drift question a window alone cannot answer.
    """

    def __init__(
        self,
        config: MonitorConfig,
        store: AuditHistoryStore | None = None,
        *,
        wal: WriteAheadLog | None = None,
        clock: Callable[[], float] = time.time,
        metrics: MetricsRegistry | None = None,
    ):
        self.config = config
        self._columns = (*config.protected, config.outcome)
        self._store = store
        self._wal = wal
        self._clock = clock
        self._lock = threading.RLock()
        # Telemetry handles are bound once per monitor (label
        # {"monitor": name}); observe() pays attribute access + a lock
        # per update, which the bench_obs perf guard keeps within 10%
        # of an uninstrumented baseline.
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._metric_clock = self._metrics.clock
        labels = {"monitor": config.name}
        self._metric_observe_seconds = self._metrics.histogram(
            "repro_observe_seconds",
            "End-to-end Monitor.observe latency (admit+wal+apply+alerts).",
            labels=labels,
        )
        self._metric_stage_seconds = {
            stage: self._metrics.histogram(
                "repro_observe_stage_seconds",
                "Per-stage breakdown of Monitor.observe.",
                labels={**labels, "stage": stage},
            )
            for stage in ("admit", "wal_append", "apply", "alerts")
        }
        self._metric_rows_total = self._metrics.counter(
            "repro_observe_rows_total",
            "Rows applied by Monitor.observe (replay included).",
            labels=labels,
        )
        self._metric_batches_total = self._metrics.counter(
            "repro_observe_batches_total",
            "Batches applied by Monitor.observe (replay included).",
            labels=labels,
        )
        self._metric_duplicates_total = self._metrics.counter(
            "repro_observe_duplicates_total",
            "Batches acknowledged as batch_id duplicates without applying.",
            labels=labels,
        )
        self._rule_instruments = tuple(
            (
                self._metrics.histogram(
                    "repro_alert_rule_seconds",
                    "Evaluation latency of each alert rule.",
                    labels={**labels, "rule": type(rule).__name__},
                ),
                self._metrics.counter(
                    "repro_alerts_fired_total",
                    "Alert events fired, by rule.",
                    labels={**labels, "rule": type(rule).__name__},
                ),
            )
            for rule in config.rules
        )
        self._batches = 0
        self._last_checkpoint_ts: float | None = None
        self._checkpointed_seq = 0
        self._epsilon_tail: deque[float] = deque(maxlen=TREND_TAIL_BATCHES)
        # Applied batch_id -> batch_index, newest last, bounded by
        # RECENT_BATCH_IDS. Persisted in checkpoint headers and carried
        # in WAL records, so deduplication survives crash + replay:
        # a client retry of a batch whose ack was lost to a crash is
        # answered, not double-counted.
        self._applied_batch_ids: OrderedDict[str, int] = OrderedDict()
        self._auditor = self._build_auditor(windowed=True)
        self._shadow = (
            self._build_auditor(windowed=False)
            if config.window is not None
            else None
        )

    def _build_auditor(self, windowed: bool) -> StreamingAuditor:
        config = self.config
        return StreamingAuditor(
            config.protected,
            config.outcome,
            estimator=config.alpha,
            posterior_samples=config.posterior_samples,
            seed=config.seed,
            window=config.window if windowed else None,
            factor_levels=config.factor_levels,
            outcome_levels=config.outcome_levels,
        )

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.config.name

    @property
    def batches(self) -> int:
        with self._lock:
            return self._batches

    @property
    def rows_seen(self) -> int:
        with self._lock:
            return self._auditor.rows_seen

    @property
    def wal(self) -> WriteAheadLog | None:
        """The monitor's write-ahead log (``None`` when not durable)."""
        return self._wal

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def observe(
        self,
        rows: Iterable[Sequence[Any]],
        *,
        batch_id: str | None = None,
    ) -> BatchResult:
        """Ingest one batch of ``(*protected values, outcome)`` rows.

        Atomic with respect to other threads: the WAL append, the
        scatter-add, the rule evaluation, and the store appends happen
        under the monitor's lock, so the recorded history is exactly the
        sequence of batches applied and every alert belongs to the batch
        that fired it.

        When the monitor has a write-ahead log, the batch is fsynced to
        it *before* it is applied — the durability half of the ack
        contract: a batch this method returns for is recoverable, and a
        batch it raises :class:`repro.exceptions.WalError` for was never
        applied and is safe to retry.

        ``batch_id`` makes the call idempotent: a batch whose id was
        already applied is acknowledged again (``duplicate=True``)
        without being re-counted. This closes the one retry hole a WAL
        alone cannot: a crash *after* the WAL fsync but *before* the
        ack reaches the client leaves the batch durable — replay
        restores it — so a client retry without an id would
        double-count it. Ids ride inside the WAL record and the
        checkpoint header, so deduplication itself survives crashes.

        The batch is checked once, before the WAL append, against the
        level domain of :func:`repro.core.streaming.canonical_rows`:
        every cell a ``str``, ``bool``, ``int``, finite ``float`` or
        ``None`` (numpy scalars and subclasses become the plain value,
        so the live path stores exactly what replay decodes). A
        ``str`` row, a row of the wrong width, a non-finite float or
        any other cell type raises
        :class:`~repro.exceptions.ValidationError` and nothing is
        logged. ``True``, ``1`` and ``1.0`` are one level.
        """
        rows = canonical_rows(rows, self._columns)
        if not rows:
            raise ValidationError("an ingestion batch must contain rows")
        if batch_id is not None:
            if not isinstance(batch_id, str) or not batch_id:
                raise ValidationError(
                    f"batch_id must be a non-empty string, got {batch_id!r}"
                )
            if len(batch_id) > MAX_BATCH_ID_CHARS:
                raise ValidationError(
                    f"batch_id must be <= {MAX_BATCH_ID_CHARS} characters, "
                    f"got {len(batch_id)}"
                )
        observe_started = self._metric_clock()
        with self._lock:
            # Deduplicate before WAL admission: the original batch is
            # already durable, so its retry must succeed even while the
            # WAL is degraded and refusing fresh appends.
            if (
                batch_id is not None
                and batch_id in self._applied_batch_ids
            ):
                self._metric_duplicates_total.inc()
                return self._duplicate_result(batch_id, len(rows))
            seq = None
            if self._wal is not None:
                stage_started = self._metric_clock()
                admitted = self._wal.admit()
                self._metric_stage_seconds["admit"].observe(
                    self._metric_clock() - stage_started
                )
                if not admitted:
                    raise WalError(
                        f"monitor {self.name!r} ingestion is degraded "
                        f"({self._wal.degraded_reason}); retry later"
                    )
                record: dict[str, Any] = {"rows": rows}
                if batch_id is not None:
                    record["batch_id"] = batch_id
                stage_started = self._metric_clock()
                seq = self._wal.append(record)
                self._metric_stage_seconds["wal_append"].observe(
                    self._metric_clock() - stage_started
                )
            result = self._apply(rows, seq=seq, batch_id=batch_id)
            self._metric_observe_seconds.observe(
                self._metric_clock() - observe_started
            )
            return result

    def _duplicate_result(self, batch_id: str, n_rows: int) -> BatchResult:
        """The repeat ack for an already-applied ``batch_id`` (lock held)."""
        cumulative = (
            None if self._shadow is None else self._shadow.epsilon()
        )
        return BatchResult(
            monitor=self.name,
            batch_index=self._applied_batch_ids[batch_id],
            n_rows=n_rows,
            epsilon=self._auditor.epsilon(),
            cumulative_epsilon=cumulative,
            alerts=(),
            duplicate=True,
        )

    def _remember_batch_id(self, batch_id: str, batch_index: int) -> None:
        self._applied_batch_ids[batch_id] = int(batch_index)
        self._applied_batch_ids.move_to_end(batch_id)
        while len(self._applied_batch_ids) > RECENT_BATCH_IDS:
            self._applied_batch_ids.popitem(last=False)

    def _apply(
        self,
        rows: list[tuple[Any, ...]],
        *,
        seq: int | None = None,
        replay: bool = False,
        store_cutoff: int = 0,
        alert_cutoff: tuple[int, int] = (0, 0),
        batch_id: str | None = None,
    ) -> BatchResult:
        """Fold one (already durable) batch into the live state.

        Shared by the hot path and WAL replay (``replay=True`` — only
        replay may treat a stale sequence as already-applied; a live
        batch with a stale sequence raises loudly instead of being
        silently dropped). ``store_cutoff`` is the highest
        ``batch_index`` among the store's *batch* records and
        ``alert_cutoff`` is ``(batch_index, n_alerts)`` of its newest
        *alert* records: the two kinds are appended separately, so a
        crash can land between them, and each kind is gated by its own
        high-water mark — replay re-appends exactly the records the
        crash cut off and never duplicates one.
        """
        apply_started = self._metric_clock()
        with self._lock:
            try:
                epsilon = self._auditor._observe_canonical(
                    rows, seq=seq, replay=replay
                )
            except ReproError:
                if seq is not None:
                    # The batch is durably logged but unappliable; move
                    # the cursor past it so replay skips it the same way
                    # (the client got an error, not an ack).
                    self._auditor._observe_canonical([], seq=seq, replay=replay)
                raise
            cumulative = None
            if self._shadow is not None:
                cumulative = self._shadow._observe_canonical(rows)
            self._batches += 1
            self._epsilon_tail.append(epsilon)
            context = RuleContext(
                monitor=self.name,
                batch_index=self._batches,
                n_rows=len(rows),
                rows_seen=self._auditor.rows_seen,
                epsilon=epsilon,
                cumulative_epsilon=cumulative,
                alpha=(
                    self.config.alpha if self.config.alpha is not None else 1.0
                ),
                counts=self._count_matrix,
                metric=self._metric_value,
            )
            alerts_started = self._metric_clock()
            events = []
            for rule, (rule_seconds, rule_fired) in zip(
                self.config.rules, self._rule_instruments
            ):
                rule_started = self._metric_clock()
                event = rule.evaluate(context)
                rule_seconds.observe(self._metric_clock() - rule_started)
                if event is not None:
                    rule_fired.inc()
                    events.append(event)
            alerts = tuple(events)
            self._metric_stage_seconds["alerts"].observe(
                self._metric_clock() - alerts_started
            )
            result = BatchResult(
                monitor=self.name,
                batch_index=self._batches,
                n_rows=len(rows),
                epsilon=epsilon,
                cumulative_epsilon=cumulative,
                alerts=alerts,
            )
            if self._store is not None:
                if result.batch_index > store_cutoff:
                    self._store.append(
                        {
                            "monitor": self.name,
                            "kind": "batch",
                            "batch_index": result.batch_index,
                            "n_rows": result.n_rows,
                            "rows_seen": self._auditor.rows_seen,
                            "epsilon": epsilon,
                            "cumulative_epsilon": cumulative,
                            "n_alerts": len(alerts),
                        }
                    )
                # Alerts are gated by their own high-water mark: a crash
                # between the batch append and its alert appends (or
                # between two alerts of one batch) must be healed by
                # re-appending exactly the missing suffix.
                cutoff_batch, cutoff_alerts = alert_cutoff
                if result.batch_index > cutoff_batch:
                    skip = 0
                elif result.batch_index == cutoff_batch:
                    skip = cutoff_alerts
                else:
                    skip = len(alerts)
                for alert in alerts[skip:]:
                    self._store.append(
                        {
                            "monitor": self.name,
                            "kind": "alert",
                            **alert.to_dict(),
                        }
                    )
            if batch_id is not None:
                # Only successful applies are remembered: a batch the
                # auditor rejected was never acknowledged, so its retry
                # must fail identically rather than be swallowed as a
                # duplicate.
                self._remember_batch_id(batch_id, result.batch_index)
            self._metric_stage_seconds["apply"].observe(
                self._metric_clock() - apply_started
            )
            self._metric_rows_total.inc(len(rows))
            self._metric_batches_total.inc()
            return result

    def replay_wal(self) -> int:
        """Re-apply the WAL suffix past the restored checkpoint cursor.

        Called by :meth:`MonitorRegistry.open` after :meth:`restore_from`.
        Idempotence comes from per-kind cursors: the auditor's persisted
        ``applied_seq`` gates which WAL records are re-applied at all,
        the history store's highest *batch* ``batch_index`` gates which
        replayed batches re-append their batch record, and its newest
        *alert* ``(batch_index, count)`` gates alert re-appends — so a
        crash anywhere between WAL append, apply, batch append, and the
        individual alert appends neither loses an acknowledged batch
        (or its alerts) nor duplicates a record. Records the auditor
        rejected live (they were never acknowledged) fail identically
        here and are skipped. Returns how many batches were re-applied.
        """
        if self._wal is None:
            return 0
        with self._lock:
            since = self._auditor.applied_seq
            store_cutoff = 0
            alert_cutoff = (0, 0)
            if self._store is not None:
                batch_records = self._store.query(
                    monitor=self.name, kind="batch"
                )
                if batch_records:
                    store_cutoff = int(batch_records[-1]["batch_index"])
                alert_records = self._store.query(
                    monitor=self.name, kind="alert"
                )
                if alert_records:
                    newest_batch = int(alert_records[-1]["batch_index"])
                    alert_cutoff = (
                        newest_batch,
                        sum(
                            1
                            for record in alert_records
                            if int(record["batch_index"]) == newest_batch
                        ),
                    )
            replayed = 0
            for record in self._wal.records(since=since):
                seq = int(record["seq"])
                record_batch_id = record.get("batch_id")
                try:
                    # The same ingress check as a live observe. A WAL
                    # written by an older release can hold a record
                    # outside the level domain; it is skipped like any
                    # unappliable batch, cursor included, so the monitor
                    # still opens and a later restart does not rescan it.
                    rows = canonical_rows(record.get("rows", ()), self._columns)
                except ReproError:
                    self._auditor._observe_canonical([], seq=seq, replay=True)
                    continue
                try:
                    self._apply(
                        rows,
                        seq=seq,
                        replay=True,
                        store_cutoff=store_cutoff,
                        alert_cutoff=alert_cutoff,
                        batch_id=(
                            record_batch_id
                            if isinstance(record_batch_id, str)
                            else None
                        ),
                    )
                except ReproError:
                    continue
                replayed += 1
            return replayed

    def durability_status(self, *, now: float | None = None) -> dict[str, Any]:
        """Machine-readable durability health for ``/healthz``.

        ``last_checkpoint_age`` distinguishes "alive" from "durably
        caught up"; ``wal_replay_lag`` is how many applied batches a
        restart would have to replay from the WAL (0 means the newest
        checkpoint covers everything applied).
        """
        if now is None:
            now = float(self._clock())
        with self._lock:
            applied_seq = self._auditor.applied_seq
            status: dict[str, Any] = {
                "batches": self._batches,
                "applied_seq": applied_seq,
                "last_checkpoint_ts": self._last_checkpoint_ts,
                "last_checkpoint_age": (
                    None
                    if self._last_checkpoint_ts is None
                    else max(float(now) - self._last_checkpoint_ts, 0.0)
                ),
            }
            if self._wal is not None:
                wal_status = self._wal.status()
                status.update(
                    {
                        "wal_last_seq": wal_status["last_seq"],
                        "wal_replay_lag": max(
                            applied_seq - self._checkpointed_seq, 0
                        ),
                        "wal_degraded": wal_status["degraded"],
                        "wal_degraded_reason": wal_status["degraded_reason"],
                    }
                )
            return status

    def _count_matrix(self):
        """Live group x outcome counts for posterior rules (lock held)."""
        accumulator = self._auditor.accumulator
        n_outcomes = max(len(accumulator.outcome_levels), 1)
        return accumulator.counts.reshape(-1, n_outcomes)

    def _metric_value(self, name: str) -> float:
        """One registered fairness metric on the live window (lock held).

        Delegates to :meth:`StreamingAuditor.metric_values`, which
        computes from the *canonical* snapshot order — the positive
        outcome is the canonical last level, so values match the
        standalone :mod:`repro.metrics` functions bit-for-bit and are
        deterministic under WAL replay.
        """
        return self._auditor.metric_values((name,))[name]

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def epsilon(self) -> float:
        with self._lock:
            return self._auditor.epsilon()

    def trend(self, *, window: int | None = None) -> TrendSummary | None:
        """Drift summary over the in-memory batch-epsilon tail.

        The tail holds the last :data:`TREND_TAIL_BATCHES` epsilons, so
        this never touches the on-disk history — it is the hot
        ``/report`` path. ``None`` when no batch has been ingested by
        *this process* (after a restart, the durable
        :meth:`AuditHistoryStore.trend` covers the full history).
        """
        if window is not None and window < 1:
            raise ValidationError(f"window must be >= 1 batches, got {window}")
        with self._lock:
            epsilons = list(self._epsilon_tail)
        if window is not None:
            epsilons = epsilons[-window:]
        return summarize_epsilon_trend(self.name, epsilons)

    def report(self, *, trend: TrendSummary | None = None) -> MonitorReport:
        """Point epsilon, ingestion counters, and the posterior summary.

        The posterior (when ``posterior_samples > 0``) comes from the
        full audit of a canonical snapshot, so it is exactly what
        :meth:`FairnessAuditor.audit_contingency` reports for the same
        counts — the bit-identity surface of the HTTP ``/report``
        endpoint. Only the snapshot is taken under the monitor's lock;
        the (potentially expensive) posterior Monte Carlo runs outside
        it, so report polling never stalls ingestion.
        """
        with self._lock:
            epsilon = self._auditor.epsilon()
            rows_seen = self._auditor.rows_seen
            n_window_rows = self._auditor.n_window_rows
            batches = self._batches
            snapshot = (
                self._auditor.accumulator.snapshot()
                if self.config.posterior_samples > 0
                else None
            )
        posterior = None
        if snapshot is not None:
            posterior = self._auditor._auditor.audit_contingency(
                snapshot
            ).posterior
        return MonitorReport(
            monitor=self.name,
            epsilon=epsilon,
            rows_seen=rows_seen,
            n_window_rows=n_window_rows,
            window=self.config.window,
            batches=batches,
            posterior=posterior,
            trend=trend,
        )

    def audit(self) -> DatasetAudit:
        """The full subset-sweep audit of the current window.

        The canonical snapshot is taken under the lock; the (possibly
        expensive) sweep and posterior run outside it, so a big audit
        never stalls ingestion.
        """
        with self._lock:
            snapshot = self._auditor.accumulator.snapshot()
            auditor = self._auditor._auditor
        return auditor.audit_contingency(snapshot)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def checkpoint_path(self, directory: str | Path) -> Path:
        return Path(directory) / f"{self.name}.rcpk"

    def checkpoint(self, directory: str | Path, *, keep: int = 2) -> Path:
        """Write a rotated checkpoint generation under ``directory``.

        The checkpoint persists the auditor's apply cursor, so once it
        is durable the WAL prefix it covers is dead weight —
        :meth:`WriteAheadLog.trim` reclaims those sealed segments here.
        """
        path = self.checkpoint_path(directory)
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            state = self._auditor.state_dict()
            shadow_state = (
                None if self._shadow is None else self._shadow.state_dict()
            )
            progress: dict[str, Any] = {
                "batches": self._batches,
                "checkpoint_ts": float(self._clock()),
                # Idempotency keys applied so far (insertion-ordered):
                # restoring them means a client retry that straddles a
                # checkpoint + crash still deduplicates.
                "batch_ids": [
                    [key, index]
                    for key, index in self._applied_batch_ids.items()
                ],
            }
            if shadow_state is not None:
                # The shadow is cumulative over the same rows: its counts
                # are what merge/divergence logic needs after a restart.
                progress["shadow"] = _jsonable_state(shadow_state)
            rotate_checkpoint(path, keep=keep)
            save_auditor_state(path, state, progress=progress)
            self._last_checkpoint_ts = progress["checkpoint_ts"]
            self._checkpointed_seq = int(state["applied_seq"])
            if self._wal is not None:
                self._wal.trim(self._checkpointed_seq)
        return path

    def restore_from(self, directory: str | Path, *, keep: int = 2) -> bool:
        """Resume from the newest valid checkpoint generation, if any.

        Returns ``False`` when no generation exists (a fresh monitor).
        Raises :class:`repro.exceptions.CheckpointError` when
        generations exist but none is valid.
        """
        path = self.checkpoint_path(directory)
        if not checkpoint_generations(path, keep):
            return False
        state, progress, _ = load_latest_auditor_state(path, keep=keep)
        with self._lock:
            self._auditor.restore(state)
            self._batches = int(progress.get("batches", 0))
            self._applied_batch_ids = OrderedDict(
                (str(key), int(index))
                for key, index in progress.get("batch_ids", [])
            )
            self._checkpointed_seq = self._auditor.applied_seq
            if self._wal is not None:
                # Reconcile the two counters: a WAL whose sequence fell
                # behind the checkpointed apply cursor (the previous run
                # had the WAL disabled, the directory was repointed or
                # emptied, or checkpoint+trim left only an empty active
                # segment) would assign fresh appends stale sequences —
                # which the auditor must never silently skip. Pin
                # next_seq past the cursor before any new append.
                self._wal.align_seq(self._auditor.applied_seq)
            checkpoint_ts = progress.get("checkpoint_ts")
            self._last_checkpoint_ts = (
                None if checkpoint_ts is None else float(checkpoint_ts)
            )
            if self._shadow is not None:
                shadow_state = progress.get("shadow")
                if shadow_state is None:
                    raise CheckpointError(
                        f"checkpoint for windowed monitor {self.name!r} is "
                        "missing its cumulative shadow state"
                    )
                self._shadow.restore(_state_from_jsonable(shadow_state))
        return True

    def __repr__(self) -> str:
        return f"Monitor({self.name!r}, {self._auditor!r})"


def _jsonable_state(state: dict[str, Any]) -> dict[str, Any]:
    """A StreamingAuditor state dict with the count tensor JSON-encoded."""
    accumulator = dict(state["accumulator"])
    counts = accumulator["counts"]
    accumulator["counts"] = counts.reshape(-1).tolist()
    accumulator["counts_shape"] = list(counts.shape)
    return {**state, "accumulator": accumulator}


def _state_from_jsonable(state: dict[str, Any]) -> dict[str, Any]:
    accumulator = dict(state["accumulator"])
    shape = tuple(accumulator.pop("counts_shape"))
    accumulator["counts"] = np.asarray(
        accumulator["counts"], dtype=np.int64
    ).reshape(shape)
    restored = {**state, "accumulator": accumulator}
    restored["window_rows"] = [tuple(row) for row in state["window_rows"]]
    return restored


class MonitorRegistry:
    """Named monitors with lifecycle, shared history, and durability.

    Thread safety is two-level: a registry lock guards the name table
    (create/get/list/delete), and each monitor's own lock serialises its
    ingestion — so ``observe`` calls on *different* monitors run truly
    concurrently, while calls on the *same* monitor apply in some serial
    order with their history records.
    """

    def __init__(
        self,
        store: AuditHistoryStore | None = None,
        *,
        directory: str | Path | None = None,
        checkpoint_keep: int = 2,
        clock: Callable[[], float] = time.time,
        wal_enabled: bool = True,
        wal_dir: str | Path | None = None,
        wal_filesystem: FileSystem | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self._lock = threading.Lock()
        self._monitors: dict[str, Monitor] = {}
        self._directory = None if directory is None else Path(directory)
        self._checkpoint_keep = int(checkpoint_keep)
        self._clock = clock
        # One metrics registry per MonitorRegistry: the unit the service
        # exposes at GET /metrics and the unit shard snapshots merge
        # from. Injectable so tests can pin the duration clock.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # The WAL only exists for durable registries: without a
        # directory there is nothing to replay into after a restart.
        self._wal_enabled = bool(wal_enabled) and self._directory is not None
        self._wal_dir_override = None if wal_dir is None else Path(wal_dir)
        self._wal_filesystem = wal_filesystem
        if self._directory is not None:
            self._directory.mkdir(parents=True, exist_ok=True)
            if store is None:
                store = AuditHistoryStore(
                    self._directory / HISTORY_DIR, clock=clock
                )
        self.store = store

    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        directory: str | Path,
        *,
        checkpoint_keep: int = 2,
        clock: Callable[[], float] = time.time,
        wal_enabled: bool = True,
        wal_dir: str | Path | None = None,
        wal_filesystem: FileSystem | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> "MonitorRegistry":
        """Open (or initialise) a durable registry directory.

        Re-creates every monitor recorded in ``monitors.json``, resumes
        each from its newest valid checkpoint generation, and replays
        each monitor's WAL suffix past the checkpoint's apply cursor —
        so a restarted service carries on where the previous process
        left off with every acknowledged batch intact, even when that
        process died between WAL append, apply, and checkpoint.
        """
        registry = cls(
            directory=directory,
            checkpoint_keep=checkpoint_keep,
            clock=clock,
            wal_enabled=wal_enabled,
            wal_dir=wal_dir,
            wal_filesystem=wal_filesystem,
            metrics=metrics,
        )
        config_path = registry._config_path()
        if config_path is not None and config_path.exists():
            try:
                specs = json.loads(config_path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as error:
                raise MonitorError(
                    f"monitor config {config_path} could not be read: {error}"
                ) from None
            for spec in specs:
                config = MonitorConfig.from_dict(spec)
                monitor = Monitor(
                    config,
                    registry.store,
                    wal=registry._make_wal(config.name),
                    clock=clock,
                    metrics=registry.metrics,
                )
                monitor.restore_from(
                    registry._checkpoint_dir(), keep=checkpoint_keep
                )
                monitor.replay_wal()
                registry._monitors[config.name] = monitor
        return registry

    def _config_path(self) -> Path | None:
        return None if self._directory is None else self._directory / CONFIG_FILE

    def _checkpoint_dir(self) -> Path | None:
        return (
            None if self._directory is None else self._directory / CHECKPOINT_DIR
        )

    def _wal_dir(self) -> Path | None:
        if self._wal_dir_override is not None:
            return self._wal_dir_override
        return None if self._directory is None else self._directory / WAL_DIR

    def _make_wal(self, name: str) -> WriteAheadLog | None:
        if not self._wal_enabled:
            return None
        return WriteAheadLog(
            self._wal_dir() / name,
            clock=self._clock,
            filesystem=self._wal_filesystem,
            metrics=self.metrics,
            metric_labels={"monitor": name},
        )

    def _persist_configs_locked(self) -> None:
        config_path = self._config_path()
        if config_path is None:
            return
        payload = json.dumps(
            [
                monitor.config.to_dict()
                for _, monitor in sorted(self._monitors.items())
            ],
            indent=2,
            sort_keys=True,
        )
        # fsync before the rename: a rename that lands without its data
        # would leave open() refusing a directory whose WAL still holds
        # acked batches.
        _write_atomic(config_path, payload.encode("utf-8"))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def create(
        self,
        name: str,
        protected: Sequence[str],
        outcome: str,
        *,
        window: int | None = None,
        alpha: float | None = None,
        posterior_samples: int = 0,
        seed: int = 0,
        factor_levels: Sequence[Sequence[Any]] | None = None,
        outcome_levels: Sequence[Any] | None = None,
        rules: Sequence[AlertRule] = (),
    ) -> Monitor:
        """Register a new monitor; raises on a duplicate name."""
        return self.create_from_config(
            MonitorConfig(
                name=name,
                protected=tuple(protected),
                outcome=outcome,
                window=window,
                alpha=alpha,
                posterior_samples=posterior_samples,
                seed=seed,
                factor_levels=(
                    None
                    if factor_levels is None
                    else tuple(tuple(levels) for levels in factor_levels)
                ),
                outcome_levels=(
                    None if outcome_levels is None else tuple(outcome_levels)
                ),
                rules=tuple(rules),
            )
        )

    def create_from_config(self, config: MonitorConfig) -> Monitor:
        """Register a monitor from a pre-built config (the HTTP surface)."""
        with self._lock:
            if config.name in self._monitors:
                raise MonitorError(f"monitor {config.name!r} already exists")
            monitor = Monitor(
                config,
                self.store,
                wal=self._make_wal(config.name),
                clock=self._clock,
                metrics=self.metrics,
            )
            self._monitors[config.name] = monitor
            self._persist_configs_locked()
        return monitor

    def get(self, name: str) -> Monitor:
        with self._lock:
            try:
                return self._monitors[name]
            except KeyError:
                raise MonitorError(f"no monitor named {name!r}") from None

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._monitors)

    def __len__(self) -> int:
        with self._lock:
            return len(self._monitors)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._monitors

    def delete(self, name: str) -> None:
        """Unregister a monitor; drop its checkpoints and its WAL.

        History records stay: the store is append-only, and a deleted
        monitor's trace is still auditable evidence.
        """
        with self._lock:
            if name not in self._monitors:
                raise MonitorError(f"no monitor named {name!r}")
            monitor = self._monitors.pop(name)
            self._persist_configs_locked()
        checkpoint_dir = self._checkpoint_dir()
        if checkpoint_dir is not None:
            for generation in checkpoint_generations(
                monitor.checkpoint_path(checkpoint_dir)
            ):
                generation.unlink(missing_ok=True)
        if monitor.wal is not None:
            monitor.wal.close()
            wal_directory = monitor.wal.directory
            for segment in wal_directory.glob("wal-*.seg"):
                segment.unlink(missing_ok=True)
            try:
                wal_directory.rmdir()
            except OSError:
                pass  # foreign files; leave the directory for inspection

    # ------------------------------------------------------------------
    # Ingestion + durability
    # ------------------------------------------------------------------
    def observe(
        self,
        name: str,
        rows: Iterable[Sequence[Any]],
        *,
        batch_id: str | None = None,
    ) -> BatchResult:
        """Ingest a batch into the named monitor (the hot service path)."""
        return self.get(name).observe(rows, batch_id=batch_id)

    def report(self, name: str) -> MonitorReport:
        """Status report with a trend: the monitor's in-memory epsilon
        tail when this process has ingested batches (no disk I/O on the
        hot path), falling back to the durable store's full history
        (e.g. right after a restart, before new batches arrive)."""
        monitor = self.get(name)
        trend = monitor.trend()
        if trend is None and self.store is not None:
            trend = self.store.trend(name)
        return monitor.report(trend=trend)

    @property
    def is_durable(self) -> bool:
        """Whether this registry persists configs and checkpoints."""
        return self._directory is not None

    def checkpoint_monitor(self, name: str) -> Path:
        """Checkpoint one monitor through the registry's rotation policy."""
        checkpoint_dir = self._checkpoint_dir()
        if checkpoint_dir is None:
            raise MonitorError(
                "this registry has no directory; open it with "
                "MonitorRegistry.open(directory) to enable checkpoints"
            )
        return self.get(name).checkpoint(
            checkpoint_dir, keep=self._checkpoint_keep
        )

    def checkpoint_all(
        self,
        on_error: Callable[[str, Exception], None] | None = None,
    ) -> list[Path]:
        """Checkpoint every monitor (graceful-shutdown path).

        With ``on_error`` set, a monitor whose checkpoint fails is
        reported through the callback and the remaining monitors still
        checkpoint — one broken monitor must not cost the others their
        durability. Without it the first failure propagates (the strict
        historical behaviour).
        """
        checkpoint_dir = self._checkpoint_dir()
        if checkpoint_dir is None:
            raise MonitorError(
                "this registry has no directory; open it with "
                "MonitorRegistry.open(directory) to enable checkpoints"
            )
        with self._lock:
            monitors = list(self._monitors.values())
        written: list[Path] = []
        for monitor in monitors:
            try:
                written.append(
                    monitor.checkpoint(
                        checkpoint_dir, keep=self._checkpoint_keep
                    )
                )
            except Exception as error:
                if on_error is None:
                    raise
                on_error(monitor.name, error)
        return written

    def durability_status(self) -> dict[str, dict[str, Any]]:
        """Per-monitor durability health, keyed by name (``/healthz``)."""
        with self._lock:
            monitors = list(self._monitors.values())
        now = float(self._clock())
        return {
            monitor.name: monitor.durability_status(now=now)
            for monitor in monitors
        }

    def close(self) -> None:
        """Release per-monitor WAL file handles (tests and restarts)."""
        with self._lock:
            monitors = list(self._monitors.values())
        for monitor in monitors:
            if monitor.wal is not None:
                monitor.wal.close()

    def __repr__(self) -> str:
        return f"MonitorRegistry({self.names()!r})"
