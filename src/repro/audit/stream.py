"""Streaming fairness audits over live data.

Worst-case intersectional measures are exactly what regulators want
monitored *continuously* (Ghosh & Genuit's worst-case comparisons;
Section 1 of the source paper's "measuring and critiquing ... deployed
systems"), yet a one-shot :class:`repro.audit.auditor.FairnessAuditor`
recomputes everything from a full in-memory table. This module keeps the
audit current as rows arrive:

:class:`StreamingAuditor`
    Wraps a :class:`repro.core.streaming.StreamingContingency` and
    maintains the point epsilon of the live window incrementally. An
    ingestion batch of k rows costs one O(k) scatter-add into the count
    matrix; epsilon depends only on those counts, so each measurement
    is one estimator pass over every group plus one batched
    :func:`repro.core.batch.epsilon_batch` call, and the window table is
    never rebuilt. With ``window=W`` the auditor retracts the oldest
    rows as new ones arrive, so the reported epsilon always describes
    the last W rows; with ``window=None`` it is cumulative.

    :meth:`StreamingAuditor.audit` emits a full
    :class:`repro.audit.auditor.DatasetAudit` (subset sweep,
    interpretation, optional posterior sweep) from a snapshot, so every
    existing renderer — :func:`repro.audit.report.render_dataset_report`,
    the CLI — consumes streaming results unchanged.

Sharded ingestion composes through the accumulator:
``StreamingContingency.merge`` is associative and commutative, so N
shards can count independently and a reducer merges and audits — the
merged snapshot audit is bit-identical to a one-shot audit of the
concatenated rows.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.audit.auditor import DatasetAudit, FairnessAuditor
from repro.core.batch import epsilon_batch
from repro.core.estimators import ProbabilityEstimator, as_estimator
from repro.core.streaming import StreamingContingency, canonical_rows
from repro.exceptions import CheckpointError, ValidationError
from repro.tabular.table import Table

__all__ = ["ChunkProgress", "StreamingAuditor", "STATE_SCHEMA_VERSION"]

# Version of the StreamingAuditor state_dict/restore contract. Bumped on
# any change to the keys or their meaning; restore refuses other versions.
STATE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ChunkProgress:
    """Per-chunk ingestion progress reported by :meth:`StreamingAuditor.ingest`."""

    index: int
    n_rows: int
    epsilon: float


class StreamingAuditor:
    """Maintains differential fairness over a (sliding window of a) stream.

    Parameters
    ----------
    protected / outcome / estimator / posterior_samples / seed:
        As for :class:`repro.audit.auditor.FairnessAuditor`; full audits
        from :meth:`audit` are identical to auditing the window's rows
        with that class.
    window:
        ``None`` for a cumulative audit, or a positive row count W: once
        more than W rows have been observed, the oldest are retracted so
        measurements always describe the most recent W rows.
    factor_levels / outcome_levels:
        Optional pinned level lists for the underlying accumulator.
        Pinning keeps the group axis fixed (no mid-stream tensor growth)
        and is recommended for long-running windowed deployments.
    """

    def __init__(
        self,
        protected: Sequence[str],
        outcome: str,
        estimator: ProbabilityEstimator | float | None = None,
        posterior_samples: int = 0,
        seed=0,
        window: int | None = None,
        factor_levels: Sequence[Sequence[Any]] | None = None,
        outcome_levels: Sequence[Any] | None = None,
    ):
        if window is not None and int(window) < 1:
            raise ValidationError(f"window must be >= 1 rows, got {window}")
        self._estimator = as_estimator(estimator)
        self._auditor = FairnessAuditor(
            protected,
            outcome,
            estimator=self._estimator,
            posterior_samples=posterior_samples,
            seed=seed,
        )
        self._accumulator = StreamingContingency(
            protected, outcome, factor_levels, outcome_levels
        )
        self._columns = (*self._accumulator.factor_names, outcome)
        self._factor_levels = (
            None
            if factor_levels is None
            else tuple(tuple(levels) for levels in factor_levels)
        )
        self._outcome_levels = (
            None if outcome_levels is None else tuple(outcome_levels)
        )
        self._window = None if window is None else int(window)
        self._rows: deque[tuple[Any, ...]] = deque()
        self._rows_seen = 0
        self._applied_seq = 0

    # ------------------------------------------------------------------
    @property
    def accumulator(self) -> StreamingContingency:
        """The underlying mergeable accumulator (for sharded pipelines)."""
        return self._accumulator

    @property
    def window(self) -> int | None:
        return self._window

    @property
    def n_window_rows(self) -> int:
        """Rows currently inside the window (== rows seen when unbounded)."""
        return self._accumulator.n_rows

    @property
    def rows_seen(self) -> int:
        """Total rows ever observed, including evicted ones."""
        return self._rows_seen

    @property
    def applied_seq(self) -> int:
        """Apply-sequence number of the newest batch folded into the counts.

        The idempotence cursor for write-ahead-log replay: a checkpoint
        persists this number, and on restart only WAL records with a
        higher sequence are re-applied — so a batch that made it into
        the checkpoint is never double-counted, and one that did not is
        never skipped.
        """
        return self._applied_seq

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def observe(
        self,
        rows: Iterable[Sequence[Any]],
        *,
        seq: int | None = None,
        replay: bool = False,
    ) -> float:
        """Ingest rows ``(*protected values, outcome value)``; return the
        point epsilon of the updated window.

        Every cell must be in the level domain of
        :func:`repro.core.streaming.canonical_rows`: ``str``, ``bool``,
        ``int``, finite ``float`` or ``None``, with numpy scalars and
        subclasses stored as the plain value. Anything else — a
        non-finite float, a list, a ``str`` row — raises
        :class:`~repro.exceptions.ValidationError` naming the row or the
        value and its column, and nothing is counted. ``True``, ``1``
        and ``1.0`` are one level (the first-seen object is stored).

        ``seq`` is the batch's apply-sequence number for idempotent
        WAL replay. With ``replay=True`` a batch at or below
        :attr:`applied_seq` has already been folded into the counts (it
        is inside the restored checkpoint) and is skipped — the replay
        half of the never-double-counted contract. On a *live* ingest
        (``replay=False``) a stale sequence is never silently skipped:
        it means the WAL's counter fell behind the checkpointed cursor
        (a fresh or repointed log) and every skipped batch would be an
        acknowledged-then-lost one, so it raises
        :class:`repro.exceptions.CheckpointError` loudly instead.
        Without ``seq`` the cursor simply advances by one per non-empty
        batch.
        """
        return self._observe_canonical(
            canonical_rows(rows, self._columns), seq=seq, replay=replay
        )

    def _observe_canonical(
        self,
        rows: list[tuple[Any, ...]],
        *,
        seq: int | None = None,
        replay: bool = False,
    ) -> float:
        """:meth:`observe` for rows already returned by
        :func:`~repro.core.streaming.canonical_rows` (the monitor checks
        each batch once at ingress and passes it on unchanged)."""
        if seq is not None and int(seq) <= self._applied_seq:
            if replay:
                return self.epsilon()
            raise CheckpointError(
                f"live batch sequence {int(seq)} is at or below the "
                f"applied cursor {self._applied_seq}: the write-ahead "
                "log's counter is behind the checkpoint (fresh, trimmed, "
                "or repointed WAL directory) and applying would silently "
                "drop the batch; align the WAL sequence "
                "(WriteAheadLog.align_seq) before ingesting"
            )
        if rows:
            self._accumulator.update(rows)
            self._rows_seen += len(rows)
            self._evict(rows)
            self._applied_seq = (
                self._applied_seq + 1 if seq is None else int(seq)
            )
        elif seq is not None:
            self._applied_seq = int(seq)
        return self.epsilon()

    def observe_table(self, table: Table) -> float:
        """Ingest a table chunk (protected + outcome columns, categorical).

        Unbounded auditors use the accumulator's vectorised table path;
        windowed auditors must retain row identities for eviction, so the
        chunk is decoded to row tuples first.
        """
        if self._window is None:
            self._accumulator.update_table(
                table.select([*self._auditor.protected, self._auditor.outcome])
            )
            if table.n_rows:
                self._rows_seen += table.n_rows
                self._applied_seq += 1
            return self.epsilon()
        names = [*self._auditor.protected, self._auditor.outcome]
        rows = list(zip(*(table.column(name).to_list() for name in names)))
        return self.observe(rows)

    def _evict(self, new_rows: list[tuple[Any, ...]]) -> None:
        if self._window is None:
            return
        self._rows.extend(new_rows)
        overflow = len(self._rows) - self._window
        if overflow > 0:
            evicted = [self._rows.popleft() for _ in range(overflow)]
            self._accumulator.retract(evicted)

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------
    def epsilon(self) -> float:
        """Point epsilon of the current window (Equation 6/7 estimator).

        Identical to ``dataset_edf`` on the window's rows: the counts are
        the same integers, every group is re-estimated from them, and the
        measurement is one :func:`repro.core.batch.epsilon_batch` call.
        """
        outcomes = len(self._accumulator.outcome_levels)
        if outcomes < 2 or self._accumulator.n_rows == 0:
            return 0.0
        counts = self._accumulator.counts.reshape(-1, outcomes)
        probabilities = self._estimator.probabilities(counts)
        return float(
            epsilon_batch(
                probabilities[None, :, :],
                group_mass=counts.sum(axis=1).astype(float),
            )[0]
        )

    def metric_values(
        self, metrics: Sequence[str] | None = None
    ) -> dict[str, float]:
        """Every registered fairness metric (or the named ones) on the
        current window's counts.

        Metrics are pure functions of the count matrix, so maintaining
        them over the stream costs O(cells) per call — the canonical
        snapshot permutation plus one kernel pass each; no row is ever
        re-scanned, and retraction needs no extra bookkeeping. The
        snapshot's canonical level order makes the positive outcome
        (the last outcome level) and every value bit-identical to the
        standalone :mod:`repro.metrics` function — and to
        :func:`repro.core.sweep.metric_subset_sweep` — on the window's
        rows. Before any data arrives every metric is NaN (undefined).
        """
        from repro.core.metrics import (
            get_metric,
            metric_values,
            registered_metrics,
        )

        names = registered_metrics() if metrics is None else tuple(metrics)
        if (
            len(self._accumulator.outcome_levels) < 2
            or self._accumulator.n_rows == 0
        ):
            for name in names:
                get_metric(name)  # unknown names still fail loudly
            return {name: float("nan") for name in names}
        matrix = self._accumulator.snapshot().group_outcome_matrix()[0]
        return {
            name: float(value)
            for name, value in metric_values(matrix, names).items()
        }

    def audit(self) -> DatasetAudit:
        """Full audit of the current window: subset sweep, interpretation,
        and (when configured) the shared-draw posterior sweep.

        Runs on a canonical snapshot, so the result is exactly what
        :meth:`FairnessAuditor.audit_dataset` would report for the
        window's rows (bit-identical when the live levels match the
        window's observed levels — always true for unbounded streams and
        pinned schemas).
        """
        return self._auditor.audit_contingency(self._accumulator.snapshot())

    # ------------------------------------------------------------------
    # Backend-driven ingestion
    # ------------------------------------------------------------------
    def contingency_spec(self):
        """The accumulator schema for execution backends (picklable)."""
        from repro.engine.backends import ContingencySpec

        return ContingencySpec(
            tuple(self._auditor.protected),
            self._auditor.outcome,
            self._factor_levels,
            self._outcome_levels,
        )

    def _absorb(self, counts: StreamingContingency) -> None:
        """Fold a shard/chunk accumulator into the live counts (cumulative)."""
        if self._window is None:
            self._accumulator = self._accumulator.merge(counts)
            if counts.n_rows:
                self._rows_seen += counts.n_rows
                self._applied_seq += 1
            return
        raise ValidationError(
            "windowed auditors cannot absorb unordered counts; windows need "
            "row order (use an ordered backend)"
        )

    def ingest(
        self,
        source,
        *,
        backend=None,
        checkpoint_path=None,
        checkpoint_keep: int = 0,
        resume: bool = False,
        on_chunk: Callable[[ChunkProgress], None] | None = None,
        tracer=None,
    ) -> float:
        """Drive a whole CSV stream through an execution backend.

        This is the ingestion loop that used to live in the CLI: the
        auditor declares *what* to count (its :meth:`contingency_spec`)
        and the backend decides *where* the counting runs. Chunk
        boundaries are backend-invariant, so the ``on_chunk`` trace —
        and the final report — are byte-identical across backends.

        Parameters
        ----------
        source:
            A :class:`repro.engine.backends.CsvSource`. When its
            ``column_cache`` names a ``.rccol`` file, every backend
            reads (and on first use builds) the columnar cache instead
            of re-parsing CSV text — chunk boundaries and traces stay
            byte-identical to the parsed stream.
        backend:
            An :class:`repro.engine.backends.ExecutionBackend`;
            defaults to ``SerialBackend()``. Windowed auditors require
            an ordered backend (windows evict by row order).
        checkpoint_path:
            When given, a durable ``.rcpk`` auditor checkpoint is
            written atomically after every chunk.
        checkpoint_keep:
            Retained checkpoint generations (``0``, the default, keeps
            only the newest file — the historical behaviour). With
            ``keep=N`` every save first rotates ``path`` to ``path.1``
            (... up to ``path.N``) via
            :func:`repro.engine.checkpoint.rotate_checkpoint`, and
            ``resume`` falls back to the newest *valid* generation, so
            a torn or corrupted final write never strands a
            long-running monitor.
        resume:
            Restore ``checkpoint_path`` first and skip the rows it has
            already ingested; requires an ordered backend and assumes
            the same source is being replayed from its first row. An
            already-finished stream is not an error — the restored
            state simply reports its final epsilon again.
        on_chunk:
            Called with a :class:`ChunkProgress` after every chunk.
        tracer:
            Optional :class:`repro.obs.trace.Tracer`. When given it is
            also installed on the backend, so one trace file captures
            the backend's parse/decode stages *and* this loop's
            merge/checkpoint work as nested spans.

        Returns the final epsilon of the stream.
        """
        from repro.engine.backends import SerialBackend
        from repro.engine.checkpoint import (
            load_auditor_state,
            load_latest_auditor_state,
            rotate_checkpoint,
            save_auditor_state,
        )

        if backend is None:
            backend = SerialBackend()
        if tracer is None:
            from repro.obs.trace import NULL_TRACER as tracer
        else:
            backend.tracer = tracer
        if int(checkpoint_keep) < 0:
            raise ValidationError(
                f"checkpoint_keep must be >= 0 generations, got {checkpoint_keep}"
            )
        checkpoint_keep = int(checkpoint_keep)
        chunks_done = 0
        skip_rows = 0
        if resume:
            if checkpoint_path is None:
                raise ValidationError("resume requires a checkpoint path")
            if not backend.supports_ordered_rows:
                raise ValidationError(
                    f"resume requires an ordered backend, not {backend.name!r}"
                )
            if checkpoint_keep:
                state, progress, _ = load_latest_auditor_state(
                    checkpoint_path, keep=checkpoint_keep
                )
            else:
                state, progress = load_auditor_state(checkpoint_path)
            self.restore(state)
            chunks_done = int(progress.get("chunks_ingested", 0))
            skip_rows = self._rows_seen
        ordered = self._window is not None or backend.supports_ordered_rows
        if ordered and not backend.supports_ordered_rows:
            raise ValidationError(
                f"the {backend.name!r} backend cannot ingest into a sliding "
                "window; windows need row order (SerialBackend)"
            )

        def emit(n_rows: int, epsilon: float) -> None:
            nonlocal chunks_done
            chunks_done += 1
            if checkpoint_path is not None:
                if checkpoint_keep:
                    rotate_checkpoint(checkpoint_path, keep=checkpoint_keep)
                save_auditor_state(
                    checkpoint_path,
                    self.state_dict(),
                    progress={"chunks_ingested": chunks_done},
                )
            if on_chunk is not None:
                on_chunk(ChunkProgress(chunks_done, n_rows, epsilon))

        if ordered:
            # The ordered path consumes tables straight from the backend
            # (no counts stage), so the parse spans that the unordered
            # backends emit themselves are emitted here instead.
            tables = backend.iter_chunk_tables(source, skip_rows=skip_rows)
            index = 0
            with tracer.span(
                "ingest", backend=backend.name, path=source.path
            ):
                while True:
                    with tracer.span("parse", chunk=index):
                        table = next(tables, None)
                    if table is None:
                        break
                    with tracer.span(
                        "merge", chunk=index, rows=table.n_rows
                    ):
                        epsilon = self.observe_table(table)
                    emit(table.n_rows, epsilon)
                    index += 1
        else:
            spec = self.contingency_spec()
            for chunk in backend.iter_chunk_counts(source, spec):
                with tracer.span(
                    "merge", chunk=chunk.index, rows=chunk.n_rows
                ):
                    self._absorb(chunk.counts)
                emit(chunk.n_rows, self.epsilon())
        return self.epsilon()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """Checkpoint of the accumulator plus the eviction queue.

        Self-describing: carries the state-format version and the
        auditor's configuration so :meth:`restore` can refuse a
        checkpoint that belongs to a different audit instead of
        silently corrupting counts.
        """
        return {
            "schema_version": STATE_SCHEMA_VERSION,
            "protected": list(self._auditor.protected),
            "outcome": self._auditor.outcome,
            "accumulator": self._accumulator.state_dict(),
            "window": self._window,
            "window_rows": list(self._rows),
            "rows_seen": self._rows_seen,
            "applied_seq": self._applied_seq,
        }

    def restore(self, state: dict[str, Any]) -> "StreamingAuditor":
        """Restore a :meth:`state_dict` checkpoint in place.

        Raises :class:`repro.exceptions.CheckpointError` when the
        checkpoint's state-format version, protected/outcome names, or
        window do not match this auditor's configuration — each of
        which would otherwise scramble counts silently.
        """
        version = state.get("schema_version")
        if version != STATE_SCHEMA_VERSION:
            raise CheckpointError(
                f"checkpoint state schema version {version!r} does not match "
                f"this library's {STATE_SCHEMA_VERSION}"
            )
        protected = list(state.get("protected", []))
        if protected != list(self._auditor.protected):
            raise CheckpointError(
                f"checkpoint protected attributes {protected} do not match "
                f"the auditor's {list(self._auditor.protected)}"
            )
        if state.get("outcome") != self._auditor.outcome:
            raise CheckpointError(
                f"checkpoint outcome {state.get('outcome')!r} does not match "
                f"the auditor's {self._auditor.outcome!r}"
            )
        if state["window"] != self._window:
            raise CheckpointError(
                f"checkpoint window {state['window']!r} does not match the "
                f"auditor's window {self._window!r}"
            )
        accumulator = StreamingContingency.from_state(state["accumulator"])
        if accumulator.factor_names != list(self._auditor.protected):
            raise CheckpointError(
                f"checkpoint accumulator factors {accumulator.factor_names} "
                f"do not match the auditor's {list(self._auditor.protected)}"
            )
        if accumulator.outcome_name != self._auditor.outcome:
            raise CheckpointError(
                f"checkpoint accumulator outcome "
                f"{accumulator.outcome_name!r} does not match the auditor's "
                f"{self._auditor.outcome!r}"
            )
        self._accumulator = accumulator
        self._rows = deque(tuple(row) for row in state["window_rows"])
        self._rows_seen = int(state["rows_seen"])
        # applied_seq joined the state format without a schema-version
        # bump: checkpoints written before it default to 0. Those
        # checkpoints predate the write-ahead log, so there is no WAL
        # suffix for the cursor to gate.
        self._applied_seq = int(state.get("applied_seq", 0))
        return self

    def __repr__(self) -> str:
        window = "unbounded" if self._window is None else f"last {self._window}"
        return (
            f"StreamingAuditor({', '.join(self._auditor.protected)} x "
            f"{self._auditor.outcome}, window={window}, "
            f"rows={self._accumulator.n_rows})"
        )
