"""Exception hierarchy for the repro package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as :class:`TypeError` raised by NumPy.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong shape, range, or type)."""


class SchemaError(ReproError):
    """A table operation referenced a column or type that does not exist."""


class CsvParseError(ReproError):
    """A CSV file could not be parsed against the expected schema."""


class CacheError(ReproError):
    """A columnar binary cache (``.rccol``) cannot be used.

    Raised when a cache file fails magic/version/CRC validation
    (truncation, bit rot, a foreign file) or when its recorded source
    fingerprint — size, mtime, prologue bytes, parse options — no
    longer matches the CSV it claims to cache. A stale cache is *never*
    read silently: auditing yesterday's rows while claiming to audit
    today's file would be a correctness bug, not a performance one.

    ``reason`` classifies the failure: ``"stale"`` means the cache is
    internally intact but the source moved on (safe to rebuild);
    anything else (``"magic"``, ``"version"``, ``"crc"``,
    ``"truncated"``, ``"plan"``) means the file itself is unusable.
    """

    def __init__(self, message: str, *, reason: str = "corrupt"):
        super().__init__(message)
        self.reason = str(reason)


class CheckpointError(ValidationError):
    """A durable checkpoint is corrupt, truncated, or does not match.

    Raised when a ``.rcpk`` file fails magic/version/CRC validation, and
    when restoring state whose schema (factor/outcome names, window,
    format version) disagrees with the consumer's configuration. Derives
    from :class:`ValidationError` so existing ``except ValidationError``
    call sites keep catching restore failures.
    """


class MonitorError(ReproError):
    """A fairness-monitor operation failed (unknown monitor, bad config,
    duplicate registration, or a request the monitor cannot serve)."""


class StoreError(MonitorError):
    """The audit-history store is corrupt or was used inconsistently.

    Raised when a segment file fails its framing/CRC validation beyond
    the recoverable torn-tail case, and when appends/queries violate the
    store's contract. Derives from :class:`MonitorError` so service-level
    handlers can treat monitoring-subsystem failures uniformly.
    """


class WalError(MonitorError):
    """The write-ahead ingestion log cannot accept an append durably.

    Raised when a WAL append or fsync fails (disk error, simulated
    fault) or when the log is degraded and admission control rejects the
    batch. The batch was **not** acknowledged. Carries ``retry_after``
    (seconds) as a client backoff hint.

    ``indeterminate`` distinguishes the two failure classes: ``False``
    (the default) means the batch is provably *not* in the log and a
    client may retry verbatim; ``True`` means a failed fsync could not
    be rolled back, so the record may still be durable and would be
    replayed after a crash — a retry could double-count the batch, and
    the service must not advertise the failure as retryable.
    """

    def __init__(
        self,
        message: str,
        *,
        retry_after: float = 1.0,
        indeterminate: bool = False,
    ):
        super().__init__(message)
        self.retry_after = float(retry_after)
        self.indeterminate = bool(indeterminate)


class MonitorClientError(MonitorError):
    """An HTTP call through :class:`repro.monitor.client.MonitorClient`
    failed (non-2xx response, or retries were exhausted).

    Carries the HTTP ``status`` (0 for transport-level failures) and the
    decoded error ``body`` when one was returned. ``transient`` marks
    transport failures that mean "nothing is listening right now" — a
    connection refused or reset by a shard mid-restart — which the
    client retries with the same backoff as 429/503 backpressure.
    """

    def __init__(
        self,
        message: str,
        *,
        status: int = 0,
        body=None,
        transient: bool = False,
    ):
        super().__init__(message)
        self.status = int(status)
        self.body = body
        self.transient = bool(transient)


class FleetError(MonitorError):
    """A process-per-shard fleet operation failed (bad shard count, a
    shard worker that never became ready, or a fleet directory whose
    recorded layout disagrees with the requested one — restarting with
    a different shard count would silently route monitors to the wrong
    shard's data)."""


class ShardUnavailable(FleetError):
    """The shard that owns a monitor is down (crashed, restarting, or
    circuit-broken). The router maps this to ``503`` + ``Retry-After``
    for that shard's monitors only — shard-level degradation is never
    fleet-wide. Carries the ``shard`` index and a ``retry_after`` hint
    (seconds until the supervisor expects the shard back)."""

    def __init__(self, message: str, *, shard: int, retry_after: float = 1.0):
        super().__init__(message)
        self.shard = int(shard)
        self.retry_after = float(retry_after)


class EmptyGroupError(ReproError):
    """A fairness computation required a group that has no probability mass.

    Definition 3.1 of the paper only constrains groups with ``P(s | theta) > 0``;
    this error is raised when a caller explicitly asks for an excluded group.
    """


class EstimationError(ReproError):
    """A probability estimate could not be formed (e.g. no samples drawn)."""


class CalibrationError(ReproError):
    """The synthetic-data calibration optimiser failed to meet its targets."""


class NotFittedError(ReproError):
    """A model was used for prediction before :meth:`fit` was called."""


class ConvergenceWarning(UserWarning):
    """An iterative optimiser stopped before reaching its tolerance."""
