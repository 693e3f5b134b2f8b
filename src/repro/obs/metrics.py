"""Process-local mergeable metrics registry with Prometheus rendering.

Why not ``prometheus_client``: the repo is stdlib+numpy only, and —
more importantly — fleet exposure needs *mergeable* snapshots. A
:class:`MetricsRegistry` therefore carries the same associative,
commutative ``merge``/``state_dict``/``from_state`` algebra as
:class:`repro.core.streaming.StreamingContingency`: each shard process
keeps its own registry, the fleet router fetches every shard's
``state_dict()`` over HTTP, rehydrates with :meth:`MetricsRegistry.from_state`,
and tree-merges them into fleet totals. Counters and histogram bucket
counts are integer-summed, so the merged totals are **bit-exact** —
the fleet-level ``/metrics`` page equals the sum of the shard pages.

Three instrument kinds, all thread-safe:

* :class:`Counter` — monotonically increasing value (``inc``).
* :class:`Gauge` — point-in-time value (``set``/``inc``/``dec``);
  merging sums gauges, which is the meaningful aggregation for the
  occupancy/in-flight gauges this repo records (fleet total in-flight
  = sum of shard in-flight).
* :class:`Histogram` — fixed-boundary bucket counts plus ``sum`` and
  ``count``. Boundaries are pinned at creation so shard histograms are
  always merge-compatible; a boundary mismatch at merge time raises
  :class:`~repro.exceptions.ValidationError` instead of producing a
  silently wrong distribution.

Instruments are identified by ``(family name, label set)`` — e.g.
``repro_wal_fsync_seconds{monitor="adult"}`` — and handles returned by
:meth:`~MetricsRegistry.counter` /:meth:`~MetricsRegistry.gauge`
/:meth:`~MetricsRegistry.histogram` are stable, so hot paths resolve
them once at construction time and pay only an attribute call plus a
lock per update afterwards.

The registry clock is injectable (``clock=time.perf_counter`` by
default) so tests — including the Prometheus golden-file test — can
drive duration measurements deterministically via :meth:`MetricsRegistry.timed`.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Mapping

from repro.exceptions import ValidationError

__all__ = [
    "DEFAULT_LATENCY_BOUNDARIES",
    "PROMETHEUS_CONTENT_TYPE",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "default_registry",
    "reset_default_registry",
]

SCHEMA_VERSION = 1

# Exposition format 0.0.4 — what Prometheus scrapers negotiate for the
# classic text format served on /metrics.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

# Latency buckets (seconds): sub-millisecond fsyncs through multi-second
# stalls, prometheus-style 1/2.5/5 decades.
DEFAULT_LATENCY_BOUNDARIES: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _format_number(value) -> str:
    """Prometheus-text formatting: ints bare, floats via ``repr``."""
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    return repr(value)


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace("\n", "\\n")


class Counter:
    """A monotonically increasing value; merge = integer/float sum."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValidationError(
                f"counters only go up; inc({amount!r}) is not allowed"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value

    def _merge_value(self, value) -> None:
        with self._lock:
            self._value += value


class Gauge:
    """A point-in-time value; merge = sum (fleet total of shard gauges)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value: int | float = 0

    def set(self, value: int | float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value

    def _merge_value(self, value) -> None:
        with self._lock:
            self._value += value


class Histogram:
    """Fixed-boundary bucket counts + sum + count.

    ``boundaries`` are the *upper* bounds of the finite buckets, strictly
    increasing; one implicit overflow bucket (``+Inf``) is always
    appended, so ``bucket_counts`` has ``len(boundaries) + 1`` entries.
    Rendering follows Prometheus semantics: ``_bucket{le=...}`` values
    are cumulative, ``le="+Inf"`` equals ``_count``.
    """

    __slots__ = ("_lock", "boundaries", "_bucket_counts", "_sum", "_count")

    def __init__(self, boundaries: Iterable[float]) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise ValidationError("a histogram needs >= 1 bucket boundary")
        if any(not math.isfinite(b) for b in bounds):
            raise ValidationError(
                f"histogram boundaries must be finite, got {bounds}"
            )
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValidationError(
                f"histogram boundaries must be strictly increasing, "
                f"got {bounds}"
            )
        self._lock = threading.Lock()
        self.boundaries = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)
        self._sum: int | float = 0
        self._count = 0

    def observe(self, value: int | float) -> None:
        index = bisect.bisect_left(self.boundaries, value)
        with self._lock:
            self._bucket_counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def bucket_counts(self) -> tuple[int, ...]:
        with self._lock:
            return tuple(self._bucket_counts)

    @property
    def sum(self) -> int | float:
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def quantile_band(self, quantile: float) -> float | None:
        """Upper bound of the bucket holding the ``quantile``-th value.

        Histograms cannot give exact percentiles; they give *bands* —
        the bucket boundary below which at least ``quantile`` of the
        observations fell. Returns ``math.inf`` when the quantile lands
        in the overflow bucket and ``None`` for an empty histogram.
        """
        if not 0.0 <= quantile <= 1.0:
            raise ValidationError(f"quantile must be in [0, 1], got {quantile}")
        with self._lock:
            total = self._count
            counts = list(self._bucket_counts)
        if total == 0:
            return None
        rank = quantile * total
        cumulative = 0
        for index, bucket in enumerate(counts):
            cumulative += bucket
            if cumulative >= rank and cumulative > 0:
                if index < len(self.boundaries):
                    return self.boundaries[index]
                return math.inf
        return math.inf  # pragma: no cover - cumulative == total >= rank

    def _merge_series(self, bucket_counts, total_sum, count) -> None:
        with self._lock:
            for index, value in enumerate(bucket_counts):
                self._bucket_counts[index] += value
            self._sum += total_sum
            self._count += count


_INSTRUMENT_TYPES = {"counter": Counter, "gauge": Gauge}


class _Family:
    """All series (label sets) of one metric name."""

    __slots__ = ("name", "type", "help", "boundaries", "series")

    def __init__(self, name, type_, help_, boundaries) -> None:
        self.name = name
        self.type = type_
        self.help = help_
        self.boundaries = boundaries
        self.series: dict[tuple[tuple[str, str], ...], Any] = {}

    def new_instrument(self):
        if self.type == "histogram":
            return Histogram(self.boundaries)
        return _INSTRUMENT_TYPES[self.type]()


def _label_key(labels: Mapping[str, str] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    items = []
    for key in sorted(labels):
        if not _LABEL_RE.match(key):
            raise ValidationError(f"invalid metric label name {key!r}")
        if key == "le":
            raise ValidationError(
                'the label name "le" is reserved for histogram buckets'
            )
        items.append((key, str(labels[key])))
    return tuple(items)


class MetricsRegistry:
    """A process-local registry of named, labelled instruments.

    The registry is the unit of exposure (one per serving process,
    rendered at ``GET /metrics``) and the unit of merging (shard
    registries tree-merge into fleet totals). Instrument creation is
    get-or-create: asking twice for the same ``(name, labels)`` returns
    the same handle, so callers bind handles once and update them
    lock-cheap afterwards.
    """

    def __init__(self, *, clock: Callable[[], float] = time.perf_counter):
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}
        self.clock = clock

    # ------------------------------------------------------------------
    # Instrument creation
    # ------------------------------------------------------------------
    def _instrument(self, name, type_, help_, labels, boundaries=None):
        if not _NAME_RE.match(name):
            raise ValidationError(f"invalid metric name {name!r}")
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, type_, help_, boundaries)
                self._families[name] = family
            else:
                if family.type != type_:
                    raise ValidationError(
                        f"metric {name!r} is a {family.type}, not a {type_}"
                    )
                if type_ == "histogram" and family.boundaries != boundaries:
                    raise ValidationError(
                        f"histogram {name!r} already registered with "
                        f"boundaries {family.boundaries}, got {boundaries}"
                    )
                if help_ and not family.help:
                    family.help = help_
            instrument = family.series.get(key)
            if instrument is None:
                instrument = family.new_instrument()
                family.series[key] = instrument
            return instrument

    def counter(
        self, name: str, help: str = "", *, labels: Mapping[str, str] | None = None
    ) -> Counter:
        return self._instrument(name, "counter", help, labels)

    def gauge(
        self, name: str, help: str = "", *, labels: Mapping[str, str] | None = None
    ) -> Gauge:
        return self._instrument(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        *,
        boundaries: Iterable[float] = DEFAULT_LATENCY_BOUNDARIES,
        labels: Mapping[str, str] | None = None,
    ) -> Histogram:
        return self._instrument(
            name, "histogram", help, labels, tuple(float(b) for b in boundaries)
        )

    @contextmanager
    def timed(self, histogram: Histogram):
        """Observe the elapsed ``clock()`` time of the ``with`` body."""
        started = self.clock()
        try:
            yield
        finally:
            histogram.observe(self.clock() - started)

    # ------------------------------------------------------------------
    # Merge algebra (mirrors StreamingContingency)
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other``'s instruments into this registry, in place.

        Associative and commutative over disjoint *observations* (like
        :meth:`StreamingContingency.merge`): counters and histogram
        buckets sum exactly, gauges sum (shard totals), and unseen
        families/series are created. Returns ``self`` for chaining.
        """
        with other._lock:
            snapshot = {
                name: (
                    family.type,
                    family.help,
                    family.boundaries,
                    dict(family.series),
                )
                for name, family in other._families.items()
            }
        for name, (type_, help_, boundaries, series) in snapshot.items():
            for key, instrument in series.items():
                mine = self._instrument(
                    name, type_, help_, dict(key), boundaries
                )
                if type_ == "histogram":
                    mine._merge_series(
                        instrument.bucket_counts,
                        instrument.sum,
                        instrument.count,
                    )
                else:
                    mine._merge_value(instrument.value)
        return self

    def state_dict(self) -> dict[str, Any]:
        """A JSON-safe snapshot that round-trips via :meth:`from_state`.

        Counter values and histogram bucket counts are integers, so the
        snapshot → HTTP → ``from_state`` → ``merge`` path used by the
        fleet router is bit-exact for counters.
        """
        with self._lock:
            families = {
                name: (
                    family.type,
                    family.help,
                    family.boundaries,
                    dict(family.series),
                )
                for name, family in self._families.items()
            }
        payload: dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "families": {},
        }
        for name in sorted(families):
            type_, help_, boundaries, series = families[name]
            entry: dict[str, Any] = {
                "type": type_,
                "help": help_,
                "series": [],
            }
            if type_ == "histogram":
                entry["boundaries"] = list(boundaries)
            for key in sorted(series):
                instrument = series[key]
                record: dict[str, Any] = {"labels": dict(key)}
                if type_ == "histogram":
                    record["bucket_counts"] = list(instrument.bucket_counts)
                    record["sum"] = instrument.sum
                    record["count"] = instrument.count
                else:
                    record["value"] = instrument.value
                entry["series"].append(record)
            payload["families"][name] = entry
        return payload

    @classmethod
    def from_state(
        cls, state: Mapping[str, Any], *, clock: Callable[[], float] = time.perf_counter
    ) -> "MetricsRegistry":
        """Rehydrate a registry from a :meth:`state_dict` snapshot."""
        version = state.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValidationError(
                f"metrics state schema_version {version!r} is not supported "
                f"(expected {SCHEMA_VERSION})"
            )
        registry = cls(clock=clock)
        families = state.get("families")
        if not isinstance(families, Mapping):
            raise ValidationError("metrics state has no 'families' mapping")
        for name, entry in families.items():
            type_ = entry.get("type")
            if type_ not in ("counter", "gauge", "histogram"):
                raise ValidationError(
                    f"metric {name!r} has unknown type {type_!r}"
                )
            boundaries = (
                tuple(float(b) for b in entry["boundaries"])
                if type_ == "histogram"
                else None
            )
            for record in entry.get("series", ()):
                labels = dict(record.get("labels", {}))
                instrument = registry._instrument(
                    name, type_, entry.get("help", ""), labels, boundaries
                )
                if type_ == "histogram":
                    counts = list(record["bucket_counts"])
                    if len(counts) != len(boundaries) + 1:
                        raise ValidationError(
                            f"histogram {name!r} state has "
                            f"{len(counts)} bucket counts for "
                            f"{len(boundaries)} boundaries"
                        )
                    instrument._merge_series(
                        counts, record["sum"], record["count"]
                    )
                else:
                    instrument._merge_value(record["value"])
        return registry

    # ------------------------------------------------------------------
    # Summaries and rendering
    # ------------------------------------------------------------------
    def histogram_summary(
        self, name: str, *, quantiles: tuple[float, ...] = (0.5, 0.95, 0.99)
    ) -> dict[str, Any] | None:
        """Latency-band summary of a histogram family, all series merged.

        Returns ``{"count", "sum", "bands": {"p50": ..., ...}}`` where a
        band is the bucket upper bound (``math.inf`` for the overflow
        bucket — callers serving strict JSON pass the result through
        ``sanitize_floats``), or ``None`` bands for an empty histogram.
        ``None`` overall when the family does not exist.
        """
        with self._lock:
            family = self._families.get(name)
            if family is None or family.type != "histogram":
                return None
            series = list(family.series.values())
            boundaries = family.boundaries
        merged = Histogram(boundaries)
        for instrument in series:
            merged._merge_series(
                instrument.bucket_counts, instrument.sum, instrument.count
            )
        return {
            "count": merged.count,
            "sum": merged.sum,
            "bands": {
                f"p{int(round(q * 100))}": merged.quantile_band(q)
                for q in quantiles
            },
        }

    def render_prometheus(self) -> str:
        """Prometheus text exposition format, version 0.0.4.

        Families sort by name and series by label set, so the output is
        deterministic (pinned by a golden-file test). Histogram buckets
        are cumulative with a trailing ``le="+Inf"`` equal to ``_count``,
        per the exposition spec.
        """
        with self._lock:
            families = {
                name: (
                    family.type,
                    family.help,
                    family.boundaries,
                    dict(family.series),
                )
                for name, family in self._families.items()
            }
        lines: list[str] = []
        for name in sorted(families):
            type_, help_, boundaries, series = families[name]
            if help_:
                lines.append(f"# HELP {name} {_escape_help(help_)}")
            lines.append(f"# TYPE {name} {type_}")
            for key in sorted(series):
                instrument = series[key]
                label_text = ",".join(
                    f'{k}="{_escape_label(v)}"' for k, v in key
                )
                if type_ == "histogram":
                    counts = instrument.bucket_counts
                    cumulative = 0
                    for boundary, bucket in zip(boundaries, counts):
                        cumulative += bucket
                        le = _format_number(boundary)
                        bucket_labels = (
                            f'{label_text},le="{le}"'
                            if label_text
                            else f'le="{le}"'
                        )
                        lines.append(
                            f"{name}_bucket{{{bucket_labels}}} {cumulative}"
                        )
                    inf_labels = (
                        f'{label_text},le="+Inf"' if label_text else 'le="+Inf"'
                    )
                    lines.append(
                        f"{name}_bucket{{{inf_labels}}} {instrument.count}"
                    )
                    suffix = f"{{{label_text}}}" if label_text else ""
                    lines.append(
                        f"{name}_sum{suffix} {_format_number(instrument.sum)}"
                    )
                    lines.append(f"{name}_count{suffix} {instrument.count}")
                else:
                    suffix = f"{{{label_text}}}" if label_text else ""
                    lines.append(
                        f"{name}{suffix} {_format_number(instrument.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


class _NullInstrument:
    """Accepts every instrument method as a no-op (baseline benchmarks)."""

    __slots__ = ()

    def inc(self, amount=1) -> None:
        pass

    def dec(self, amount=1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass

    @property
    def value(self):
        return 0

    @property
    def count(self):
        return 0


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry(MetricsRegistry):
    """A registry whose instruments discard every update.

    The uninstrumented baseline for the overhead perf guard
    (``benchmarks/bench_obs.py``): wiring stays in place, the recording
    work disappears. Renders as an empty page and merges as identity.
    """

    def _instrument(self, name, type_, help_, labels, boundaries=None):
        return _NULL_INSTRUMENT


# ----------------------------------------------------------------------
# Process-global default registry: instrumentation sites that have no
# natural owner (the execution backends, leaked-pool accounting, CLI
# offline scans) record here; tests swap it with reset_default_registry.
# ----------------------------------------------------------------------
_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-global registry used when none is injected."""
    return _DEFAULT_REGISTRY


def reset_default_registry() -> MetricsRegistry:
    """Swap in a fresh default registry (test isolation); returns it."""
    global _DEFAULT_REGISTRY
    _DEFAULT_REGISTRY = MetricsRegistry()
    return _DEFAULT_REGISTRY
