"""Integration tests for the telemetry wiring through the hot paths.

The registry/trace primitives are unit-tested in ``test_obs_metrics``
and ``test_obs_trace``; this module checks the *wiring*: WAL and
``Monitor.observe`` instrument counts after real work, the pool-leak
destructor counter, the scan-report schemas the CLI exposes, the
service's ``/metrics``/``/metrics.json``/``/healthz`` surfaces (strict
JSON under concurrent load), and the ``metrics-snapshot`` /
``audit-stream --trace-out`` commands end to end.
"""

from __future__ import annotations

import itertools
import json
import logging
import threading
import urllib.request

import numpy as np
import pytest

from faults import FaultyFileSystem
from repro.cli import main
from repro.engine.backends import ProcessPoolBackend
from repro.exceptions import WalError
from repro.monitor.fleet import fleet_status_snapshot
from repro.monitor.registry import MonitorConfig, MonitorRegistry
from repro.monitor.service import MonitorService
from repro.monitor.wal import WriteAheadLog, inspect_wal
from repro.obs.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    reset_default_registry,
)
from repro.tabular.csv_io import write_csv
from repro.tabular.table import Table

pytestmark = pytest.mark.obs

NAMES = ["gender", "race", "hired"]

BASE_CONFIG = {
    "name": "hiring",
    "protected": NAMES[:2],
    "outcome": NAMES[2],
    "alpha": 1.0,
}


def fake_clock(start: float = 1_700_000_000.0, step: float = 1.0):
    counter = itertools.count()
    return lambda: start + step * float(next(counter))


def synthetic_rows(n_rows: int, seed: int = 5) -> list[list[str]]:
    rng = np.random.default_rng(seed)
    return [
        [f"g{rng.integers(2)}", f"r{rng.integers(3)}", f"y{rng.integers(2)}"]
        for _ in range(n_rows)
    ]


def series_value(registry, family: str, **labels):
    """The value/count of one series from a registry state_dict."""
    families = registry.state_dict()["families"]
    if family not in families:
        return None
    for series in families[family]["series"]:
        if series["labels"] == labels:
            return series.get("value", series.get("count"))
    return None


class TestWalTelemetry:
    def test_append_and_fsync_counts(self, tmp_path):
        registry = MetricsRegistry()
        wal = WriteAheadLog(
            tmp_path / "wal", metrics=registry, metric_labels={"monitor": "m"}
        )
        for index in range(3):
            wal.append({"rows": [["a", "b", "y"]], "batch": index})
        wal.close()
        labels = {"monitor": "m"}
        assert series_value(registry, "repro_wal_appends_total", **labels) == 3
        assert series_value(registry, "repro_wal_fsyncs_total", **labels) == 3
        assert (
            series_value(registry, "repro_wal_append_seconds", **labels) == 3
        )
        assert series_value(registry, "repro_wal_degraded", **labels) == 0

    def test_rolled_back_append_is_not_counted(self, tmp_path):
        # fsync #1 seals the new segment header; #2 is the first append.
        # Its record is truncated away and the append is safe to retry,
        # so the counter must not keep it (a retry would count twice).
        filesystem = FaultyFileSystem()
        filesystem.fail_fsync_at = {2}
        registry = MetricsRegistry()
        wal = WriteAheadLog(
            tmp_path / "wal", filesystem=filesystem, metrics=registry
        )
        with pytest.raises(WalError) as excinfo:
            wal.append({"rows": [["a", "b", "y"]]})
        assert excinfo.value.indeterminate is False
        assert wal.status()["appends"] == 0
        assert list(wal.records()) == []
        assert series_value(registry, "repro_wal_appends_total") == 0
        wal.close()

    def test_degraded_transitions_are_counted(self, tmp_path):
        filesystem = FaultyFileSystem()
        # fsync #1 seals the new segment header; #2 is the first append
        filesystem.fail_fsync_at = {2}
        registry = MetricsRegistry()
        wal = WriteAheadLog(
            tmp_path / "wal",
            filesystem=filesystem,
            metrics=registry,
            clock=fake_clock(step=10.0),  # each call jumps past the probe
        )
        with pytest.raises(WalError):
            wal.append({"rows": []})
        assert series_value(registry, "repro_wal_degraded") == 1
        assert (
            series_value(
                registry,
                "repro_wal_degraded_transitions_total",
                direction="enter",
            )
            == 1
        )
        # The next probe append succeeds and clears the degraded state.
        wal.append({"rows": []})
        wal.close()
        assert series_value(registry, "repro_wal_degraded") == 0
        assert (
            series_value(
                registry,
                "repro_wal_degraded_transitions_total",
                direction="clear",
            )
            == 1
        )


class TestObserveTelemetry:
    def test_observe_stage_and_dedup_counters(self, tmp_path):
        registry = MonitorRegistry.open(tmp_path / "data", clock=fake_clock())
        config = dict(
            BASE_CONFIG,
            rules=[{"type": "epsilon_threshold", "threshold": 0.0}],
        )
        registry.create_from_config(MonitorConfig.from_dict(config))
        monitor = registry.get("hiring")
        rows = synthetic_rows(40)
        monitor.observe(rows, batch_id="b0")
        monitor.observe(synthetic_rows(20, seed=7), batch_id="b1")
        duplicate = monitor.observe(rows, batch_id="b0")
        assert duplicate.duplicate
        registry.close()

        metrics = registry.metrics
        labels = {"monitor": "hiring"}
        assert (
            series_value(metrics, "repro_observe_rows_total", **labels) == 60
        )
        assert (
            series_value(metrics, "repro_observe_batches_total", **labels)
            == 2
        )
        assert (
            series_value(metrics, "repro_observe_duplicates_total", **labels)
            == 1
        )
        assert (
            series_value(metrics, "repro_observe_seconds", **labels) == 2
        )
        for stage in ("admit", "wal_append", "apply", "alerts"):
            assert (
                series_value(
                    metrics, "repro_observe_stage_seconds", stage=stage, **labels
                )
                == 2
            ), stage
        # threshold 0.0 fires on every applied batch
        assert (
            series_value(
                metrics,
                "repro_alert_rule_seconds",
                rule="EpsilonThresholdRule",
                **labels,
            )
            == 2
        )
        assert (
            series_value(
                metrics,
                "repro_alerts_fired_total",
                rule="EpsilonThresholdRule",
                **labels,
            )
            == 2
        )


@pytest.mark.parallel
class TestPoolLifecycle:
    def test_reclaimed_backend_without_close_is_counted(self, caplog):
        registry = MetricsRegistry()
        backend = ProcessPoolBackend(workers=1, metrics=registry)
        backend._ensure_pool()
        with caplog.at_level(logging.WARNING, "repro.engine.backends"):
            backend.__del__()
        assert series_value(registry, "repro_pool_leaked_total") == 1
        assert any(
            "garbage-collected with a live worker pool" in record.message
            for record in caplog.records
        )

    def test_closed_backend_is_not_a_leak(self, caplog):
        registry = MetricsRegistry()
        backend = ProcessPoolBackend(workers=1, metrics=registry)
        backend._ensure_pool()
        backend.close()
        with caplog.at_level(logging.WARNING, "repro.engine.backends"):
            backend.__del__()
        assert series_value(registry, "repro_pool_leaked_total") == 0
        assert not caplog.records


class TestScanSchemas:
    """Satellite (b): the offline scan reports are a stable contract."""

    WAL_REPORT_KEYS = {
        "directory",
        "segments",
        "n_segments",
        "records",
        "rows",
        "first_seq",
        "last_seq",
        "scan_seconds",
    }
    SEGMENT_KEYS = {
        "segment",
        "bytes",
        "records",
        "first_seq",
        "last_seq",
        "torn_bytes",
    }
    SCAN_KEYS = {
        "seconds",
        "history_segments",
        "history_records",
        "monitors",
    }

    def _ingest(self, directory, n_rows=30):
        registry = MonitorRegistry.open(directory, clock=fake_clock())
        registry.create_from_config(MonitorConfig.from_dict(BASE_CONFIG))
        registry.get("hiring").observe(synthetic_rows(n_rows))
        registry.close()

    def test_wal_inspect_json_schema_is_stable(self, tmp_path, capsys):
        self._ingest(tmp_path / "data")
        assert (
            main(["wal-inspect", "--data-dir", str(tmp_path / "data"), "--json"])
            == 0
        )
        reports = json.loads(capsys.readouterr().out)
        assert set(reports) == {"hiring"}
        report = reports["hiring"]
        assert set(report) == self.WAL_REPORT_KEYS
        assert report["n_segments"] == len(report["segments"]) == 1
        assert set(report["segments"][0]) == self.SEGMENT_KEYS
        assert report["scan_seconds"] >= 0.0
        # and inspect_wal records the scan into a given registry
        registry = MetricsRegistry()
        wal_dir = tmp_path / "data" / "wal" / "hiring"
        inspect_wal(wal_dir, metrics=registry)
        assert series_value(registry, "repro_scan_seconds", scope="wal") == 1
        assert (
            series_value(registry, "repro_wal_records")
            == report["records"]
        )

    def test_fleet_status_scan_block(self, tmp_path, capsys):
        for index in range(2):
            self._ingest(tmp_path / f"shard-{index:02d}")
        snapshot = fleet_status_snapshot(tmp_path)
        scan = snapshot["scan"]
        assert set(scan) == self.SCAN_KEYS | {"shards_scanned"}
        assert scan["shards_scanned"] == 2
        assert scan["monitors"] == 2
        assert scan["history_records"] == 2  # one batch per shard
        assert scan["history_segments"] >= 2
        assert scan["seconds"] >= 0.0
        assert main(["fleet-status", "--data-dir", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        assert "scan: 2 shard(s)" in text


def _http(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read().decode(), dict(
            response.headers
        )


def strict_json(text: str):
    """json.loads that rejects Infinity/NaN literals (strict JSON)."""

    def reject(value):
        raise AssertionError(f"non-strict JSON literal {value!r}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.service
class TestServiceMetricsSurface:
    @pytest.fixture
    def service(self, tmp_path):
        registry = MonitorRegistry.open(tmp_path / "data", clock=fake_clock())
        service = MonitorService(registry).start()
        yield service
        service.shutdown()

    def _create_and_observe(self, service, n_rows=30):
        request = urllib.request.Request(
            service.url + "/monitors",
            data=json.dumps(BASE_CONFIG).encode(),
            method="POST",
        )
        urllib.request.urlopen(request, timeout=10).read()
        request = urllib.request.Request(
            service.url + "/monitors/hiring/observe",
            data=json.dumps({"rows": synthetic_rows(n_rows)}).encode(),
            method="POST",
        )
        urllib.request.urlopen(request, timeout=10).read()

    def test_metrics_text_and_json_agree(self, service):
        self._create_and_observe(service, n_rows=30)
        status, text, headers = _http(service.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        assert 'repro_observe_rows_total{monitor="hiring"} 30' in text
        status, body, headers = _http(service.url + "/metrics.json")
        assert status == 200
        assert "application/json" in headers["Content-Type"]
        restored = MetricsRegistry.from_state(strict_json(body))
        assert restored.render_prometheus() == text

    def test_healthz_is_strict_json_under_concurrent_load(self, service):
        self._create_and_observe(service)
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                request = urllib.request.Request(
                    service.url + "/monitors/hiring/observe",
                    data=json.dumps(
                        {"rows": synthetic_rows(10)}
                    ).encode(),
                    method="POST",
                )
                urllib.request.urlopen(request, timeout=10).read()

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(10):
                status, body, _ = _http(service.url + "/healthz")
                assert status == 200
                health = strict_json(body)  # raises on Infinity/NaN
                latency = health["latency"]
                assert latency["observe_seconds"]["count"] >= 1
                for summary in latency.values():
                    for band in summary["bands"].values():
                        # +Inf overflow bands arrive as the string "inf"
                        assert band is None or isinstance(
                            band, (int, float, str)
                        )
        finally:
            stop.set()
            for thread in threads:
                thread.join()

    def test_healthz_with_empty_histograms_is_strict_json(self, tmp_path):
        registry = MonitorRegistry.open(tmp_path / "data", clock=fake_clock())
        registry.create_from_config(MonitorConfig.from_dict(BASE_CONFIG))
        service = MonitorService(registry).start()
        try:
            status, body, _ = _http(service.url + "/healthz")
            assert status == 200
            health = strict_json(body)
            summary = health["latency"]["observe_seconds"]
            assert summary["count"] == 0
            assert set(summary["bands"].values()) == {None}
        finally:
            service.shutdown()


class TestCliSurfaces:
    def test_metrics_snapshot_merges_shards(self, tmp_path, capsys):
        for index in range(2):
            directory = tmp_path / f"shard-{index:02d}"
            registry = MonitorRegistry.open(directory, clock=fake_clock())
            registry.create_from_config(
                MonitorConfig.from_dict(BASE_CONFIG)
            )
            registry.get("hiring").observe(synthetic_rows(10 + index))
            registry.close()
        assert main(["metrics-snapshot", str(tmp_path)]) == 0
        page = capsys.readouterr().out
        # 1 batch per shard, merged: the WAL scan saw 2 records total
        assert 'repro_wal_records{monitor="hiring"} 2' in page
        assert 'repro_wal_rows{monitor="hiring"} 21' in page
        assert 'scope="status"' in page and 'scope="wal"' in page

    def test_metrics_snapshot_missing_dir(self, tmp_path, capsys):
        assert main(["metrics-snapshot", str(tmp_path / "absent")]) == 2

    def test_audit_stream_trace_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rows = [tuple(row) for row in synthetic_rows(600)]
        write_csv(Table.from_rows(NAMES, rows), tmp_path / "hiring.csv")
        trace_path = tmp_path / "trace.json"
        assert (
            main(
                [
                    "audit-stream",
                    "hiring.csv",
                    "--protected",
                    "gender,race",
                    "--outcome",
                    "hired",
                    "--chunk-rows",
                    "200",
                    "--trace-out",
                    str(trace_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "trace: wrote" in out
        assert not trace_path.with_suffix(".json.jsonl").exists()
        payload = json.loads(trace_path.read_text(encoding="utf-8"))
        events = payload["traceEvents"]
        names = {event["name"] for event in events}
        assert {"ingest", "parse", "merge"} <= names
        by_id = {event["args"]["span_id"]: event for event in events}
        ingest_ids = {
            event["args"]["span_id"]
            for event in events
            if event["name"] == "ingest"
        }
        nested = [
            event
            for event in events
            if event["name"] in ("parse", "decode", "merge")
        ]
        assert len(nested) >= 3 * 1  # three chunks, at least parse+merge
        for event in nested:
            parent = event["args"].get("parent_span_id")
            assert parent in by_id
            # every pipeline stage nests (transitively) under an ingest
            while parent is not None and parent not in ingest_ids:
                parent = by_id[parent]["args"].get("parent_span_id")
            assert parent in ingest_ids


def test_default_registry_isolation():
    """Module-global default registry cleanup for other obs tests."""
    fresh = reset_default_registry()
    assert fresh.state_dict()["families"] == {}
