"""Tests for repro.monitor.registry: lifecycle, bit-identity, alerts,
durability, and the concurrent-ingestion stress satellite.

The stress test is the acceptance criterion for the per-monitor locks: 8
writer threads interleave batches into one shared monitor and into
sibling monitors, and the final counts must equal the single-threaded
merge while the store holds exactly one batch record per applied batch
and exactly one alert per (monitor, batch) for an always-firing rule —
nothing lost, nothing duplicated.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np
import pytest

from faults import renames_fsynced_first
from repro.audit.auditor import FairnessAuditor
from repro.core.empirical import dataset_edf
from repro.exceptions import CheckpointError, MonitorError, ValidationError
from repro.monitor.registry import MonitorConfig, MonitorRegistry
from repro.metrics import demographic_parity_ratio
from repro.monitor.rules import (
    DivergenceRule,
    EpsilonThresholdRule,
    MetricThresholdRule,
    rule_from_dict,
)
from repro.monitor.store import AuditHistoryStore
from repro.tabular.table import Table

NAMES = ["gender", "race", "hired"]


def fake_clock(start: float = 1_700_000_000.0):
    counter = itertools.count()
    return lambda: start + float(next(counter))


def synthetic_rows(n_rows: int, seed: int = 5) -> list[tuple[str, str, str]]:
    rng = np.random.default_rng(seed)
    return [
        (f"g{rng.integers(2)}", f"r{rng.integers(3)}", f"y{rng.integers(2)}")
        for _ in range(n_rows)
    ]


def offline_epsilon(rows, window=None, alpha=1.0):
    scope = rows if window is None else rows[-window:]
    return dataset_edf(
        Table.from_rows(NAMES, scope),
        protected=NAMES[:2],
        outcome=NAMES[2],
        estimator=alpha,
    ).epsilon


@pytest.fixture
def registry(tmp_path):
    return MonitorRegistry(
        AuditHistoryStore(tmp_path / "history", clock=fake_clock())
    )


class TestLifecycle:
    def test_create_get_list_delete(self, registry):
        registry.create("a", ["gender"], "hired")
        registry.create("b", ["gender", "race"], "hired", window=100)
        assert registry.names() == ["a", "b"]
        assert len(registry) == 2
        assert "a" in registry and "ghost" not in registry
        assert registry.get("b").config.window == 100
        registry.delete("a")
        assert registry.names() == ["b"]
        with pytest.raises(MonitorError, match="no monitor named"):
            registry.get("a")
        with pytest.raises(MonitorError, match="no monitor named"):
            registry.delete("a")

    def test_duplicate_names_rejected(self, registry):
        registry.create("a", ["gender"], "hired")
        with pytest.raises(MonitorError, match="already exists"):
            registry.create("a", ["race"], "hired")

    def test_bad_names_rejected(self, registry):
        for name in ("", "has space", "a/b", "../escape", "x" * 80):
            with pytest.raises(MonitorError, match="name"):
                registry.create(name, ["gender"], "hired")

    def test_config_validation(self):
        with pytest.raises(MonitorError, match="window"):
            MonitorConfig("m", ("g",), "y", window=0)
        with pytest.raises(MonitorError, match="protected"):
            MonitorConfig("m", (), "y")
        with pytest.raises(MonitorError, match="posterior_samples"):
            MonitorConfig("m", ("g",), "y", posterior_samples=-1)

    def test_config_round_trips_through_json_dict(self):
        config = MonitorConfig(
            "m",
            ("gender", "race"),
            "hired",
            window=500,
            alpha=1.0,
            posterior_samples=100,
            seed=7,
            factor_levels=(("g0", "g1"), ("r0", "r1", "r2")),
            outcome_levels=("y0", "y1"),
            rules=(EpsilonThresholdRule(0.3), DivergenceRule(0.1)),
        )
        assert MonitorConfig.from_dict(config.to_dict()) == config


class TestBitIdentity:
    """Monitor epsilon == dataset_edf on the concatenated batch rows."""

    @pytest.mark.parametrize("window", [None, 300], ids=["cumulative", "windowed"])
    def test_epsilon_matches_offline_audit(self, registry, window):
        monitor = registry.create(
            "m", NAMES[:2], NAMES[2], window=window, alpha=1.0
        )
        rows = synthetic_rows(900)
        for start in range(0, 900, 150):
            result = monitor.observe(rows[start : start + 150])
            assert result.epsilon == offline_epsilon(
                rows[: start + 150], window=window
            )
        assert registry.report("m").epsilon == offline_epsilon(
            rows, window=window
        )

    def test_report_posterior_equals_audit_contingency(self, registry):
        monitor = registry.create(
            "m", NAMES[:2], NAMES[2], alpha=1.0, posterior_samples=150, seed=11
        )
        rows = synthetic_rows(400)
        monitor.observe(rows)
        report = monitor.report()
        offline = FairnessAuditor(
            NAMES[:2],
            NAMES[2],
            estimator=1.0,
            posterior_samples=150,
            seed=11,
        ).audit_dataset(Table.from_rows(NAMES, rows))
        assert report.posterior == offline.posterior
        assert monitor.audit().posterior == offline.posterior

    def test_full_audit_matches_offline(self, registry):
        monitor = registry.create("m", NAMES[:2], NAMES[2], alpha=1.0)
        rows = synthetic_rows(300)
        monitor.observe(rows)
        offline = FairnessAuditor(
            NAMES[:2], NAMES[2], estimator=1.0
        ).audit_dataset(Table.from_rows(NAMES, rows))
        assert monitor.audit().to_text() == offline.to_text()


class TestObserveAndAlerts:
    def test_empty_batch_rejected(self, registry):
        monitor = registry.create("m", ["gender"], "hired")
        with pytest.raises(ValidationError, match="rows"):
            monitor.observe([])

    def test_batches_and_alerts_are_recorded(self, registry):
        monitor = registry.create(
            "m",
            NAMES[:2],
            NAMES[2],
            alpha=1.0,
            rules=[EpsilonThresholdRule(-1.0, severity="info")],
        )
        rows = synthetic_rows(200)
        first = monitor.observe(rows[:100])
        second = monitor.observe(rows[100:])
        assert (first.batch_index, second.batch_index) == (1, 2)
        assert len(first.alerts) == len(second.alerts) == 1

        batches = registry.store.query(monitor="m", kind="batch")
        assert [record["batch_index"] for record in batches] == [1, 2]
        assert batches[0]["epsilon"] == first.epsilon
        assert batches[1]["rows_seen"] == 200
        alerts = registry.store.query(monitor="m", kind="alert")
        assert [record["batch_index"] for record in alerts] == [1, 2]
        assert {record["rule"] for record in alerts} == {"epsilon_threshold"}

    def test_divergence_rule_sees_the_cumulative_shadow(self, registry):
        monitor = registry.create(
            "m",
            ["gender"],
            "hired",
            window=40,
            alpha=1.0,
            rules=[DivergenceRule(0.2)],
        )
        steady = [("g0", "y0"), ("g0", "y1"), ("g1", "y0"), ("g1", "y1")] * 30
        drifted = [("g0", "y0"), ("g1", "y1")] * 20
        assert monitor.observe(steady).alerts == ()
        result = monitor.observe(drifted)
        assert [alert.rule for alert in result.alerts] == ["divergence"]
        assert result.cumulative_epsilon is not None
        assert result.alerts[0].value == pytest.approx(
            abs(result.epsilon - result.cumulative_epsilon)
        )

    def test_metric_threshold_rule_fires_with_the_window_value(self, registry):
        # The EEOC 80% rule as a declarative spec, end to end: the alert
        # value must be bit-identical to the standalone repro.metrics
        # function on the monitored rows.
        monitor = registry.create(
            "m",
            NAMES[:2],
            NAMES[2],
            alpha=1.0,
            window=240,
            rules=[
                rule_from_dict(
                    {
                        "type": "metric_threshold",
                        "metric": "demographic_parity_ratio",
                        "threshold": 0.8,
                        "direction": "below",
                    }
                )
            ],
        )
        skewed = (
            [("g0", "r0", "y1")] * 30
            + [("g0", "r0", "y0")] * 10
            + [("g1", "r0", "y1")] * 10
            + [("g1", "r0", "y0")] * 30
        )
        result = monitor.observe(skewed)
        [alert] = result.alerts
        assert alert.rule == "metric_threshold"
        assert alert.value == demographic_parity_ratio(
            [y for *_, y in skewed],
            [(g, r) for g, r, _ in skewed],
            positive="y1",
        )
        assert alert.value == pytest.approx(1 / 3)
        assert "falls below" in alert.message
        stored = registry.store.query(monitor="m", kind="alert")
        assert [record["rule"] for record in stored] == ["metric_threshold"]
        # A balanced follow-up batch lifts the window ratio: no new alert.
        balanced = [
            ("g0", "r0", "y1"),
            ("g0", "r0", "y0"),
            ("g1", "r0", "y1"),
            ("g1", "r0", "y0"),
        ] * 60
        assert monitor.observe(balanced).alerts == ()

    def test_registry_without_store_still_observes(self):
        registry = MonitorRegistry()
        monitor = registry.create("m", ["gender"], "hired", alpha=1.0)
        result = monitor.observe([("g0", "y0"), ("g1", "y1")])
        assert result.epsilon >= 0.0
        # The trend comes from the in-memory tail: no store required.
        trend = registry.report("m").trend
        assert trend is not None and trend.n_batches == 1

    def test_report_trend_prefers_memory_and_matches_store(self, registry):
        monitor = registry.create("m", NAMES[:2], NAMES[2], alpha=1.0)
        rows = synthetic_rows(300)
        for start in range(0, 300, 100):
            monitor.observe(rows[start : start + 100])
        from_memory = monitor.trend()
        from_store = registry.store.trend("m")
        assert from_memory == from_store
        assert registry.report("m").trend == from_store
        windowed = monitor.trend(window=2)
        assert windowed.n_batches == 2
        assert windowed.last == from_store.last


class TestDurability:
    def make_registry(self, tmp_path):
        return MonitorRegistry.open(tmp_path / "data", clock=fake_clock())

    def test_configs_persist_and_reopen_restores_monitors(self, tmp_path):
        registry = self.make_registry(tmp_path)
        registry.create(
            "m",
            NAMES[:2],
            NAMES[2],
            window=200,
            alpha=1.0,
            rules=[rule_from_dict({"type": "epsilon_threshold", "threshold": 0.4})],
        )
        rows = synthetic_rows(500)
        registry.observe("m", rows)
        registry.checkpoint_all()

        reopened = self.make_registry(tmp_path)
        monitor = reopened.get("m")
        assert monitor.config.window == 200
        assert monitor.config.rules == (EpsilonThresholdRule(0.4),)
        assert monitor.rows_seen == 500
        assert monitor.batches == 1
        assert monitor.report().epsilon == offline_epsilon(rows, window=200)

    def test_monitors_json_is_fsynced_before_it_is_renamed_in(
        self, tmp_path
    ):
        # A rename that lands without its data leaves open() refusing a
        # directory whose WAL still holds acked batches.
        registry = self.make_registry(tmp_path)
        verdicts = renames_fsynced_first(
            lambda: registry.create("m", NAMES[:2], NAMES[2], alpha=1.0),
            "monitors.json",
        )
        assert verdicts == [True]
        assert self.make_registry(tmp_path).names() == ["m"]

    def test_windowed_resume_continues_bit_identically(self, tmp_path):
        rows = synthetic_rows(600)
        registry = self.make_registry(tmp_path)
        registry.create("m", NAMES[:2], NAMES[2], window=250, alpha=1.0)
        registry.observe("m", rows[:300])
        registry.checkpoint_all()
        # After the checkpoint — but acknowledged, so the WAL has it and
        # reopen replays it without any client-side resend.
        registry.observe("m", rows[300:450])

        reopened = self.make_registry(tmp_path)
        monitor = reopened.get("m")
        assert monitor.rows_seen == 450
        assert monitor.batches == 2
        monitor.observe(rows[450:])
        assert monitor.report().epsilon == offline_epsilon(rows, window=250)
        # The cumulative shadow resumed too: divergence stays meaningful.
        assert monitor._shadow.rows_seen == 600
        # Replay did not duplicate the batch's history record.
        batch_records = reopened.store.query(monitor="m", kind="batch")
        assert [record["batch_index"] for record in batch_records] == [1, 2, 3]

    def test_metric_rule_survives_wal_replay(self, tmp_path):
        # An acked batch that fired a metric_threshold alert is replayed
        # from the WAL after an uncheckpointed restart: the rule config
        # persists, the replayed evaluation is bit-identical (metrics are
        # pure functions of the replayed counts), and the store keeps
        # exactly one alert record — nothing lost, nothing duplicated.
        registry = self.make_registry(tmp_path)
        registry.create(
            "m",
            NAMES[:2],
            NAMES[2],
            window=100,
            alpha=1.0,
            rules=[
                MetricThresholdRule(
                    "demographic_parity_difference", 0.4, severity="critical"
                )
            ],
        )
        skewed = (
            [("g0", "r0", "y1")] * 18
            + [("g0", "r0", "y0")] * 2
            + [("g1", "r0", "y1")] * 2
            + [("g1", "r0", "y0")] * 18
        )
        result = registry.observe("m", skewed)
        [alert] = result.alerts
        assert alert.value == pytest.approx(0.8)

        # No checkpoint: reopening must replay the batch from the WAL.
        reopened = self.make_registry(tmp_path)
        monitor = reopened.get("m")
        assert monitor.config.rules == (
            MetricThresholdRule(
                "demographic_parity_difference", 0.4, severity="critical"
            ),
        )
        assert monitor.rows_seen == len(skewed)
        assert monitor._auditor.metric_values(
            ("demographic_parity_difference",)
        ) == {"demographic_parity_difference": alert.value}
        stored = reopened.store.query(monitor="m", kind="alert")
        assert [record["value"] for record in stored] == [alert.value]
        assert stored[0]["severity"] == "critical"
        # The replayed window state keeps alerting on fresh skewed data.
        follow_up = reopened.observe("m", skewed)
        assert [event.rule for event in follow_up.alerts] == [
            "metric_threshold"
        ]

    def test_wal_enabled_after_no_wal_run_counts_every_batch(self, tmp_path):
        # A durable registry run with the WAL disabled still advances
        # (and checkpoints) the apply cursor. Re-enabling the WAL starts
        # a log whose sequence counter is behind that cursor; without
        # reconciliation every new batch would be acked, recorded, and
        # yet silently skipped by the windowed auditor.
        rows = synthetic_rows(300)
        registry = MonitorRegistry.open(
            tmp_path / "data", clock=fake_clock(), wal_enabled=False
        )
        registry.create("m", NAMES[:2], NAMES[2], window=250, alpha=1.0)
        registry.observe("m", rows[:100])
        registry.observe("m", rows[100:200])
        registry.checkpoint_all()
        registry.close()

        reopened = self.make_registry(tmp_path)
        result = reopened.observe("m", rows[200:])
        assert result.batch_index == 3
        monitor = reopened.get("m")
        assert monitor.rows_seen == 300
        assert monitor.report().epsilon == offline_epsilon(rows, window=250)
        batch_records = reopened.store.query(monitor="m", kind="batch")
        assert [r["rows_seen"] for r in batch_records] == [100, 200, 300]
        reopened.close()
        # The WAL-era batch survives a further (uncheckpointed) restart:
        # it replays from the log instead of colliding with the cursor.
        survivor = self.make_registry(tmp_path)
        assert survivor.get("m").rows_seen == 300
        assert (
            survivor.report("m").epsilon == offline_epsilon(rows, window=250)
        )
        survivor.close()

    def test_repointed_wal_directory_counts_every_batch(self, tmp_path):
        # Deleting (or repointing) the WAL directory between runs leaves
        # a fresh log whose sequences restart at 1 while the checkpoint
        # cursor is ahead — the same silent-skip trap as a --no-wal run.
        import shutil

        rows = synthetic_rows(300)
        registry = self.make_registry(tmp_path)
        registry.create("m", NAMES[:2], NAMES[2], window=250, alpha=1.0)
        registry.observe("m", rows[:100])
        registry.observe("m", rows[100:200])
        registry.checkpoint_all()
        registry.close()
        shutil.rmtree(tmp_path / "data" / "wal")

        reopened = self.make_registry(tmp_path)
        result = reopened.observe("m", rows[200:])
        assert result.batch_index == 3
        monitor = reopened.get("m")
        assert monitor.rows_seen == 300
        assert monitor.report().epsilon == offline_epsilon(rows, window=250)
        reopened.close()

    def test_corrupt_newest_generation_falls_back(self, tmp_path):
        rows = synthetic_rows(400)
        registry = self.make_registry(tmp_path)
        registry.create("m", NAMES[:2], NAMES[2], alpha=1.0)
        registry.observe("m", rows[:200])
        registry.checkpoint_all()
        registry.observe("m", rows[200:300])
        registry.checkpoint_all()
        newest = tmp_path / "data" / "checkpoints" / "m.rcpk"
        blob = newest.read_bytes()
        newest.write_bytes(blob[: len(blob) // 2])  # torn final write

        reopened = self.make_registry(tmp_path)
        monitor = reopened.get("m")
        # The prior generation carries rows[:200]; the WAL suffix past
        # its apply cursor replays the second batch the torn newest
        # generation would have covered.
        assert monitor.rows_seen == 300
        monitor.observe(rows[300:])
        assert monitor.report().epsilon == offline_epsilon(rows)

    def test_delete_drops_checkpoint_generations(self, tmp_path):
        registry = self.make_registry(tmp_path)
        registry.create("m", ["gender"], "hired", alpha=1.0)
        registry.observe("m", [("g0", "y0"), ("g1", "y1")])
        registry.checkpoint_all()
        registry.checkpoint_all()
        checkpoints = tmp_path / "data" / "checkpoints"
        assert list(checkpoints.iterdir())
        registry.delete("m")
        assert list(checkpoints.iterdir()) == []
        assert self.make_registry(tmp_path).names() == []

    def test_checkpoint_all_requires_a_directory(self):
        registry = MonitorRegistry()
        registry.create("m", ["gender"], "hired")
        with pytest.raises(MonitorError, match="directory"):
            registry.checkpoint_all()

    def test_windowed_checkpoint_missing_shadow_is_loud(self, tmp_path):
        registry = self.make_registry(tmp_path)
        registry.create("m", ["gender"], "hired", window=10, alpha=1.0)
        registry.observe("m", [("g0", "y0"), ("g1", "y1")])
        path = registry.get("m").checkpoint(
            tmp_path / "data" / "checkpoints", keep=2
        )
        # Strip the shadow from the header to simulate a foreign writer.
        from repro.engine.checkpoint import (
            load_auditor_state,
            save_auditor_state,
        )

        state, progress = load_auditor_state(path)
        progress.pop("shadow")
        save_auditor_state(path, state, progress=progress)
        with pytest.raises(CheckpointError, match="shadow"):
            self.make_registry(tmp_path)


class TestConcurrentIngestion:
    """Satellite: 8 writer threads, one shared monitor + siblings, no
    lost updates, no lost or duplicated alerts."""

    N_THREADS = 8
    BATCHES_PER_THREAD = 12
    BATCH_ROWS = 25

    def test_threaded_stress_matches_single_threaded_merge(self, tmp_path):
        registry = MonitorRegistry(
            AuditHistoryStore(tmp_path / "history", clock=fake_clock())
        )
        always_fires = EpsilonThresholdRule(-1.0, severity="info")
        registry.create(
            "shared", NAMES[:2], NAMES[2], alpha=1.0, rules=[always_fires]
        )
        for which in range(self.N_THREADS):
            registry.create(
                f"sibling-{which}",
                NAMES[:2],
                NAMES[2],
                alpha=1.0,
                rules=[always_fires],
            )

        # Pre-generate every thread's batches so the expected merge is
        # exactly the multiset union, independent of interleaving.
        batches = {
            which: [
                synthetic_rows(self.BATCH_ROWS, seed=1000 * which + index)
                for index in range(self.BATCHES_PER_THREAD)
            ]
            for which in range(self.N_THREADS)
        }
        barrier = threading.Barrier(self.N_THREADS)
        failures: list[BaseException] = []

        def writer(which: int):
            try:
                barrier.wait()
                for batch in batches[which]:
                    registry.observe("shared", batch)
                    registry.observe(f"sibling-{which}", batch)
            except BaseException as error:  # noqa: BLE001 - surfaced below
                failures.append(error)

        threads = [
            threading.Thread(target=writer, args=(which,))
            for which in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []

        # Final counts equal the single-threaded merge of all batches.
        all_rows = [
            row
            for which in range(self.N_THREADS)
            for batch in batches[which]
            for row in batch
        ]
        shared = registry.get("shared")
        assert shared.rows_seen == len(all_rows)
        assert shared.batches == self.N_THREADS * self.BATCHES_PER_THREAD
        assert shared.report().epsilon == offline_epsilon(all_rows)
        snapshot = shared.audit().sweep
        offline_sweep = FairnessAuditor(
            NAMES[:2], NAMES[2], estimator=1.0
        ).audit_dataset(Table.from_rows(NAMES, all_rows)).sweep
        assert snapshot.to_text() == offline_sweep.to_text()

        for which in range(self.N_THREADS):
            sibling_rows = [
                row for batch in batches[which] for row in batch
            ]
            assert registry.get(
                f"sibling-{which}"
            ).report().epsilon == offline_epsilon(sibling_rows)

        # No batch or alert record lost or duplicated: exactly one batch
        # record and one always-firing alert per applied batch, and the
        # shared monitor's batch indices are a permutation of 1..N.
        store = registry.store
        expected_shared = self.N_THREADS * self.BATCHES_PER_THREAD
        shared_batches = store.query(monitor="shared", kind="batch")
        shared_alerts = store.query(monitor="shared", kind="alert")
        assert len(shared_batches) == expected_shared
        assert len(shared_alerts) == expected_shared
        assert sorted(
            record["batch_index"] for record in shared_batches
        ) == list(range(1, expected_shared + 1))
        assert sorted(
            record["batch_index"] for record in shared_alerts
        ) == list(range(1, expected_shared + 1))
        for which in range(self.N_THREADS):
            assert (
                len(store.query(monitor=f"sibling-{which}", kind="batch"))
                == self.BATCHES_PER_THREAD
            )
            assert (
                len(store.query(monitor=f"sibling-{which}", kind="alert"))
                == self.BATCHES_PER_THREAD
            )

        # Each monitor's history is internally ordered: the store append
        # happens inside the monitor lock, so batch indices increase
        # with the global sequence.
        indices = [record["batch_index"] for record in shared_batches]
        assert indices == sorted(indices)
