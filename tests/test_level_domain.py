"""The level domain, checked once at ingress on every serving path.

A row-path level is a ``str``, ``bool``, ``int``, finite ``float`` or
``None`` (:func:`repro.core.streaming.canonical_rows`). These are the
regression tests for the ingress holes that domain closes:

* a non-finite float level was accepted, and a crash + WAL replay
  turned it into the *string* ``"inf"`` — a different level, so the
  recovered epsilon differed from a run that never crashed;
* numpy scalar levels were accepted with the WAL off but refused as
  "not JSON-serialisable" with it on, and stored as numpy objects on
  the live path but as plain values after replay (a different
  canonical snapshot order);
* a row with a list cell was logged and then failed to apply (a 500),
  and every later ``MonitorRegistry.open`` died replaying it;
* a ``str`` row was split into characters, and a batch rejected by a
  pinned axis still grew the other axes.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.audit.stream import StreamingAuditor
from repro.core.streaming import StreamingContingency, canonical_rows
from repro.exceptions import ValidationError
from repro.monitor.registry import MonitorRegistry
from repro.monitor.service import MonitorService

NON_FINITE = [float("inf"), float("-inf"), float("nan")]


def typed_levels(monitor):
    """Canonical snapshot levels with their types (``1 == 1.0`` hides them)."""
    snapshot = monitor._auditor.accumulator.snapshot()
    return [
        [(type(level).__name__, level) for level in levels]
        for levels in [*snapshot.factor_levels, snapshot.outcome_levels]
    ]


def post_raw(url: str, body: bytes):
    request = urllib.request.Request(url, data=body, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture
def durable(tmp_path):
    registry = MonitorRegistry.open(tmp_path / "data")
    yield registry
    registry.close()


class TestCanonicalRows:
    def test_plain_batch_passes_through_as_tuples(self):
        rows = [["a", 1, True, None, 2.5]]
        assert canonical_rows(rows, "abcde") == [("a", 1, True, None, 2.5)]

    def test_numpy_scalars_and_subclasses_become_plain_values(self):
        class Label(str):
            pass

        rows = [(np.int64(3), np.bool_(True), np.float32(0.5), Label("x"))]
        (row,) = canonical_rows(rows, "abcd")
        assert [type(cell) for cell in row] == [int, bool, float, str]
        assert row == (3, True, 0.5, "x")

    @pytest.mark.parametrize(
        "cell", [*NON_FINITE, ["x"], {"x": 1}, ("x",), b"x", object()]
    )
    def test_out_of_domain_cell_names_row_column_and_value(self, cell):
        with pytest.raises(ValidationError) as raised:
            canonical_rows([("a", "p"), ("b", cell)], ["group", "outcome"])
        message = str(raised.value)
        assert "row 1" in message and "'outcome'" in message
        assert repr(cell) in message

    @pytest.mark.parametrize("row", ["mn", b"mn", 7, {"a": 1}])
    def test_non_sequence_rows_are_rejected_by_index(self, row):
        with pytest.raises(ValidationError, match="row 1"):
            canonical_rows([("f", "p"), row], ["group", "outcome"])

    def test_wrong_width_is_rejected_by_index(self):
        with pytest.raises(ValidationError, match="row 2 has 1 cells"):
            canonical_rows([("f", "p"), ("g", "n"), ("h",)], ["g", "o"])


class TestStringRows:
    def test_accumulator_rejects_string_rows(self):
        accumulator = StreamingContingency(["a"], "y")
        with pytest.raises(ValidationError, match="row 0"):
            accumulator.update(["ab", "cd"])
        assert accumulator.n_rows == 0
        accumulator.update([("a", "b")])
        with pytest.raises(ValidationError, match="row 0"):
            accumulator.retract(["ab"])
        assert accumulator.n_rows == 1

    def test_monitor_rejects_string_rows_before_the_wal(self, durable):
        monitor = durable.create("m", ["f"], "y")
        with pytest.raises(ValidationError, match="row 1"):
            monitor.observe([("f", "p"), "mn"])
        assert monitor.batches == 0
        assert monitor.wal.last_seq == 0

    def test_auditor_rejects_string_rows(self):
        auditor = StreamingAuditor(["f"], "y")
        with pytest.raises(ValidationError, match="row 1"):
            auditor.observe([("f", "p"), "mn"])
        assert auditor.rows_seen == 0


class TestRejectedBatchLeaksNoLevels:
    def test_pinned_rejection_leaves_levels_shape_and_version(self):
        accumulator = StreamingContingency(
            ["f1", "f2"], "y", outcome_levels=["n", "p"]
        )
        accumulator.update([("a", "b", "n"), ("a2", "b2", "p")])
        before = (accumulator.factor_levels, accumulator.counts.shape)
        assert before[1] == (2, 2, 2)
        with pytest.raises(ValidationError, match="maybe"):
            accumulator.update([("new_a", "new_b", "maybe")])
        after = (accumulator.factor_levels, accumulator.counts.shape)
        assert after == before


class TestNonFiniteLevels:
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_streaming_auditor(self, value):
        auditor = StreamingAuditor(["a"], "y")
        with pytest.raises(ValidationError, match=repr(value)):
            auditor.observe([("x", "p"), (value, "n")])
        assert auditor.rows_seen == 0

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_monitor_without_wal(self, value):
        monitor = MonitorRegistry().create("m", ["a"], "y")
        with pytest.raises(ValidationError, match=repr(value)):
            monitor.observe([("x", "p"), (value, "n")])
        assert monitor.batches == 0

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_monitor_with_wal_logs_nothing(self, durable, value):
        monitor = durable.create("m", ["a"], "y")
        with pytest.raises(ValidationError, match=repr(value)):
            monitor.observe([("x", "p"), (value, "n")])
        assert monitor.batches == 0
        assert monitor.wal.last_seq == 0

    @pytest.mark.service
    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
    def test_http_literal_is_a_400(self, durable, literal):
        durable.create("m", ["a"], "y")
        service = MonitorService(durable).start()
        try:
            status, body = post_raw(
                service.url + "/monitors/m/observe",
                f'{{"rows": [["x", "p"], [{literal}, "n"]]}}'.encode(),
            )
        finally:
            service.shutdown()
        assert status == 400
        assert "not a finite float" in body["error"]
        assert durable.get("m").wal.last_seq == 0


class TestNumpyScalarLevels:
    BATCHES = [
        [(np.float64(2.5), np.bool_(True), "p"), (7, np.bool_(False), "n")],
        [(np.int64(3), np.bool_(True), "n"), (np.float64(2.5), False, "p")],
        [(7, True, "p"), (np.int64(3), np.bool_(False), "p")],
    ]

    def _run(self, registry):
        monitor = registry.create("m", ["a", "b"], "y", alpha=1.0)
        for batch in self.BATCHES:
            monitor.observe(batch)
        return monitor

    def test_wal_off_and_on_agree_with_crash_and_replay(self, tmp_path):
        never_crashed = self._run(MonitorRegistry())
        expected_epsilon = never_crashed.epsilon()
        expected_levels = typed_levels(never_crashed)
        assert expected_levels[0] == [("float", 2.5), ("int", 3), ("int", 7)]

        registry = MonitorRegistry.open(tmp_path / "data")
        live = self._run(registry)
        assert live.epsilon() == expected_epsilon
        assert typed_levels(live) == expected_levels
        registry.close()  # a crash: no checkpoint was ever written

        recovered = MonitorRegistry.open(tmp_path / "data")
        monitor = recovered.get("m")
        assert monitor.batches == len(self.BATCHES)
        assert monitor.epsilon() == expected_epsilon
        assert typed_levels(monitor) == expected_levels
        recovered.close()


class TestListCells:
    def test_list_cell_is_rejected_before_the_wal(self, durable):
        monitor = durable.create("m", ["a"], "y")
        with pytest.raises(ValidationError, match=r"\['x'\]"):
            monitor.observe([(["x"], "p")])
        assert monitor.wal.last_seq == 0

    @pytest.mark.service
    @pytest.mark.parametrize("cell", [["x"], {"x": 1}])
    def test_http_list_or_object_cell_is_a_400(self, durable, cell):
        durable.create("m", ["a"], "y")
        service = MonitorService(durable).start()
        try:
            status, body = post_raw(
                service.url + "/monitors/m/observe",
                json.dumps({"rows": [["x", "p"], [cell, "n"]]}).encode(),
            )
        finally:
            service.shutdown()
        assert status == 400
        assert "row 1" in body["error"]
        assert durable.get("m").wal.last_seq == 0

    def test_logged_list_cell_record_is_skipped_on_replay(self, tmp_path):
        good = [[("x", "p"), ("z", "n")], [("x", "n"), ("z", "n")]]
        control = MonitorRegistry().create("m", ["a"], "y", alpha=1.0)
        for batch in good:
            control.observe(batch)

        registry = MonitorRegistry.open(tmp_path / "data")
        monitor = registry.create("m", ["a"], "y", alpha=1.0)
        monitor.observe(good[0])
        # Records an older release logged before answering 500, one of
        # them the last record in the WAL.
        monitor.wal.append({"rows": [[["x"], "p"]]})
        monitor.observe(good[1])
        monitor.wal.append({"rows": [[{"x": 1}, "n"]]})
        assert monitor.wal.last_seq == 4
        registry.close()  # crash before the next checkpoint

        recovered = MonitorRegistry.open(tmp_path / "data")
        monitor = recovered.get("m")
        assert monitor.epsilon() == control.epsilon()
        assert monitor.batches == 2
        # The cursor moved past the skipped records, the last one too.
        assert monitor.durability_status()["applied_seq"] == 4
        recovered.close()
