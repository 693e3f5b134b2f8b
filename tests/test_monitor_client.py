"""Tests for repro.monitor.backoff and repro.monitor.client.

The backoff half is pure-function testing with a seeded RNG: delays stay
in ``[base, cap]``, respond to the cap, and the ``retry_call`` policy
honours ``should_retry``'s verdicts — including the float override that
carries a server's ``Retry-After`` hint.

The client half runs against a fake ``urlopen`` (no sockets): retry on
429/503 with the server's hint, give up after the budget, surface other
statuses immediately as :class:`MonitorClientError` with the decoded
body, and never retry non-idempotent requests the service refused for a
non-backpressure reason. One end-to-end test drives the real service
over HTTP to prove the client and server agree on the contract.
"""

from __future__ import annotations

import io
import json
import random
import urllib.error

import pytest

from faults import cut_off_reply_server
from repro.exceptions import MonitorClientError, ValidationError
from repro.monitor.backoff import decorrelated_jitter, retry_call
from repro.monitor.client import RETRYABLE_STATUSES, MonitorClient


class TestDecorrelatedJitter:
    def test_delays_stay_within_bounds(self):
        delays = decorrelated_jitter(
            base=0.1, cap=2.0, rng=random.Random(7)
        )
        draws = [next(delays) for _ in range(200)]
        assert all(0.1 <= delay <= 2.0 for delay in draws)
        assert max(draws) == 2.0  # the cap engages under growth

    def test_is_deterministic_under_a_seeded_rng(self):
        first = [
            next(
                iter(
                    decorrelated_jitter(rng=random.Random(3))
                )
            )
        ]
        second = [
            next(
                iter(
                    decorrelated_jitter(rng=random.Random(3))
                )
            )
        ]
        assert first == second

    def test_validation(self):
        with pytest.raises(ValidationError, match="base"):
            next(decorrelated_jitter(base=0.0))
        with pytest.raises(ValidationError, match="cap"):
            next(decorrelated_jitter(base=1.0, cap=0.5))


class TestRetryCall:
    def test_returns_first_success_without_sleeping(self):
        slept = []
        result = retry_call(
            lambda: "ok",
            should_retry=lambda error: True,
            sleep=slept.append,
        )
        assert result == "ok"
        assert slept == []

    def test_retries_until_success(self):
        attempts = []
        slept = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise RuntimeError("transient")
            return "done"

        result = retry_call(
            flaky,
            retries=4,
            should_retry=lambda error: True,
            rng=random.Random(1),
            sleep=slept.append,
        )
        assert result == "done"
        assert len(attempts) == 3
        assert len(slept) == 2

    def test_budget_exhausted_reraises_the_final_error(self):
        attempts = []
        with pytest.raises(RuntimeError, match="always"):
            retry_call(
                lambda: (_ for _ in ()).throw(RuntimeError("always")),
                retries=2,
                should_retry=lambda error: True,
                rng=random.Random(1),
                sleep=lambda delay: attempts.append(delay),
            )
        assert len(attempts) == 2  # 3 attempts, 2 sleeps

    def test_should_retry_false_reraises_immediately(self):
        calls = []

        def once():
            calls.append(1)
            raise ValueError("fatal")

        with pytest.raises(ValueError, match="fatal"):
            retry_call(
                once,
                retries=5,
                should_retry=lambda error: False,
                sleep=lambda delay: pytest.fail("must not sleep"),
            )
        assert len(calls) == 1

    def test_float_verdict_overrides_the_jittered_delay(self):
        slept = []
        attempts = []

        def twice():
            attempts.append(1)
            if len(attempts) < 2:
                raise RuntimeError("wait")
            return "ok"

        retry_call(
            twice,
            should_retry=lambda error: 1.5,
            rng=random.Random(1),
            sleep=slept.append,
        )
        assert slept == [1.5]

    def test_true_verdict_uses_jitter_not_literal_one_second(self):
        slept = []
        attempts = []

        def twice():
            attempts.append(1)
            if len(attempts) < 2:
                raise RuntimeError("wait")
            return "ok"

        retry_call(
            twice,
            should_retry=lambda error: True,
            base=0.01,
            cap=0.05,
            rng=random.Random(1),
            sleep=slept.append,
        )
        assert len(slept) == 1
        assert 0.01 <= slept[0] <= 0.05

    def test_zero_verdict_retries_immediately(self):
        # Retry-After: 0 is a legal "retry now" — numeric zero must not
        # be conflated with False (refuse to retry).
        slept = []
        attempts = []

        def twice():
            attempts.append(1)
            if len(attempts) < 2:
                raise RuntimeError("wait")
            return "ok"

        result = retry_call(
            twice,
            should_retry=lambda error: 0.0,
            rng=random.Random(1),
            sleep=slept.append,
        )
        assert result == "ok"
        assert slept == [0.0]

    def test_none_verdict_reraises_immediately(self):
        calls = []

        def once():
            calls.append(1)
            raise ValueError("fatal")

        with pytest.raises(ValueError, match="fatal"):
            retry_call(
                once,
                retries=5,
                should_retry=lambda error: None,
                sleep=lambda delay: pytest.fail("must not sleep"),
            )
        assert len(calls) == 1

    def test_negative_retries_rejected(self):
        with pytest.raises(ValidationError, match="retries"):
            retry_call(lambda: 1, retries=-1, should_retry=lambda e: True)


class _FakeResponse:
    def __init__(self, payload: dict):
        self._payload = json.dumps(payload).encode("utf-8")

    def read(self) -> bytes:
        return self._payload

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


def _http_error(url: str, status: int, body: dict, headers=None):
    return urllib.error.HTTPError(
        url,
        status,
        "status",
        dict(headers or {}),
        io.BytesIO(json.dumps(body).encode("utf-8")),
    )


class _FakeTransport:
    """Scripted ``urlopen``: pops the next canned outcome per call."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.requests = []

    def __call__(self, request, timeout=None):
        self.requests.append(request)
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return _FakeResponse(outcome)


def _client(transport, **kwargs) -> MonitorClient:
    slept = kwargs.pop("slept", [])
    return MonitorClient(
        "http://service.test",
        opener=transport,
        rng=random.Random(5),
        sleep=slept.append,
        **kwargs,
    )


class TestMonitorClient:
    def test_retryable_statuses_are_exactly_the_backpressure_pair(self):
        assert RETRYABLE_STATUSES == {429, 503}

    def test_success_round_trip(self):
        transport = _FakeTransport([{"status": "ok"}])
        assert _client(transport).healthz() == {"status": "ok"}
        request = transport.requests[0]
        assert request.full_url == "http://service.test/healthz"
        assert request.get_method() == "GET"

    def test_observe_retries_429_honouring_retry_after_header(self):
        url = "http://service.test/monitors/m/observe"
        slept = []
        transport = _FakeTransport(
            [
                _http_error(
                    url,
                    429,
                    {"error": "queue is full", "retry_after": 0.5},
                    headers={"Retry-After": "0.25"},
                ),
                {"epsilon": 0.1, "batch_index": 1},
            ]
        )
        result = _client(transport, slept=slept).observe("m", [["a", "y"]])
        assert result["batch_index"] == 1
        assert slept == [0.25]  # the header wins over the body field
        assert len(transport.requests) == 2

    def test_503_retry_uses_body_hint_when_no_header(self):
        url = "http://service.test/monitors/m/observe"
        slept = []
        transport = _FakeTransport(
            [
                _http_error(
                    url,
                    503,
                    {"error": "degraded", "degraded": True,
                     "retry_after": 1.0},
                ),
                {"epsilon": 0.2, "batch_index": 2},
            ]
        )
        result = _client(transport, slept=slept).observe("m", [["a", "y"]])
        assert result["batch_index"] == 2
        assert slept == [1.0]

    def test_retry_after_zero_retries_with_no_delay(self):
        url = "http://service.test/monitors/m/observe"
        slept = []
        transport = _FakeTransport(
            [
                _http_error(
                    url,
                    429,
                    {"error": "queue is full"},
                    headers={"Retry-After": "0"},
                ),
                {"epsilon": 0.3, "batch_index": 3},
            ]
        )
        result = _client(transport, slept=slept).observe("m", [["a", "y"]])
        assert result["batch_index"] == 3
        assert slept == [0.0]
        assert len(transport.requests) == 2

    def test_indeterminate_500_is_never_retried(self):
        # fsync failed AND rollback failed: the batch may be durable and
        # replayed after a crash, so re-sending could double-count.
        url = "http://service.test/monitors/m/observe"
        transport = _FakeTransport(
            [
                _http_error(
                    url,
                    500,
                    {
                        "error": "write-ahead log fsync failed",
                        "degraded": True,
                        "indeterminate": True,
                    },
                )
            ]
        )
        with pytest.raises(MonitorClientError) as excinfo:
            _client(transport).observe("m", [["a", "y"]])
        assert excinfo.value.status == 500
        assert excinfo.value.body["indeterminate"] is True
        assert len(transport.requests) == 1

    def test_gives_up_after_the_retry_budget(self):
        url = "http://service.test/monitors/m/observe"
        outcomes = [
            _http_error(url, 429, {"error": "full", "retry_after": 0.1})
            for _ in range(3)
        ]
        transport = _FakeTransport(outcomes)
        with pytest.raises(MonitorClientError) as excinfo:
            _client(transport, retries=2).observe("m", [["a", "y"]])
        assert excinfo.value.status == 429
        assert len(transport.requests) == 3

    def test_non_backpressure_errors_never_retry(self):
        url = "http://service.test/monitors/ghost/report"
        transport = _FakeTransport(
            [_http_error(url, 404, {"error": "no monitor named 'ghost'"})]
        )
        with pytest.raises(MonitorClientError) as excinfo:
            _client(transport).report("ghost")
        error = excinfo.value
        assert error.status == 404
        assert error.body == {"error": "no monitor named 'ghost'"}
        assert "no monitor named" in str(error)
        assert len(transport.requests) == 1

    def test_network_failure_surfaces_with_status_zero(self):
        transport = _FakeTransport(
            [urllib.error.URLError("connection refused")]
        )
        with pytest.raises(MonitorClientError) as excinfo:
            _client(transport).healthz()
        assert excinfo.value.status == 0

    def test_connection_refused_is_retried(self):
        # A supervised shard restarting under the fleet: the connection
        # is refused until the new process binds. Retrying converges.
        transport = _FakeTransport(
            [
                urllib.error.URLError(
                    ConnectionRefusedError(111, "Connection refused")
                ),
                urllib.error.URLError(
                    ConnectionRefusedError(111, "Connection refused")
                ),
                {"monitor": "m", "n_rows": 5},
            ]
        )
        slept = []
        result = _client(transport, slept=slept).observe("m", [["a"]] * 5)
        assert result["n_rows"] == 5
        assert len(transport.requests) == 3
        assert len(slept) == 2  # decorrelated jitter, no server hint

    def test_connection_reset_is_retried(self):
        # The shard was SIGKILLed with our connection open.
        transport = _FakeTransport(
            [
                urllib.error.URLError(
                    ConnectionResetError(104, "Connection reset by peer")
                ),
                {"status": "ok"},
            ]
        )
        assert _client(transport).healthz() == {"status": "ok"}
        assert len(transport.requests) == 2

    def test_raw_connection_reset_is_retried(self):
        # http.client can surface the reset directly (peer died while
        # we were reading the response) without URLError wrapping —
        # RemoteDisconnected subclasses ConnectionResetError.
        import http.client

        transport = _FakeTransport(
            [
                http.client.RemoteDisconnected(
                    "Remote end closed connection without response"
                ),
                {"status": "ok"},
            ]
        )
        assert _client(transport).healthz() == {"status": "ok"}
        assert len(transport.requests) == 2

    def test_reply_cut_off_mid_body_is_a_transient_failure(self):
        # The peer died while answering: counted as a reset (retryable,
        # status 0), never a raw http.client.IncompleteRead.
        with cut_off_reply_server() as url:
            with pytest.raises(MonitorClientError) as excinfo:
                MonitorClient(url, retries=0).healthz()
        assert excinfo.value.status == 0
        assert excinfo.value.transient is True

    def test_other_transport_failures_are_not_retried(self):
        # DNS failure, TLS error, bad URL... retrying cannot help and
        # the request may have non-idempotent effects server-side.
        transport = _FakeTransport(
            [
                urllib.error.URLError(OSError("no route to host")),
                {"status": "ok"},
            ]
        )
        with pytest.raises(MonitorClientError) as excinfo:
            _client(transport).healthz()
        assert excinfo.value.status == 0
        assert excinfo.value.transient is False
        assert len(transport.requests) == 1

    def test_observe_sends_batch_id_only_when_given(self):
        transport = _FakeTransport(
            [{"monitor": "m", "n_rows": 1}, {"monitor": "m", "n_rows": 1}]
        )
        client = _client(transport)
        client.observe("m", [["a"]])
        client.observe("m", [["a"]], batch_id="b-1")
        plain = json.loads(transport.requests[0].data.decode("utf-8"))
        tagged = json.loads(transport.requests[1].data.decode("utf-8"))
        assert "batch_id" not in plain
        assert tagged["batch_id"] == "b-1"

    def test_query_parameters_skip_none(self):
        transport = _FakeTransport(
            [{"monitor": "m", "kind": "batch", "records": []}]
        )
        _client(transport).history("m", since=3)
        assert transport.requests[0].full_url == (
            "http://service.test/monitors/m/history?since=3"
        )

    def test_validation(self):
        with pytest.raises(ValidationError, match="timeout"):
            MonitorClient("http://x", timeout=0)
        with pytest.raises(ValidationError, match="retries"):
            MonitorClient("http://x", retries=-1)


@pytest.mark.service
class TestClientAgainstRealService:
    def test_end_to_end_with_backpressure(self, tmp_path):
        from repro.monitor.registry import MonitorRegistry
        from repro.monitor.service import MonitorService

        registry = MonitorRegistry.open(tmp_path / "data")
        service = MonitorService(registry, queue_depth=1).start()
        try:
            client = MonitorClient(service.url, retries=2)
            client.create(
                {
                    "name": "m",
                    "protected": ["g", "r"],
                    "outcome": "y",
                    "alpha": 1.0,
                }
            )
            assert client.monitors() == ["m"]
            rows = [["g0", "r0", "y1"], ["g1", "r1", "y0"]] * 5
            result = client.observe("m", rows)
            assert result["batch_index"] == 1
            report = client.report("m")
            assert report["rows_seen"] == len(rows)
            assert client.history("m")[0]["batch_index"] == 1
            assert client.healthz()["monitors"] == 1
            with pytest.raises(MonitorClientError) as excinfo:
                client.report("ghost")
            assert excinfo.value.status == 404
            client.delete("m")
            assert client.monitors() == []
        finally:
            service.shutdown()
