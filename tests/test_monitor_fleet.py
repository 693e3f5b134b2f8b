"""Tests for the sharded, self-healing monitoring fleet (PR 7).

Three layers, cheapest first:

* pure-logic tests: :func:`shard_for` stability and the fleet dir
  layout contract (``fleet.json`` pins the shard count);
* fake-clock tests: every :class:`ShardSupervisor` breaker transition —
  crash, hang, replay-lag stall, double-crash backoff doubling, spawn
  failure, the open → half-open → closed arc — driven by scripted
  probes and fake processes, with exact backoff timing asserted;
* router unit tests: a :class:`FleetRouter` over real in-process
  :class:`MonitorService` shards and a fake shard table, checking
  routing correctness, shard-scoped degradation (503 + Retry-After for
  the dead shard's monitors only), and error relaying.

The ``@pytest.mark.fleet`` classes then do it for real: spawn shard
worker *subprocesses* through :class:`FleetSupervisor`, SIGKILL them at
every ingest boundary under client load, and assert the healed fleet's
final epsilon and posterior are bit-identical to a run that never
crashed — the PR's acceptance criterion.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from collections import deque

import numpy as np
import pytest

from faults import (
    cut_off_reply_server,
    feed_fleet_with_kills,
    renames_fsynced_first,
)
from repro.core.empirical import dataset_edf
from repro.exceptions import (
    FleetError,
    MonitorClientError,
    MonitorError,
    ShardUnavailable,
    ValidationError,
)
from repro.monitor.client import MonitorClient
from repro.monitor.fleet import (
    BANNER_PREFIX,
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    FleetSupervisor,
    ShardProcess,
    ShardSupervisor,
    SupervisorPolicy,
    fleet_shard_count,
    fleet_status_snapshot,
    init_fleet_dir,
    shard_dir,
    shard_dirs,
)
from repro.monitor.registry import MonitorConfig, MonitorRegistry
from repro.monitor.routing import FleetRouter, shard_for
from repro.monitor.service import MonitorService
from repro.tabular.table import Table

NAMES = ["gender", "race", "hired"]


def synthetic_rows(n_rows: int, seed: int = 5) -> list[list[str]]:
    rng = np.random.default_rng(seed)
    return [
        [f"g{rng.integers(2)}", f"r{rng.integers(3)}", f"y{rng.integers(2)}"]
        for _ in range(n_rows)
    ]


def offline_epsilon(rows, alpha=1.0):
    return dataset_edf(
        Table.from_rows(NAMES, [tuple(row) for row in rows]),
        protected=NAMES[:2],
        outcome=NAMES[2],
        estimator=alpha,
    ).epsilon


def monitor_config(name: str, **overrides) -> dict:
    config = {
        "name": name,
        "protected": NAMES[:2],
        "outcome": NAMES[2],
        "alpha": 1.0,
    }
    config.update(overrides)
    return config


def names_for_shards(n_shards: int, prefix: str = "mon") -> list[str]:
    """One monitor name per shard, found by walking the hash."""
    found: dict[int, str] = {}
    index = 0
    while len(found) < n_shards:
        name = f"{prefix}{index}"
        found.setdefault(shard_for(name, n_shards), name)
        index += 1
    return [found[shard] for shard in range(n_shards)]


# ----------------------------------------------------------------------
# shard_for: the routing contract
# ----------------------------------------------------------------------
class TestShardFor:
    def test_pinned_golden_values(self):
        # shard_for is a durable on-disk contract: these values must
        # never change, or existing fleets would route monitors at the
        # wrong shard's data directory.
        assert shard_for("hiring", 1) == 0
        assert shard_for("hiring", 2) == 0
        assert shard_for("hiring", 3) == 2
        assert shard_for("hiring", 4) == 2
        assert shard_for("hiring", 8) == 6

    def test_deterministic_and_in_range(self):
        for name in ("a", "b", "hiring", "m" * 60, "Ünïcode-ok"):
            for n_shards in (1, 2, 3, 7, 16):
                shard = shard_for(name, n_shards)
                assert 0 <= shard < n_shards
                assert shard == shard_for(name, n_shards)

    def test_roughly_balanced(self):
        counts = [0] * 4
        for index in range(400):
            counts[shard_for(f"monitor-{index}", 4)] += 1
        assert min(counts) > 50  # sha256 spreads; salted hash() would too,
        # but not *stably* across processes

    def test_validation(self):
        with pytest.raises(ValidationError):
            shard_for("", 2)
        with pytest.raises(ValidationError):
            shard_for(123, 2)
        with pytest.raises(ValidationError):
            shard_for("x", 0)
        with pytest.raises(ValidationError):
            shard_for("x", True)


# ----------------------------------------------------------------------
# Fleet directory layout
# ----------------------------------------------------------------------
class TestFleetLayout:
    def test_init_records_and_validates_shard_count(self, tmp_path):
        fleet = tmp_path / "fleet"
        assert init_fleet_dir(fleet, 3) == 3
        config = json.loads((fleet / "fleet.json").read_text())
        assert config["shards"] == 3
        # Reopen: same count or inferred count are fine...
        assert init_fleet_dir(fleet, 3) == 3
        assert init_fleet_dir(fleet) == 3
        # ...a different count would silently re-route monitors.
        with pytest.raises(FleetError, match="hash-routing"):
            init_fleet_dir(fleet, 4)

    def test_fleet_json_is_fsynced_before_it_is_renamed_in(self, tmp_path):
        # A torn or empty fleet.json after a crash makes fleet-serve
        # refuse the directory.
        fleet = tmp_path / "fleet"
        verdicts = renames_fsynced_first(
            lambda: init_fleet_dir(fleet, 2), "fleet.json"
        )
        assert verdicts == [True]
        assert json.loads((fleet / "fleet.json").read_text()) == {
            "version": 1,
            "shards": 2,
        }

    def test_first_use_requires_a_count(self, tmp_path):
        with pytest.raises(FleetError, match="no recorded layout"):
            init_fleet_dir(tmp_path / "fresh")
        with pytest.raises(ValidationError):
            init_fleet_dir(tmp_path / "fresh", 0)

    def test_shard_count_inferred_from_directories(self, tmp_path):
        # A fleet whose fleet.json was lost is still inspectable.
        fleet = tmp_path / "fleet"
        (fleet / "shard-00").mkdir(parents=True)
        (fleet / "shard-02").mkdir()
        assert fleet_shard_count(fleet) == 3
        assert [index for index, _ in shard_dirs(fleet)] == [0, 1, 2]

    def test_non_fleet_dirs(self, tmp_path):
        assert fleet_shard_count(tmp_path) is None
        with pytest.raises(MonitorError):
            shard_dirs(tmp_path)
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "fleet.json").write_text("{not json")
        with pytest.raises(FleetError, match="unreadable"):
            fleet_shard_count(bad)

    def test_shard_dir_layout(self, tmp_path):
        assert shard_dir(tmp_path, 7).name == "shard-07"


# ----------------------------------------------------------------------
# ShardSupervisor: the breaker state machine under a fake clock
# ----------------------------------------------------------------------
HEALTHY = {
    "status": "ok",
    "monitors": 1,
    "rows_ingested": 40,
    "batches_ingested": 4,
    "durability": {"m": {"applied_seq": 4, "wal_replay_lag": 0}},
}

STARTING = {
    "status": "starting",
    "monitors": 0,
    "rows_ingested": 0,
    "batches_ingested": 0,
    "durability": {},
}


def lag_health(lag: int) -> dict:
    return {
        "status": "ok",
        "monitors": 1,
        "rows_ingested": 0,
        "batches_ingested": 0,
        "durability": {"m": {"applied_seq": 0, "wal_replay_lag": lag}},
    }


class FakeProcess:
    """A scriptable stand-in for :class:`ShardProcess`."""

    _counter = [4000]

    def __init__(self, index: int, *, start_error: Exception | None = None):
        self.index = index
        self._start_error = start_error
        self._alive = False
        self._exit = None
        self.killed = 0
        FakeProcess._counter[0] += 1
        self.pid = FakeProcess._counter[0]
        self.url = f"http://127.0.0.1:9{self.pid}"

    def start(self) -> str:
        if self._start_error is not None:
            raise self._start_error
        self._alive = True
        return self.url

    def alive(self) -> bool:
        return self._alive

    def exit_code(self):
        return self._exit

    def kill(self) -> None:
        self.killed += 1
        self._alive = False
        if self._exit is None:
            self._exit = -9

    def terminate(self, grace: float = 10.0):
        self.kill()
        return self._exit

    def die(self, code: int = -9) -> None:
        """The kernel OOM-killed (or the process crashed) off-screen."""
        self._alive = False
        self._exit = code


class ScriptedProber:
    """Probe outcomes in order; healthy forever once the script runs dry."""

    def __init__(self, *outcomes):
        self.script = deque(outcomes)
        self.calls = 0

    def push(self, *outcomes):
        self.script.extend(outcomes)

    def __call__(self, url, timeout):
        self.calls += 1
        outcome = self.script.popleft() if self.script else HEALTHY
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome


def make_supervisor(policy=None, prober=None, events=None):
    created: list[FakeProcess] = []

    def factory(shard: int) -> FakeProcess:
        process = FakeProcess(shard)
        created.append(process)
        return process

    supervisor = ShardSupervisor(
        0,
        factory,
        policy=policy
        or SupervisorPolicy(
            probe_interval=1.0,
            probe_timeout=1.0,
            failure_threshold=3,
            recovery_probes=2,
            backoff_base=0.5,
            backoff_cap=4.0,
        ),
        prober=prober or ScriptedProber(),
        on_event=None if events is None else (lambda s, m: events.append(m)),
    )
    return supervisor, created


class TestShardSupervisor:
    def test_open_half_open_closed_arc(self):
        events: list[str] = []
        supervisor, created = make_supervisor(events=events)
        supervisor.tick(0.0)
        assert supervisor.state == BREAKER_HALF_OPEN
        assert supervisor.available  # routable while still on probation
        assert supervisor.generation == 1 and supervisor.restarts == 0
        assert len(created) == 1
        supervisor.tick(0.5)  # first probe (recovery 1 of 2)
        assert supervisor.state == BREAKER_HALF_OPEN
        supervisor.tick(1.0)  # not due yet: 0.5s < probe_interval
        assert supervisor.state == BREAKER_HALF_OPEN
        supervisor.tick(1.5)  # second probe: trusted
        assert supervisor.state == BREAKER_CLOSED
        assert any("spawned pid" in event for event in events)
        assert any("recovered" in event for event in events)

    def test_crash_opens_breaker_with_exact_backoff(self):
        supervisor, created = make_supervisor()
        for now in (0.0, 0.5, 1.5):
            supervisor.tick(now)
        assert supervisor.state == BREAKER_CLOSED
        created[-1].die(code=-9)
        supervisor.tick(2.0)
        assert supervisor.state == BREAKER_OPEN
        assert not supervisor.available
        assert "exited with code -9" in supervisor.last_error
        # First failure after a healthy life: backoff_base exactly.
        supervisor.tick(2.4)  # 0.4s elapsed < 0.5s: no restart yet
        assert len(created) == 1
        supervisor.tick(2.5)
        assert len(created) == 2
        assert supervisor.state == BREAKER_HALF_OPEN
        assert supervisor.generation == 2 and supervisor.restarts == 1

    def test_double_crash_during_replay_doubles_backoff(self):
        # A shard that dies *during its own recovery* (e.g. the WAL
        # replay re-triggers the crash) must not restart-spin: each
        # failed life doubles the delay until the cap.
        supervisor, created = make_supervisor()
        now = 0.0
        supervisor.tick(now)  # generation 1 up (half-open)
        expected = [0.5, 1.0, 2.0, 4.0, 4.0]  # base * 2^k, capped at 4
        for delay in expected:
            created[-1].die()
            supervisor.tick(now)
            assert supervisor.state == BREAKER_OPEN
            status = supervisor.status(now)
            assert status["next_restart_in"] == pytest.approx(delay)
            # Not a moment early:
            supervisor.tick(now + delay - 0.01)
            assert supervisor.state == BREAKER_OPEN
            now += delay
            supervisor.tick(now)
            assert supervisor.state == BREAKER_HALF_OPEN
        # Recovering fully resets the schedule.
        supervisor.tick(now + 1.0)
        supervisor.tick(now + 2.0)
        assert supervisor.state == BREAKER_CLOSED
        created[-1].die()
        supervisor.tick(now + 3.0)
        assert supervisor.status(now + 3.0)["next_restart_in"] == pytest.approx(
            0.5
        )

    def test_hung_shard_is_sigkilled_after_probe_failures(self):
        # The process is alive but /healthz never answers: after
        # failure_threshold consecutive probe failures the supervisor
        # must SIGKILL it (a hung process holds the WAL directory) and
        # open the breaker.
        prober = ScriptedProber(
            HEALTHY,
            HEALTHY,
            TimeoutError("probe timed out"),
            TimeoutError("probe timed out"),
            TimeoutError("probe timed out"),
        )
        supervisor, created = make_supervisor(prober=prober)
        for now in (0.0, 0.5, 1.5):
            supervisor.tick(now)
        assert supervisor.state == BREAKER_CLOSED
        supervisor.tick(2.5)
        supervisor.tick(3.5)
        assert supervisor.state == BREAKER_CLOSED  # 2 failures: not yet
        assert supervisor.status(3.5)["consecutive_probe_failures"] == 2
        supervisor.tick(4.5)  # third strike
        assert supervisor.state == BREAKER_OPEN
        assert created[-1].killed >= 1
        assert "consecutive probe failures" in supervisor.last_error

    def test_starting_status_neither_fails_nor_credits(self):
        # "starting" = socket bound, WAL replay running. The breaker
        # must stay half-open (no recovery credit) without counting a
        # failure — a long replay is healthy behaviour.
        prober = ScriptedProber(STARTING, STARTING, STARTING, HEALTHY, HEALTHY)
        supervisor, created = make_supervisor(prober=prober)
        supervisor.tick(0.0)
        for now in (0.5, 1.5, 2.5):
            supervisor.tick(now)
            assert supervisor.state == BREAKER_HALF_OPEN
            assert supervisor.status(now)["consecutive_probe_failures"] == 0
        supervisor.tick(3.5)
        supervisor.tick(4.5)
        assert supervisor.state == BREAKER_CLOSED
        assert created[-1].killed == 0

    def test_replay_lag_stall_restarts_the_shard(self):
        policy = SupervisorPolicy(
            probe_interval=1.0,
            probe_timeout=1.0,
            failure_threshold=3,
            recovery_probes=1,
            backoff_base=0.5,
            backoff_cap=4.0,
            max_replay_lag=5,
            stall_probes=2,
        )
        prober = ScriptedProber(HEALTHY, lag_health(7), lag_health(7))
        supervisor, created = make_supervisor(policy=policy, prober=prober)
        supervisor.tick(0.0)
        supervisor.tick(0.5)
        assert supervisor.state == BREAKER_CLOSED
        supervisor.tick(1.5)  # lag 7 (stall count 1)
        assert supervisor.state == BREAKER_CLOSED
        supervisor.tick(2.5)  # lag 7 again, not shrinking: wedged
        assert supervisor.state == BREAKER_OPEN
        assert "wal_replay_lag stalled" in supervisor.last_error
        assert created[-1].killed >= 1

    def test_shrinking_lag_resets_stall_detection(self):
        policy = SupervisorPolicy(
            probe_interval=1.0,
            probe_timeout=1.0,
            failure_threshold=3,
            recovery_probes=1,
            backoff_base=0.5,
            backoff_cap=4.0,
            max_replay_lag=5,
            stall_probes=2,
        )
        prober = ScriptedProber(
            HEALTHY, lag_health(7), lag_health(4), lag_health(7), HEALTHY
        )
        supervisor, _ = make_supervisor(policy=policy, prober=prober)
        supervisor.tick(0.0)
        for now in (0.5, 1.5, 2.5, 3.5, 4.5):
            supervisor.tick(now)
            # Lag is high but *shrinking* between the two 7s: progress,
            # never stalled.
            assert supervisor.state == BREAKER_CLOSED

    def test_half_open_probe_failures_reopen(self):
        prober = ScriptedProber(
            ConnectionRefusedError("refused"),
            ConnectionRefusedError("refused"),
            ConnectionRefusedError("refused"),
        )
        supervisor, created = make_supervisor(prober=prober)
        supervisor.tick(0.0)
        supervisor.tick(0.5)
        supervisor.tick(1.5)
        assert supervisor.state == BREAKER_HALF_OPEN
        supervisor.tick(2.5)
        assert supervisor.state == BREAKER_OPEN
        # The failed probation counts as a failed life: backoff doubles
        # relative to a fresh crash (streak includes the spawn).
        assert supervisor.status(2.5)["next_restart_in"] == pytest.approx(0.5)

    def test_spawn_failure_stays_open_and_backs_off(self):
        attempts = []

        def bad_factory(shard: int) -> FakeProcess:
            attempts.append(shard)
            raise RuntimeError("exec failed")

        supervisor = ShardSupervisor(
            3,
            bad_factory,
            policy=SupervisorPolicy(backoff_base=0.5, backoff_cap=4.0),
            prober=ScriptedProber(),
        )
        supervisor.tick(0.0)
        assert supervisor.state == BREAKER_OPEN
        assert "restart failed" in supervisor.last_error
        assert supervisor.status(0.0)["next_restart_in"] == pytest.approx(0.5)
        supervisor.tick(0.5)
        assert supervisor.status(0.5)["next_restart_in"] == pytest.approx(1.0)
        assert attempts == [3, 3]

    def test_retry_after_tracks_backoff(self):
        supervisor, created = make_supervisor()
        supervisor.tick(0.0)
        # Routable states hint one probe interval.
        assert supervisor.retry_after(0.0) == pytest.approx(1.0)
        created[-1].die()
        supervisor.tick(1.0)  # open, restart at 1.5
        assert supervisor.retry_after(1.0) == pytest.approx(0.5 + 1.0)
        assert supervisor.retry_after(1.4) == pytest.approx(
            0.1 + 1.0, abs=1e-9
        )

    def test_status_reports_health_rollup(self):
        supervisor, created = make_supervisor()
        supervisor.tick(0.0)
        supervisor.tick(0.5)
        status = supervisor.status(0.5)
        assert status["shard"] == 0
        assert status["state"] == BREAKER_HALF_OPEN
        assert status["pid"] == created[-1].pid
        assert status["url"] == created[-1].url
        assert status["monitors"] == 1
        assert status["rows_ingested"] == 40
        assert status["applied_seq"] == 4
        assert status["wal_replay_lag"] == 0
        assert status["shard_status"] == "ok"

    def test_policy_validation(self):
        with pytest.raises(ValidationError):
            SupervisorPolicy(probe_interval=0)
        with pytest.raises(ValidationError):
            SupervisorPolicy(failure_threshold=0)
        with pytest.raises(ValidationError):
            SupervisorPolicy(backoff_base=2.0, backoff_cap=1.0)
        with pytest.raises(ValidationError):
            SupervisorPolicy(max_replay_lag=0)


class TestFleetSupervisorUnit:
    def test_stopped_fleet_is_unavailable(self, tmp_path):
        processes: list[FakeProcess] = []

        def factory(shard: int) -> FakeProcess:
            process = FakeProcess(shard)
            processes.append(process)
            return process

        fleet = FleetSupervisor(
            tmp_path / "fleet",
            2,
            process_factory=factory,
            prober=ScriptedProber(),
            clock=lambda: 0.0,
        )
        fleet.start()
        try:
            assert fleet.shard_url(0) == processes[0].url
            assert fleet.fleet_health()["n_shards"] == 2
        finally:
            fleet.stop()
        with pytest.raises(ShardUnavailable):
            fleet.shard_url(0)

    def test_shard_count_pinned_across_reopen(self, tmp_path):
        FleetSupervisor(
            tmp_path / "fleet",
            2,
            process_factory=FakeProcess,
            prober=ScriptedProber(),
        )
        with pytest.raises(FleetError, match="hash-routing"):
            FleetSupervisor(
                tmp_path / "fleet",
                3,
                process_factory=FakeProcess,
                prober=ScriptedProber(),
            )
        # And the recorded count is enough by itself.
        fleet = FleetSupervisor(
            tmp_path / "fleet",
            process_factory=FakeProcess,
            prober=ScriptedProber(),
        )
        assert fleet.n_shards == 2


# ----------------------------------------------------------------------
# FleetRouter over in-process shard services
# ----------------------------------------------------------------------
class HttpProbe:
    """Raw JSON round-trips that expose status and headers."""

    def __init__(self, url: str):
        self.url = url

    def request(self, method: str, path: str, payload=None):
        data = None if payload is None else json.dumps(payload).encode()
        request = urllib.request.Request(
            self.url + path, data=data, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                return response.status, json.loads(response.read()), dict(
                    response.headers
                )
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read()), dict(error.headers)


class FakeTable:
    """A shard table with scriptable outages."""

    def __init__(self, urls: list[str]):
        self.urls = urls
        self.n_shards = len(urls)
        self.down: dict[int, float] = {}

    def shard_url(self, shard: int) -> str:
        if shard in self.down:
            raise ShardUnavailable(
                f"shard {shard} is unavailable (breaker open)",
                shard=shard,
                retry_after=self.down[shard],
            )
        return self.urls[shard]

    def shard_retry_after(self, shard: int) -> float:
        return self.down.get(shard, 0.25)

    def fleet_health(self) -> dict:
        return {"status": "ok", "n_shards": self.n_shards, "shards": []}


@pytest.fixture
def shard_services(tmp_path):
    services = []
    for index in range(2):
        registry = MonitorRegistry.open(tmp_path / f"shard-{index:02d}")
        services.append(MonitorService(registry).start())
    yield services
    for service in services:
        service.shutdown()


@pytest.fixture
def fake_table(shard_services):
    return FakeTable([service.url for service in shard_services])


@pytest.fixture
def router(fake_table):
    with FleetRouter(fake_table, timeout=5.0) as running:
        yield running


@pytest.mark.service
class TestFleetRouter:
    def test_requests_land_on_the_owning_shard(
        self, router, fake_table, shard_services
    ):
        probe = HttpProbe(router.url)
        names = names_for_shards(2)
        for name in names:
            status, body, _ = probe.request(
                "POST", "/monitors", monitor_config(name)
            )
            assert (status, body["name"]) == (201, name)
        for shard, name in enumerate(names):
            # The monitor exists in exactly the hash-owning shard.
            owner = shard_services[shard].registry
            other = shard_services[1 - shard].registry
            assert name in owner and name not in other
        status, body, _ = probe.request("GET", "/monitors")
        assert status == 200
        assert body["monitors"] == sorted(names)
        assert body["unavailable_shards"] == []

    def test_observe_and_report_round_trip(self, router):
        probe = HttpProbe(router.url)
        name = names_for_shards(2)[0]
        probe.request("POST", "/monitors", monitor_config(name))
        rows = synthetic_rows(60)
        status, body, _ = probe.request(
            "POST", f"/monitors/{name}/observe", {"rows": rows}
        )
        assert status == 200
        assert body["n_rows"] == 60
        status, report, _ = probe.request("GET", f"/monitors/{name}/report")
        assert status == 200
        assert report["epsilon"] == offline_epsilon(rows)

    def test_down_shard_degrades_only_its_own_monitors(
        self, router, fake_table
    ):
        probe = HttpProbe(router.url)
        names = names_for_shards(2)
        for name in names:
            probe.request("POST", "/monitors", monitor_config(name))
        fake_table.down[0] = 2.5
        # Shard 0's monitor fast-fails with the breaker's hint...
        status, body, headers = probe.request(
            "POST",
            f"/monitors/{names[0]}/observe",
            {"rows": synthetic_rows(5)},
        )
        assert status == 503
        assert body["degraded"] is True
        assert body["shard"] == 0
        assert body["retry_after"] == 2.5
        assert headers["Retry-After"] == "2.5"
        # ...while shard 1 is untouched (degradation is shard-scoped).
        status, body, _ = probe.request(
            "POST",
            f"/monitors/{names[1]}/observe",
            {"rows": synthetic_rows(5)},
        )
        assert status == 200
        # Listing degrades to a partial view, flagged, not a failure.
        status, body, _ = probe.request("GET", "/monitors")
        assert status == 200
        assert body["monitors"] == [names[1]]
        assert body["unavailable_shards"] == [0]

    def test_all_shards_down_is_a_fleet_outage(self, router, fake_table):
        fake_table.down[0] = 1.0
        fake_table.down[1] = 1.0
        status, body, headers = HttpProbe(router.url).request(
            "GET", "/monitors"
        )
        assert status == 503
        assert "Retry-After" in headers

    def test_connection_refused_is_not_outcome_unknown(self, fake_table):
        # Point shard 0 at a dead port: a *refused* connection proves
        # the request never reached the shard's WAL, so the router must
        # not mark the outcome unknown.
        import socket as socket_module

        placeholder = socket_module.socket()
        placeholder.bind(("127.0.0.1", 0))
        dead_port = placeholder.getsockname()[1]
        placeholder.close()
        fake_table.urls[0] = f"http://127.0.0.1:{dead_port}"
        name = names_for_shards(2)[0]
        with FleetRouter(fake_table, timeout=5.0) as router:
            status, body, headers = HttpProbe(router.url).request(
                "POST", f"/monitors/{name}/observe", {"rows": [["a"]]}
            )
        assert status == 503
        assert body["degraded"] is True
        assert "outcome_unknown" not in body
        assert float(headers["Retry-After"]) == 0.25

    def test_reply_cut_off_mid_body_is_outcome_unknown(self, fake_table):
        # The shard died while answering: the batch may have been
        # applied, so the router answers the retryable 503 of a reset,
        # with outcome_unknown, not a 500.
        name = names_for_shards(2)[0]
        with cut_off_reply_server() as url:
            fake_table.urls[0] = url
            with FleetRouter(fake_table, timeout=5.0) as router:
                status, body, headers = HttpProbe(router.url).request(
                    "POST", f"/monitors/{name}/observe", {"rows": [["a"]]}
                )
        assert status == 503
        assert body["degraded"] is True
        assert body["outcome_unknown"] is True
        assert body["shard"] == 0
        assert float(headers["Retry-After"]) == 0.25

    def test_keepalive_connection_survives_error_responses(self, router):
        # The router's body drain: a POST whose body no route reads
        # (404/405) must not leave bytes in the socket to be parsed as
        # the next request line.
        import http.client

        connection = http.client.HTTPConnection(
            router.host, router.port, timeout=10
        )
        try:
            payload = json.dumps({"rows": synthetic_rows(50)})
            for path, expected in [("/nope", 404), ("/metrics", 405)]:
                connection.request("POST", path, body=payload)
                response = connection.getresponse()
                assert response.status == expected
                response.read()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()

    def test_shard_errors_relay_verbatim(self, router):
        probe = HttpProbe(router.url)
        name = names_for_shards(2)[0]
        assert probe.request("GET", f"/monitors/{name}/report")[0] == 404
        probe.request("POST", "/monitors", monitor_config(name))
        assert probe.request("POST", "/monitors", monitor_config(name))[0] == 409
        assert (
            probe.request("POST", f"/monitors/{name}/observe", {"rows": []})[0]
            == 400
        )

    def test_router_level_errors(self, router):
        probe = HttpProbe(router.url)
        assert probe.request("GET", "/nope")[0] == 404
        assert probe.request("POST", "/monitors", {"nope": 1})[0] == 400
        assert probe.request("DELETE", "/monitors")[0] == 405
        status, body, _ = probe.request("GET", "/healthz")
        assert (status, body["status"]) == (200, "ok")

    def test_table_protocol_is_validated(self):
        with pytest.raises(ValidationError, match="shard table"):
            FleetRouter(object())


def _get_raw(url: str):
    """GET returning (status, text, headers) without JSON parsing."""
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read().decode(), dict(
                response.headers
            )
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode(), dict(error.headers)


@pytest.mark.service
@pytest.mark.obs
class TestRouterMetrics:
    """The router's /metrics page is the tree-merge of shard registries."""

    def _ingest(self, router, batches=3, rows_per_batch=20):
        probe = HttpProbe(router.url)
        names = names_for_shards(2)
        for name in names:
            probe.request("POST", "/monitors", monitor_config(name))
            for index in range(batches):
                status, _, _ = probe.request(
                    "POST",
                    f"/monitors/{name}/observe",
                    {"rows": synthetic_rows(rows_per_batch, seed=index)},
                )
                assert status == 200
        return names

    def test_metrics_are_bit_exact_tree_merge(
        self, router, shard_services
    ):
        from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE, MetricsRegistry

        names = self._ingest(router)
        # Client-side ground truth: fetch each shard's registry state
        # and fold it with the same merge algebra the router uses.
        expected = MetricsRegistry()
        for service in shard_services:
            status, body, _ = _get_raw(service.url + "/metrics.json")
            assert status == 200
            expected.merge(MetricsRegistry.from_state(json.loads(body)))
        for shard in range(2):
            expected.gauge(
                "repro_fleet_shard_up",
                "1 when the shard answered the metrics fan-out, else 0.",
                labels={"shard": f"{shard:02d}"},
            ).set(1)

        status, text, headers = _get_raw(router.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        assert text == expected.render_prometheus()
        for shard, name in enumerate(names):
            assert (
                f'repro_observe_rows_total{{monitor="{name}"}} 60' in text
            )
        assert 'repro_fleet_shard_up{shard="00"} 1' in text
        assert 'repro_fleet_shard_up{shard="01"} 1' in text

        status, body, _ = _get_raw(router.url + "/metrics.json")
        assert status == 200
        merged = MetricsRegistry.from_state(json.loads(body))
        assert merged.state_dict() == expected.state_dict()

    def test_down_shard_is_annotated_and_omitted(self, router, fake_table):
        names = self._ingest(router)
        fake_table.down[0] = 2.5
        status, text, _ = _get_raw(router.url + "/metrics")
        assert status == 200
        assert text.startswith(
            "# shard 00 unavailable; its metrics are omitted"
        )
        assert 'repro_fleet_shard_up{shard="00"} 0' in text
        assert 'repro_fleet_shard_up{shard="01"} 1' in text
        # shard 0's monitor disappears from the totals; shard 1 remains
        down_name, up_name = names
        assert f'monitor="{down_name}"' not in text
        assert f'repro_observe_rows_total{{monitor="{up_name}"}} 60' in text

    def test_all_shards_down_is_503(self, router, fake_table):
        fake_table.down[0] = 1.5
        fake_table.down[1] = 1.5
        status, body, headers = _get_raw(router.url + "/metrics")
        assert status == 503
        assert "every shard is unavailable" in body
        assert headers.get("Retry-After") is not None

    def test_metrics_rejects_non_get(self, router):
        probe = HttpProbe(router.url)
        assert probe.request("POST", "/metrics", {})[0] == 405
        assert probe.request("POST", "/metrics.json", {})[0] == 405


# ----------------------------------------------------------------------
# Idempotent ingestion: batch_id dedup in the registry
# ----------------------------------------------------------------------
class TestBatchIdDedup:
    CONFIG = MonitorConfig(
        name="dedup", protected=("gender", "race"), outcome="hired"
    )

    def test_duplicate_batch_is_acked_not_reapplied(self, tmp_path):
        registry = MonitorRegistry.open(tmp_path / "data")
        registry.create_from_config(self.CONFIG)
        rows = synthetic_rows(30)
        first = registry.observe("dedup", rows, batch_id="b-1")
        assert first.duplicate is False
        again = registry.observe("dedup", rows, batch_id="b-1")
        assert again.duplicate is True
        assert again.batch_index == first.batch_index
        assert again.epsilon == first.epsilon
        monitor = registry.get("dedup")
        assert monitor.batches == 1
        assert registry.report("dedup").rows_seen == 30
        # A different id is a different batch.
        assert registry.observe("dedup", rows, batch_id="b-2").duplicate is False
        assert registry.get("dedup").batches == 2
        registry.close()

    def test_dedup_survives_wal_replay(self, tmp_path):
        # kill -9 after the ack: the reopened registry must still
        # recognise the id from the replayed WAL records.
        registry = MonitorRegistry.open(tmp_path / "data")
        registry.create_from_config(self.CONFIG)
        rows = synthetic_rows(30)
        registry.observe("dedup", rows, batch_id="b-1")
        del registry  # no close(), no checkpoint: process death
        survivor = MonitorRegistry.open(tmp_path / "data")
        result = survivor.observe("dedup", rows, batch_id="b-1")
        assert result.duplicate is True
        assert survivor.get("dedup").batches == 1
        survivor.close()

    def test_dedup_survives_checkpoint_restore(self, tmp_path):
        registry = MonitorRegistry.open(tmp_path / "data")
        registry.create_from_config(self.CONFIG)
        registry.observe("dedup", synthetic_rows(30), batch_id="b-1")
        registry.checkpoint_all()
        registry.close()
        survivor = MonitorRegistry.open(tmp_path / "data")
        result = survivor.observe("dedup", synthetic_rows(30), batch_id="b-1")
        assert result.duplicate is True
        assert survivor.get("dedup").batches == 1
        survivor.close()

    def test_remembered_ids_are_bounded(self, tmp_path, monkeypatch):
        import repro.monitor.registry as registry_module

        monkeypatch.setattr(registry_module, "RECENT_BATCH_IDS", 3)
        registry = MonitorRegistry.open(tmp_path / "data")
        registry.create_from_config(self.CONFIG)
        rows = synthetic_rows(10)
        for index in range(5):
            registry.observe("dedup", rows, batch_id=f"b-{index}")
        # The two oldest ids fell out of the window: no longer deduped.
        assert registry.observe("dedup", rows, batch_id="b-0").duplicate is False
        assert registry.observe("dedup", rows, batch_id="b-4").duplicate is True
        registry.close()

    def test_batch_id_validation(self, tmp_path):
        registry = MonitorRegistry.open(tmp_path / "data")
        registry.create_from_config(self.CONFIG)
        rows = synthetic_rows(5)
        with pytest.raises(ValidationError):
            registry.observe("dedup", rows, batch_id="")
        with pytest.raises(ValidationError):
            registry.observe("dedup", rows, batch_id=7)
        with pytest.raises(ValidationError):
            registry.observe("dedup", rows, batch_id="x" * 200)
        registry.close()


# ----------------------------------------------------------------------
# Banner-before-replay: the deferred-attach service
# ----------------------------------------------------------------------
@pytest.mark.service
class TestStartingService:
    def test_unattached_service_reports_starting(self, tmp_path):
        service = MonitorService(None).start()
        try:
            probe = HttpProbe(service.url)
            status, body, _ = probe.request("GET", "/healthz")
            assert (status, body["status"]) == (200, "starting")
            status, body, headers = probe.request("GET", "/monitors")
            assert status == 503
            assert body["starting"] is True
            assert "Retry-After" in headers
            registry = MonitorRegistry.open(tmp_path / "data")
            service.attach_registry(registry)
            status, body, _ = probe.request("GET", "/healthz")
            assert (status, body["status"]) == (200, "ok")
            assert probe.request("GET", "/monitors")[0] == 200
        finally:
            service.shutdown()

    def test_attach_twice_refuses(self, tmp_path):
        service = MonitorService(None)
        service.attach_registry(MonitorRegistry.open(tmp_path / "a"))
        with pytest.raises(MonitorError):
            service.attach_registry(MonitorRegistry.open(tmp_path / "b"))
        service.registry.close()


# ----------------------------------------------------------------------
# Live fleet: real subprocesses, real SIGKILL
# ----------------------------------------------------------------------
FAST_POLICY = SupervisorPolicy(
    probe_interval=0.1,
    probe_timeout=5.0,
    failure_threshold=3,
    recovery_probes=1,
    backoff_base=0.1,
    backoff_cap=2.0,
)


def wait_until(predicate, *, deadline=30.0, message="condition"):
    deadline_at = time.monotonic() + deadline
    while time.monotonic() < deadline_at:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {message}")


def report_until_acked(client, name, *, deadline=60.0):
    deadline_at = time.monotonic() + deadline
    last = None
    while time.monotonic() < deadline_at:
        try:
            return client.report(name)
        except MonitorClientError as error:
            if not (error.transient or error.status in (429, 503)):
                raise
            last = error
            time.sleep(0.05)
    raise AssertionError(f"report not served within {deadline}s: {last}")


@pytest.mark.fleet
class TestFleetLive:
    def test_smoke_ingest_and_status(self, tmp_path, capsys):
        from repro.cli import main

        fleet_dir = tmp_path / "fleet"
        names = names_for_shards(2, prefix="live")
        batches = [synthetic_rows(40, seed=seed) for seed in range(3)]
        with FleetSupervisor(fleet_dir, 2, policy=FAST_POLICY) as fleet:
            with FleetRouter(fleet) as router:
                client = MonitorClient(router.url, retries=8)
                for name in names:
                    client.create(monitor_config(name))
                assert client.monitors() == sorted(names)
                for name in names:
                    for index, rows in enumerate(batches):
                        ack = client.observe(
                            name, rows, batch_id=f"smoke-{name}-{index}"
                        )
                        assert ack["duplicate"] is False
                    # A replayed id is acked as a duplicate, not applied.
                    ack = client.observe(
                        name, batches[0], batch_id=f"smoke-{name}-0"
                    )
                    assert ack["duplicate"] is True
                expected = offline_epsilon(
                    [row for rows in batches for row in rows]
                )
                for name in names:
                    report = client.report(name)
                    assert report["epsilon"] == expected
                    assert report["rows_seen"] == 120
                    assert report["batches"] == 3
                # The fleet healthz aggregates each shard's *last*
                # probe, so the counters trail ingestion by up to one
                # probe interval.
                wait_until(
                    lambda: fleet.fleet_health()["status"] == "ok"
                    and fleet.fleet_health()["rows_ingested"] == 240,
                    message="probes to observe all ingested rows",
                )
                health = client.healthz()
                assert health["status"] == "ok"
                assert health["n_shards"] == 2
                assert health["monitors"] == 2
                assert health["rows_ingested"] == 240
                for shard in health["shards"]:
                    assert shard["state"] == BREAKER_CLOSED
                    assert shard["pid"] is not None
                    assert shard["generation"] == 1
                    assert shard["applied_seq"] >= 1
            fleet.stop()  # graceful: every shard checkpoints

        # Offline views over the same fleet dir.
        assert main(["fleet-status", "--data-dir", str(fleet_dir)]) == 0
        text = capsys.readouterr().out
        assert "shard-00" in text and "shard-01" in text
        for name in names:
            assert name in text
        assert "merged cumulative groups" in text
        # Both monitors share a schema: one merged group over all rows.
        snapshot = fleet_status_snapshot(fleet_dir)
        groups = snapshot["merged"]["groups"]
        assert len(groups) == 1
        assert groups[0]["rows"] == 240
        assert groups[0]["epsilon"] == offline_epsilon(
            [row for rows in batches for row in rows] * 2
        )
        # monitor-status on a fleet dir dispatches to the fleet view.
        assert main(["monitor-status", "--data-dir", str(fleet_dir)]) == 0
        assert "fleet data dir" in capsys.readouterr().out
        # wal-inspect reports per-shard WALs plus fleet totals.
        assert main(["wal-inspect", "--data-dir", str(fleet_dir)]) == 0
        wal_text = capsys.readouterr().out
        assert "fleet totals: 2 shard(s)" in wal_text

    def test_router_metrics_equal_tree_merged_shard_registries(
        self, tmp_path
    ):
        """PR-10 acceptance: live fleet /metrics is the bit-exact
        tree-merge of the per-shard registries, and its ingestion
        counters match the client-side ground truth."""
        from repro.obs.metrics import MetricsRegistry

        fleet_dir = tmp_path / "fleet"
        names = names_for_shards(2, prefix="obs")
        batches = [synthetic_rows(25, seed=seed) for seed in range(4)]
        with FleetSupervisor(fleet_dir, 2, policy=FAST_POLICY) as fleet:
            with FleetRouter(fleet) as router:
                client = MonitorClient(router.url, retries=8)
                for name in names:
                    client.create(monitor_config(name))
                    for index, rows in enumerate(batches):
                        client.observe(
                            name, rows, batch_id=f"obs-{name}-{index}"
                        )

                # Ground truth: fetch each live shard's registry state
                # and fold it with the same merge the router performs.
                expected = MetricsRegistry()
                for shard in range(fleet.n_shards):
                    status, body, _ = _get_raw(
                        fleet.shard_url(shard) + "/metrics.json"
                    )
                    assert status == 200
                    expected.merge(
                        MetricsRegistry.from_state(json.loads(body))
                    )

                status, body, _ = _get_raw(router.url + "/metrics.json")
                assert status == 200
                merged = MetricsRegistry.from_state(json.loads(body))
                merged_families = merged.state_dict()["families"]
                expected_families = expected.state_dict()["families"]
                # Counters must agree bit-exactly with the client-side
                # tree-merge (the fleet saw no traffic in between).
                for family, payload in expected_families.items():
                    if payload["type"] != "counter":
                        continue
                    assert merged_families[family] == payload, family
                # ... and with what the client actually ingested.
                rows_by_monitor = {
                    series["labels"]["monitor"]: series["value"]
                    for series in merged_families[
                        "repro_observe_rows_total"
                    ]["series"]
                }
                assert rows_by_monitor == {name: 100 for name in names}
                batches_by_monitor = {
                    series["labels"]["monitor"]: series["value"]
                    for series in merged_families[
                        "repro_observe_batches_total"
                    ]["series"]
                }
                assert batches_by_monitor == {name: 4 for name in names}

                # The text page renders the same registry, with every
                # shard marked up.
                status, text, _ = _get_raw(router.url + "/metrics")
                assert status == 200
                for shard in range(fleet.n_shards):
                    assert (
                        f'repro_fleet_shard_up{{shard="{shard:02d}"}} 1'
                        in text
                    )
                for name in names:
                    assert (
                        f'repro_observe_rows_total{{monitor="{name}"}} 100'
                        in text
                    )
            fleet.stop()

    def test_kill_a_shard_at_every_ingest_boundary(self, tmp_path):
        # The acceptance criterion: SIGKILL the owning shard before,
        # during, and after acked batches while the client feeds; once
        # retries converge, the fleet's epsilon AND posterior must be
        # bit-identical to a single process that never crashed, with no
        # acked batch lost or double-counted.
        fleet_dir = tmp_path / "fleet"
        name = names_for_shards(2, prefix="kill")[0]
        target = shard_for(name, 2)
        config = monitor_config(name, posterior_samples=200, seed=11)
        batches = [synthetic_rows(40, seed=100 + index) for index in range(9)]

        with FleetSupervisor(fleet_dir, 2, policy=FAST_POLICY) as fleet:
            with FleetRouter(fleet) as router:
                client = MonitorClient(router.url, retries=6)
                # create goes through the same retry discipline as the
                # batches (the shard may be mid-restart at any time)
                deadline_at = time.monotonic() + 30.0
                while True:
                    try:
                        client.create(config)
                        break
                    except MonitorClientError as error:
                        if (
                            not (
                                error.transient
                                or error.status in (429, 503)
                            )
                            or time.monotonic() > deadline_at
                        ):
                            raise
                        time.sleep(0.05)
                results, kills = feed_fleet_with_kills(
                    client,
                    name,
                    batches,
                    kill=lambda: fleet.kill_shard(target),
                    boundaries=("before", "mid", "after"),
                    batch_id_prefix="kill",
                )
                assert kills == 9
                report = report_until_acked(client, name)
            supervisor = fleet.shard_supervisor(target)
            assert supervisor.restarts >= 1  # the kills really landed
            fleet.stop()

        # The never-crashed reference: same config, same batches, one
        # in-process registry.
        reference = MonitorRegistry.open(tmp_path / "reference")
        reference.create_from_config(MonitorConfig.from_dict(config))
        for index, rows in enumerate(batches):
            reference.observe(name, rows, batch_id=f"kill-{index:04d}")
        expected = reference.report(name).to_dict()
        reference.close()

        assert report["rows_seen"] == expected["rows_seen"] == 9 * 40
        assert report["batches"] == expected["batches"] == 9
        assert report["epsilon"] == expected["epsilon"]  # bit-identical
        assert report["posterior"] == expected["posterior"]
        # Every ack the client saw names a real, exactly-once batch.
        applied = [r for r in results if not r.get("duplicate")]
        assert len(applied) + sum(
            1 for r in results if r.get("duplicate")
        ) == 9

    def test_banner_prints_before_wal_replay(self, tmp_path):
        # Seed a shard data dir with an un-checkpointed WAL so the
        # restart has replay work to do; the worker must print its
        # banner (and answer /healthz "starting"/"ok") regardless.
        data_dir = tmp_path / "shard-data"
        registry = MonitorRegistry.open(data_dir)
        registry.create_from_config(self.seed_config())
        for seed in range(3):
            registry.observe("banner", synthetic_rows(50, seed=seed))
        del registry  # kill -9: WAL left un-checkpointed

        process = ShardProcess(0, data_dir, banner_timeout=60.0)
        url = process.start()
        try:
            assert url.startswith("http://127.0.0.1:")
            first_line = process.tail()[0]
            assert first_line.startswith(BANNER_PREFIX)

            def resumed():
                try:
                    with urllib.request.urlopen(
                        f"{url}/healthz", timeout=5
                    ) as response:
                        return (
                            json.loads(response.read())["status"] == "ok"
                        )
                except (urllib.error.URLError, ConnectionError):
                    return False

            wait_until(resumed, message="WAL replay to finish")
            with urllib.request.urlopen(
                f"{url}/monitors/banner/report", timeout=5
            ) as response:
                report = json.loads(response.read())
            assert report["rows_seen"] == 150  # replay restored them
        finally:
            process.terminate(grace=10.0)

    @staticmethod
    def seed_config() -> MonitorConfig:
        return MonitorConfig(
            name="banner", protected=("gender", "race"), outcome="hired"
        )
