"""Self-healing supervision for the process-per-shard monitoring fleet.

This module turns PR 6's "a process that survives crashes" into "a
fleet that heals them". A fleet is N shard worker processes — each one
``repro monitor-serve`` running the full registry + WAL + history-store
stack over its own data subdirectory — fronted by a
:class:`repro.monitor.routing.FleetRouter` and watched by the
supervisor defined here. A shard crash, hang, or OOM-kill is a routine
event: the supervisor detects it (process exit, ``/healthz`` probe
timeout, or a stalled ``wal_replay_lag``), SIGKILLs the remains if
necessary, and restarts the shard, whose own WAL replay restores every
acked batch. While the shard is down, the router fast-fails only that
shard's monitors with ``503 + Retry-After`` so
:class:`repro.monitor.client.MonitorClient`'s decorrelated-jitter
retries converge with zero acked-batch loss — degradation is always
shard-level, never fleet-wide.

Restart storms are bounded by a per-shard circuit breaker with
exponential backoff:

``open``
    The shard is down. Requests fast-fail; a restart is scheduled at
    ``backoff_base * 2^k`` seconds (capped), where ``k`` counts
    consecutive failed lives. A shard that dies during its own WAL
    replay (the double-crash case) keeps doubling the delay instead of
    spinning.
``half-open``
    A fresh process is up and serving, but must pass
    ``recovery_probes`` consecutive health probes before the fleet
    trusts it. A probe that reports ``status == "starting"`` (socket
    bound, WAL replay still running) keeps the breaker half-open
    without counting either way.
``closed``
    Healthy. The failure streak resets, so the next crash starts the
    backoff schedule from the beginning.

Fleet layout on disk::

    fleet-dir/
      fleet.json      {"version": 1, "shards": N}   (the routing contract)
      shard-00/       a MonitorRegistry data dir (monitors.json, wal/,
      shard-01/        checkpoints/, history/)
      ...

``fleet.json`` pins the shard count because
:func:`repro.monitor.routing.shard_for` assignments depend on it:
reopening a fleet with a different count would route monitors at the
wrong shard's data directory, so :func:`init_fleet_dir` refuses.

Global (cross-shard) status needs no live fleet:
:func:`fleet_status_snapshot` reads each shard's data dir offline and
merges cumulative monitors' newest valid checkpoint generations with
:func:`repro.engine.checkpoint.merge_checkpoint_files` — the merge
algebra makes the combined epsilon bit-identical to a single-process
audit of the union of the checkpointed rows.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.engine.checkpoint import _write_atomic
from repro.exceptions import (
    FleetError,
    MonitorError,
    ReproError,
    ShardUnavailable,
    ValidationError,
)
from repro.monitor.http import send_request
from repro.monitor.registry import CHECKPOINT_DIR
from repro.monitor.service import _monitor_lines, status_snapshot

__all__ = [
    "BANNER_PREFIX",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "FLEET_CONFIG_FILE",
    "FleetSupervisor",
    "ShardProcess",
    "ShardSupervisor",
    "SupervisorPolicy",
    "fleet_shard_count",
    "fleet_status_snapshot",
    "init_fleet_dir",
    "probe_healthz",
    "render_fleet_status",
    "shard_dir",
    "shard_dirs",
]

FLEET_CONFIG_FILE = "fleet.json"
FLEET_LAYOUT_VERSION = 1

# The readiness banner monitor-serve prints the moment its socket is
# bound (before WAL replay starts); ShardProcess parses the URL out of
# it for probe targeting.
BANNER_PREFIX = "monitor-serve: listening on "

BREAKER_CLOSED = "closed"
BREAKER_HALF_OPEN = "half-open"
BREAKER_OPEN = "open"


# ----------------------------------------------------------------------
# Fleet directory layout
# ----------------------------------------------------------------------
def shard_dir(directory: str | Path, index: int) -> Path:
    """The data subdirectory of shard ``index`` inside a fleet dir."""
    return Path(directory) / f"shard-{int(index):02d}"


def fleet_shard_count(directory: str | Path) -> int | None:
    """The shard count recorded in a fleet dir, or ``None`` if the
    directory is not a fleet layout.

    Prefers ``fleet.json``; falls back to counting ``shard-NN``
    subdirectories (a fleet whose config file was lost is still
    inspectable — the WALs and checkpoints are what matter).
    """
    directory = Path(directory)
    config_path = directory / FLEET_CONFIG_FILE
    if config_path.exists():
        try:
            config = json.loads(config_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise FleetError(
                f"fleet config {config_path} is unreadable: {error}"
            ) from None
        shards = config.get("shards") if isinstance(config, dict) else None
        if not isinstance(shards, int) or shards < 1:
            raise FleetError(
                f"fleet config {config_path} has a bad shard count: "
                f"{shards!r}"
            )
        return shards
    indices = []
    if directory.is_dir():
        for entry in directory.iterdir():
            name = entry.name
            if (
                entry.is_dir()
                and name.startswith("shard-")
                and name[len("shard-"):].isdigit()
            ):
                indices.append(int(name[len("shard-"):]))
    if not indices:
        return None
    return max(indices) + 1


def shard_dirs(directory: str | Path) -> list[tuple[int, Path]]:
    """``(index, path)`` for every shard of a fleet dir, in order."""
    count = fleet_shard_count(directory)
    if count is None:
        raise MonitorError(
            f"{directory} is not a fleet data directory (no "
            f"{FLEET_CONFIG_FILE} and no shard-NN subdirectories)"
        )
    return [(index, shard_dir(directory, index)) for index in range(count)]


def init_fleet_dir(directory: str | Path, n_shards: int | None = None) -> int:
    """Create or validate a fleet directory; returns its shard count.

    On first use ``n_shards`` is required and recorded in
    ``fleet.json``. Reopening with a *different* count raises
    :class:`FleetError` — the hash routing of
    :func:`repro.monitor.routing.shard_for` depends on the count, so a
    mismatch would silently point monitors at the wrong shard's data.
    """
    directory = Path(directory)
    recorded = fleet_shard_count(directory) if directory.exists() else None
    if recorded is not None:
        if n_shards is not None and int(n_shards) != recorded:
            raise FleetError(
                f"fleet dir {directory} was laid out with {recorded} "
                f"shard(s); refusing to reopen with {n_shards} — monitor "
                f"hash-routing would change and read the wrong shard's "
                f"data. Use a fresh directory to change the shard count."
            )
        n_shards = recorded
    if n_shards is None:
        raise FleetError(
            f"fleet dir {directory} has no recorded layout; pass the "
            f"shard count explicitly on first use"
        )
    if not isinstance(n_shards, int) or isinstance(n_shards, bool):
        raise ValidationError(f"n_shards must be an int, got {n_shards!r}")
    if n_shards < 1:
        raise ValidationError(f"n_shards must be >= 1, got {n_shards}")
    directory.mkdir(parents=True, exist_ok=True)
    config_path = directory / FLEET_CONFIG_FILE
    if not config_path.exists():
        # tmp + fsync + rename: a crash mid-write must not leave a torn
        # layout that fleet-serve then refuses.
        layout = {"version": FLEET_LAYOUT_VERSION, "shards": int(n_shards)}
        _write_atomic(config_path, f"{json.dumps(layout)}\n".encode("utf-8"))
    return int(n_shards)


# ----------------------------------------------------------------------
# Health probing
# ----------------------------------------------------------------------
def probe_healthz(url: str, timeout: float) -> dict[str, Any]:
    """GET ``{url}/healthz`` and return the decoded payload.

    Any failure — refused connection, timeout, non-200, junk body — is
    raised to the caller; the supervisor counts it as a probe failure.
    """
    reply = send_request("GET", f"{url}/healthz", timeout=timeout)
    if reply.status != 200:
        raise FleetError(f"healthz answered HTTP {reply.status}")
    payload = json.loads(reply.body.decode("utf-8"))
    if not isinstance(payload, dict):
        raise FleetError(f"healthz returned a non-object payload: {payload!r}")
    return payload


# ----------------------------------------------------------------------
# Shard worker process
# ----------------------------------------------------------------------
class ShardProcess:
    """One shard worker: ``python -m repro monitor-serve`` as a child.

    :meth:`start` blocks until the worker prints its readiness banner
    (socket bound — printed *before* WAL replay begins, so even a shard
    with a long replay ahead of it is probe-targetable immediately) and
    returns the base URL parsed from it. The worker binds port 0, so
    every generation gets a fresh ephemeral port and a stale URL can
    never alias a new process.
    """

    def __init__(
        self,
        index: int,
        data_dir: str | Path,
        *,
        host: str = "127.0.0.1",
        serve_args: tuple[str, ...] = (),
        python: str | None = None,
        banner_timeout: float = 60.0,
    ):
        self.index = int(index)
        self.data_dir = Path(data_dir)
        self._host = host
        self._serve_args = tuple(serve_args)
        self._python = python or sys.executable
        self._banner_timeout = float(banner_timeout)
        self._proc: subprocess.Popen | None = None
        self.url: str | None = None
        self._tail: deque[str] = deque(maxlen=50)
        self._banner_event = threading.Event()

    def start(self) -> str:
        if self._proc is not None:
            raise FleetError(f"shard {self.index} process already started")
        argv = [
            self._python,
            "-m",
            "repro",
            "monitor-serve",
            "--data-dir",
            str(self.data_dir),
            "--host",
            self._host,
            "--port",
            "0",
            "--label",
            f"shard-{self.index:02d}",
            *self._serve_args,
        ]
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self._proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=self._environment(),
        )
        threading.Thread(
            target=self._drain,
            name=f"repro-shard-{self.index:02d}-drain",
            daemon=True,
        ).start()
        deadline = time.monotonic() + self._banner_timeout
        while not self._banner_event.wait(0.05):
            if self._proc.poll() is not None and not self._banner_event.is_set():
                code = self._proc.returncode
                raise FleetError(
                    f"shard {self.index} exited with code {code} before "
                    f"binding its socket; last output: {self.tail()}"
                )
            if time.monotonic() >= deadline:
                self.kill()
                raise FleetError(
                    f"shard {self.index} did not print its readiness "
                    f"banner within {self._banner_timeout:g}s; last "
                    f"output: {self.tail()}"
                )
        assert self.url is not None
        return self.url

    def _environment(self) -> dict[str, str]:
        # The child must import repro regardless of how the parent got
        # it onto sys.path, and must flush its banner promptly.
        import repro

        env = dict(os.environ)
        env["PYTHONUNBUFFERED"] = "1"
        package_root = str(Path(repro.__file__).resolve().parent.parent)
        existing = [
            p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p
        ]
        if package_root not in existing:
            env["PYTHONPATH"] = os.pathsep.join([package_root, *existing])
        return env

    def _drain(self) -> None:
        proc = self._proc
        assert proc is not None and proc.stdout is not None
        for line in proc.stdout:
            line = line.rstrip("\n")
            self._tail.append(line)
            if self.url is None and line.startswith(BANNER_PREFIX):
                self.url = line[len(BANNER_PREFIX):].split()[0]
                self._banner_event.set()
        proc.stdout.close()

    # ------------------------------------------------------------------
    @property
    def pid(self) -> int | None:
        return None if self._proc is None else self._proc.pid

    def alive(self) -> bool:
        return self._proc is not None and self._proc.poll() is None

    def exit_code(self) -> int | None:
        return None if self._proc is None else self._proc.poll()

    def tail(self) -> list[str]:
        """The last lines of the worker's combined stdout/stderr."""
        return list(self._tail)

    def kill(self) -> None:
        """SIGKILL the worker and reap it. Idempotent."""
        proc = self._proc
        if proc is None:
            return
        if proc.poll() is None:
            try:
                proc.kill()
            except OSError:
                pass
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass

    def terminate(self, grace: float = 10.0) -> int | None:
        """SIGTERM the worker (graceful shutdown checkpoints every
        monitor), escalating to SIGKILL after ``grace`` seconds."""
        proc = self._proc
        if proc is None:
            return None
        if proc.poll() is None:
            try:
                proc.terminate()
            except OSError:
                pass
            try:
                proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                self.kill()
        return proc.returncode


# ----------------------------------------------------------------------
# Per-shard circuit-breaker supervision
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SupervisorPolicy:
    """Tunable knobs of the per-shard breaker state machine.

    ``max_replay_lag`` arms stall detection: a shard whose worst
    ``wal_replay_lag`` sits at or above this many batches *without
    shrinking* for ``stall_probes`` consecutive probes is judged
    wedged (its checkpointing has stopped making progress) and is
    restarted — the restart's WAL replay is the recovery path.
    ``None`` (the default) disables it.
    """

    probe_interval: float = 1.0
    probe_timeout: float = 5.0
    failure_threshold: int = 3
    recovery_probes: int = 2
    backoff_base: float = 0.5
    backoff_cap: float = 30.0
    max_replay_lag: int | None = None
    stall_probes: int = 5

    def __post_init__(self):
        if self.probe_interval <= 0:
            raise ValidationError(
                f"probe_interval must be > 0, got {self.probe_interval}"
            )
        if self.probe_timeout <= 0:
            raise ValidationError(
                f"probe_timeout must be > 0, got {self.probe_timeout}"
            )
        if self.failure_threshold < 1:
            raise ValidationError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.recovery_probes < 1:
            raise ValidationError(
                f"recovery_probes must be >= 1, got {self.recovery_probes}"
            )
        if self.backoff_base <= 0 or self.backoff_cap < self.backoff_base:
            raise ValidationError(
                f"need 0 < backoff_base <= backoff_cap, got "
                f"{self.backoff_base} / {self.backoff_cap}"
            )
        if self.max_replay_lag is not None and self.max_replay_lag < 1:
            raise ValidationError(
                f"max_replay_lag must be >= 1 batches, got "
                f"{self.max_replay_lag}"
            )
        if self.stall_probes < 1:
            raise ValidationError(
                f"stall_probes must be >= 1, got {self.stall_probes}"
            )


class ShardSupervisor:
    """The breaker state machine for one shard.

    Pure control logic driven by :meth:`tick` with an explicit ``now``:
    the process factory, health prober, and clock are all injectable,
    so every transition — crash during replay, hang, stall, the full
    open → half-open → closed arc — is unit-testable with fake clocks
    and scripted probes. The live fleet drives it from
    :class:`FleetSupervisor`'s loop thread with real wall time.
    """

    def __init__(
        self,
        shard: int,
        process_factory: Callable[[int], ShardProcess],
        *,
        policy: SupervisorPolicy | None = None,
        prober: Callable[[str, float], dict[str, Any]] = probe_healthz,
        on_event: Callable[[int, str], None] | None = None,
    ):
        self.shard = int(shard)
        self._factory = process_factory
        self.policy = policy or SupervisorPolicy()
        self._prober = prober
        self._on_event = on_event
        self.process: ShardProcess | None = None
        self.url: str | None = None
        self.state = BREAKER_OPEN
        self.generation = 0
        self.restarts = 0
        self.last_error: str | None = None
        self.last_health: dict[str, Any] | None = None
        self.last_probe_at: float | None = None
        self._consecutive_probe_failures = 0
        self._recovery_successes = 0
        self._failure_streak = 0
        self._restart_at: float | None = None  # None -> eligible now
        self._stall_count = 0
        self._last_lag: int | None = None
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    @property
    def available(self) -> bool:
        """Routable: a live (if not yet fully trusted) process exists."""
        return self.state != BREAKER_OPEN and self.url is not None

    def retry_after(self, now: float) -> float:
        """Backoff hint for requests while this shard is unroutable."""
        with self._lock:
            if self.state != BREAKER_OPEN:
                return max(self.policy.probe_interval, 0.1)
            remaining = (
                0.0
                if self._restart_at is None
                else max(self._restart_at - now, 0.0)
            )
            return max(remaining + self.policy.probe_interval, 0.1)

    # ------------------------------------------------------------------
    def tick(self, now: float) -> None:
        """Advance the state machine one step at time ``now``."""
        with self._lock:
            if self.state == BREAKER_OPEN:
                if self._restart_at is not None and now < self._restart_at:
                    return
                self._spawn(now)
                return
            process = self.process
            if process is None or not process.alive():
                code = None if process is None else process.exit_code()
                self._fail(now, f"process exited with code {code}")
                return
            due = (
                self.last_probe_at is None
                or now - self.last_probe_at >= self.policy.probe_interval
            )
        if due:
            # The probe itself runs without the lock: a hung shard may
            # pin this call for probe_timeout seconds, and status reads
            # from router threads must not block behind it.
            self._probe(now)

    def _probe(self, now: float) -> None:
        url = self.url
        if url is None:
            return
        try:
            health = self._prober(url, self.policy.probe_timeout)
        except Exception as error:  # noqa: BLE001 - any failure counts
            with self._lock:
                if self.url != url:  # restarted underneath the probe
                    return
                self.last_probe_at = now
                self._consecutive_probe_failures += 1
                self.last_error = f"health probe failed: {error}"
                if (
                    self._consecutive_probe_failures
                    >= self.policy.failure_threshold
                ):
                    # Hung, wedged, or half-dead: the process may still
                    # be running, so SIGKILL before restarting.
                    self._fail(
                        now,
                        f"{self._consecutive_probe_failures} consecutive "
                        f"probe failures (last: {error})",
                    )
            return
        with self._lock:
            if self.url != url:
                return
            self.last_probe_at = now
            self.last_health = health
            self._consecutive_probe_failures = 0
            if health.get("status") == "starting":
                # Socket bound but WAL replay still running: alive and
                # responsive, so no failure — but not ready either, so
                # no recovery credit. The breaker stays half-open.
                self._recovery_successes = 0
                return
            if self._lag_stalled(health):
                self._fail(
                    now,
                    f"wal_replay_lag stalled at {self._last_lag} "
                    f">= {self.policy.max_replay_lag} for "
                    f"{self._stall_count} probes",
                )
                return
            if self.state == BREAKER_HALF_OPEN:
                self._recovery_successes += 1
                if self._recovery_successes >= self.policy.recovery_probes:
                    self.state = BREAKER_CLOSED
                    self._failure_streak = 0
                    self._event("breaker closed (recovered)")

    def _lag_stalled(self, health: dict[str, Any]) -> bool:
        threshold = self.policy.max_replay_lag
        if threshold is None:
            return False
        durability = health.get("durability")
        lags = []
        if isinstance(durability, dict):
            for status in durability.values():
                if isinstance(status, dict):
                    lags.append(int(status.get("wal_replay_lag") or 0))
        lag = max(lags, default=0)
        previous = self._last_lag
        self._last_lag = lag
        if lag >= threshold and (previous is None or lag >= previous):
            self._stall_count += 1
        else:
            self._stall_count = 0
        return self._stall_count >= self.policy.stall_probes

    def _fail(self, now: float, reason: str) -> None:
        process = self.process
        if process is not None:
            process.kill()
        self.process = None
        self.url = None
        self.state = BREAKER_OPEN
        self.last_error = reason
        self.last_health = None
        self._consecutive_probe_failures = 0
        self._recovery_successes = 0
        self._stall_count = 0
        self._last_lag = None
        self._failure_streak += 1
        delay = self._backoff()
        self._restart_at = now + delay
        self._event(f"breaker open: {reason}; restart in {delay:g}s")

    def _backoff(self) -> float:
        exponent = max(self._failure_streak - 1, 0)
        return min(
            self.policy.backoff_base * (2.0 ** exponent),
            self.policy.backoff_cap,
        )

    def _spawn(self, now: float) -> None:
        self.generation += 1
        if self.generation > 1:
            self.restarts += 1
        process: ShardProcess | None = None
        try:
            process = self._factory(self.shard)
            url = process.start()
        except Exception as error:  # noqa: BLE001 - spawn must not crash the loop
            if process is not None:
                process.kill()
            self.process = None
            self.url = None
            self._failure_streak += 1
            delay = self._backoff()
            self._restart_at = now + delay
            self.last_error = f"restart failed: {error}"
            self._event(
                f"restart failed ({error}); next attempt in {delay:g}s"
            )
            return
        self.process = process
        self.url = url
        self.state = BREAKER_HALF_OPEN
        self._recovery_successes = 0
        self._consecutive_probe_failures = 0
        self._stall_count = 0
        self._last_lag = None
        self.last_probe_at = None  # probe on the next tick
        self.last_health = None
        self.last_error = None
        self._restart_at = None
        self._event(
            f"spawned pid {process.pid} (generation {self.generation}) "
            f"at {url}"
        )

    def _event(self, message: str) -> None:
        if self._on_event is not None:
            try:
                self._on_event(self.shard, message)
            except Exception:  # noqa: BLE001 - observers must not break healing
                pass

    # ------------------------------------------------------------------
    def status(self, now: float) -> dict[str, Any]:
        """The per-shard entry of the fleet-wide ``/healthz``."""
        with self._lock:
            process = self.process
            status: dict[str, Any] = {
                "shard": self.shard,
                "state": self.state,
                "pid": None if process is None else process.pid,
                "generation": self.generation,
                "restarts": self.restarts,
                "url": self.url,
                "consecutive_probe_failures": self._consecutive_probe_failures,
                "next_restart_in": (
                    max(self._restart_at - now, 0.0)
                    if self.state == BREAKER_OPEN
                    and self._restart_at is not None
                    else None
                ),
                "last_error": self.last_error,
            }
            health = self.last_health
            if health is not None:
                applied_seq = 0
                replay_lag = 0
                durability = health.get("durability")
                if isinstance(durability, dict):
                    for entry in durability.values():
                        if isinstance(entry, dict):
                            applied_seq += int(entry.get("applied_seq") or 0)
                            replay_lag = max(
                                replay_lag,
                                int(entry.get("wal_replay_lag") or 0),
                            )
                status.update(
                    {
                        "monitors": health.get("monitors"),
                        "rows_ingested": health.get("rows_ingested"),
                        "batches_ingested": health.get("batches_ingested"),
                        "applied_seq": applied_seq,
                        "wal_replay_lag": replay_lag,
                        "shard_status": health.get("status"),
                    }
                )
            return status


# ----------------------------------------------------------------------
# The fleet
# ----------------------------------------------------------------------
class FleetSupervisor:
    """Spawns, probes, and heals the N shard workers of a fleet dir.

    Doubles as the shard table for
    :class:`repro.monitor.routing.FleetRouter` (``n_shards`` /
    ``shard_url`` / ``fleet_health`` / ``shard_retry_after``), so wiring
    a fleet is::

        supervisor = FleetSupervisor(data_dir, 4).start()
        router = FleetRouter(supervisor).start()

    ``process_factory``, ``prober``, and ``clock`` are injectable for
    tests; the defaults spawn real ``monitor-serve`` subprocesses and
    probe them over HTTP.
    """

    def __init__(
        self,
        directory: str | Path,
        n_shards: int | None = None,
        *,
        host: str = "127.0.0.1",
        serve_args: tuple[str, ...] = (),
        policy: SupervisorPolicy | None = None,
        prober: Callable[[str, float], dict[str, Any]] = probe_healthz,
        process_factory: Callable[[int], ShardProcess] | None = None,
        on_event: Callable[[int, str], None] | None = None,
        clock: Callable[[], float] = time.monotonic,
        banner_timeout: float = 60.0,
    ):
        self.directory = Path(directory)
        self.n_shards = init_fleet_dir(self.directory, n_shards)
        self.policy = policy or SupervisorPolicy()
        self._clock = clock
        if process_factory is None:

            def process_factory(shard: int) -> ShardProcess:
                return ShardProcess(
                    shard,
                    shard_dir(self.directory, shard),
                    host=host,
                    serve_args=serve_args,
                    banner_timeout=banner_timeout,
                )

        self._shards = [
            ShardSupervisor(
                index,
                process_factory,
                policy=self.policy,
                prober=prober,
                on_event=on_event,
            )
            for index in range(self.n_shards)
        ]
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        self._stopped = False

    # ------------------------------------------------------------------
    def start(self, *, require_all: bool = True) -> "FleetSupervisor":
        """Spawn every shard and begin the supervision loop.

        With ``require_all`` (the default), an initial spawn failure —
        a shard that exits before binding or never prints its banner —
        raises :class:`FleetError` with the worker's last output: a
        fleet that cannot boot should fail loudly, while crashes *after*
        boot are the routine self-healing case. With
        ``require_all=False`` the failed shard is left to the breaker's
        backoff schedule.
        """
        if self._thread is not None:
            raise MonitorError("the fleet supervisor is already running")
        now = self._clock()
        for shard in self._shards:
            shard.tick(now)
        if require_all:
            failed = [s for s in self._shards if not s.available]
            if failed:
                details = "; ".join(
                    f"shard {s.shard}: {s.last_error}" for s in failed
                )
                self.stop()
                raise FleetError(f"fleet failed to start: {details}")
        self._thread = threading.Thread(
            target=self._loop, name="repro-fleet-supervisor", daemon=True
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        interval = min(max(self.policy.probe_interval / 4.0, 0.02), 0.5)
        while not self._stop_event.wait(interval):
            now = self._clock()
            for shard in self._shards:
                try:
                    shard.tick(now)
                except Exception:  # noqa: BLE001 - the loop must survive
                    traceback.print_exc(file=sys.stderr)

    def stop(self, *, grace: float = 10.0) -> None:
        """Stop supervising and shut every live shard down gracefully
        (SIGTERM → the worker checkpoints all monitors → SIGKILL after
        ``grace`` seconds). Safe to call more than once."""
        self._stop_event.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self._stopped = True
        for supervisor in self._shards:
            with supervisor._lock:
                process = supervisor.process
                supervisor.process = None
                supervisor.url = None
                supervisor.state = BREAKER_OPEN
                supervisor.last_error = "fleet stopped"
            if process is not None:
                process.terminate(grace)

    def __enter__(self) -> "FleetSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Fault-injection / inspection hooks
    # ------------------------------------------------------------------
    def kill_shard(self, shard: int) -> int | None:
        """SIGKILL a shard's worker; returns the pid killed (or None).

        A fault-injection hook for tests and benchmarks: the next
        supervision tick sees the exit, opens the breaker, and restarts
        the shard through WAL replay.
        """
        process = self._supervisor(shard).process
        if process is None:
            return None
        pid = process.pid
        process.kill()
        return pid

    def shard_supervisor(self, shard: int) -> ShardSupervisor:
        return self._supervisor(shard)

    def _supervisor(self, shard: int) -> ShardSupervisor:
        if not isinstance(shard, int) or not 0 <= shard < self.n_shards:
            raise ValidationError(
                f"shard must be in [0, {self.n_shards}), got {shard!r}"
            )
        return self._shards[shard]

    # ------------------------------------------------------------------
    # Shard-table protocol (FleetRouter)
    # ------------------------------------------------------------------
    def shard_url(self, shard: int) -> str:
        supervisor = self._supervisor(shard)
        with supervisor._lock:
            if not self._stopped and supervisor.available:
                assert supervisor.url is not None
                return supervisor.url
            state = supervisor.state
            reason = supervisor.last_error
        raise ShardUnavailable(
            f"shard {shard} is unavailable (breaker {state}"
            + (f": {reason}" if reason else "")
            + ")",
            shard=shard,
            retry_after=supervisor.retry_after(self._clock()),
        )

    def shard_retry_after(self, shard: int) -> float:
        return self._supervisor(shard).retry_after(self._clock())

    def fleet_health(self) -> dict[str, Any]:
        now = self._clock()
        shards = [s.status(now) for s in self._shards]
        monitors = sum(int(s.get("monitors") or 0) for s in shards)
        rows = sum(int(s.get("rows_ingested") or 0) for s in shards)
        batches = sum(int(s.get("batches_ingested") or 0) for s in shards)
        healthy = all(s["state"] == BREAKER_CLOSED for s in shards)
        return {
            "status": "ok" if healthy else "degraded",
            "n_shards": self.n_shards,
            "monitors": monitors,
            "rows_ingested": rows,
            "batches_ingested": batches,
            "shards": shards,
        }


# ----------------------------------------------------------------------
# Offline fleet status (the ``fleet-status`` CLI)
# ----------------------------------------------------------------------
def fleet_status_snapshot(
    directory: str | Path,
    *,
    trend_window: int | None = None,
    recent_alerts: int = 5,
) -> dict[str, Any]:
    """Inspect a fleet data directory without the fleet running.

    Produces the per-shard view (each shard's
    :func:`repro.monitor.service.status_snapshot`, resumed from its
    newest valid checkpoints + WAL replay, exactly as a restart would)
    plus the merged global view: cumulative monitors are grouped by
    audit schema (protected attributes, outcome, alpha) and each
    group's newest valid checkpoint generations are combined with
    :func:`repro.engine.checkpoint.merge_checkpoint_files`, giving the
    fleet-wide epsilon per schema. Windowed monitors and monitors that
    have never checkpointed are reported as excluded rather than
    silently dropped — a fleet-wide audit that quietly misses a
    subgroup's traffic is exactly the failure mode the paper warns
    about.
    """
    directory = Path(directory)
    if not directory.exists():
        raise MonitorError(f"data directory {directory} does not exist")
    shards = []
    for index, path in shard_dirs(directory):
        if not path.exists():
            shards.append(
                {
                    "shard": index,
                    "directory": str(path),
                    "monitors": [],
                    "history_records": 0,
                    "missing": True,
                }
            )
            continue
        snapshot = status_snapshot(
            path, trend_window=trend_window, recent_alerts=recent_alerts
        )
        shards.append({"shard": index, **snapshot})
    # Fleet-wide scan stats: the sum of every shard's offline scan (see
    # status_snapshot's "scan" block) — the fleet-status cost surface.
    scan = {"seconds": 0.0, "history_segments": 0, "history_records": 0,
            "monitors": 0, "shards_scanned": 0}
    for shard in shards:
        shard_scan = shard.get("scan")
        if shard_scan is None:
            continue
        scan["seconds"] += float(shard_scan.get("seconds", 0.0))
        scan["history_segments"] += int(shard_scan.get("history_segments", 0))
        scan["history_records"] += int(shard_scan.get("history_records", 0))
        scan["monitors"] += int(shard_scan.get("monitors", 0))
        scan["shards_scanned"] += 1
    return {
        "directory": str(directory),
        "n_shards": len(shards),
        "shards": shards,
        "merged": _merged_groups(shards),
        "scan": scan,
    }


def _newest_valid_checkpoint(checkpoint_path: Path) -> Path | None:
    from repro.engine.checkpoint import checkpoint_generations, load_contingency

    try:
        generations = checkpoint_generations(checkpoint_path)
    except ReproError:
        return None
    for candidate in generations:
        try:
            load_contingency(candidate)
        except (ReproError, OSError):
            continue
        return candidate
    return None


def _merged_groups(shards: list[dict[str, Any]]) -> dict[str, Any]:
    from repro.core.empirical import edf_from_contingency
    from repro.engine.checkpoint import merge_checkpoint_files

    groups: dict[tuple, dict[str, Any]] = {}
    windowed: list[str] = []
    no_checkpoint: list[str] = []
    for shard in shards:
        for entry in shard.get("monitors", []):
            config = entry["config"]
            label = f"shard-{shard['shard']:02d}/{entry['name']}"
            if config.get("window") is not None:
                # A windowed auditor's checkpoint carries ring-buffer
                # state, not mergeable counts; merge_checkpoint_files
                # would refuse it.
                windowed.append(label)
                continue
            checkpoint_path = (
                Path(shard["directory"])
                / CHECKPOINT_DIR
                / f"{entry['name']}.rcpk"
            )
            newest = _newest_valid_checkpoint(checkpoint_path)
            if newest is None:
                no_checkpoint.append(label)
                continue
            key = (
                tuple(config["protected"]),
                config["outcome"],
                config.get("alpha"),
            )
            group = groups.setdefault(
                key, {"paths": [], "monitors": []}
            )
            group["paths"].append(newest)
            group["monitors"].append(label)
    merged = []
    for key in sorted(groups, key=repr):
        protected, outcome, alpha = key
        group = groups[key]
        contingency = merge_checkpoint_files(group["paths"])
        result = edf_from_contingency(contingency.snapshot(), estimator=alpha)
        merged.append(
            {
                "protected": list(protected),
                "outcome": outcome,
                "alpha": alpha,
                "monitors": group["monitors"],
                "rows": contingency.n_rows,
                "epsilon": result.epsilon,
            }
        )
    return {
        "groups": merged,
        "windowed_excluded": windowed,
        "no_checkpoint": no_checkpoint,
        # The merge reads durable checkpoints only; batches applied
        # since each monitor's newest checkpoint live in its WAL and
        # are excluded here (the per-shard view includes them).
        "note": "merged counts are as of each monitor's newest valid "
        "checkpoint generation",
    }


def _format_alpha(alpha) -> str:
    return "plug-in" if alpha is None else f"alpha={alpha:g}"


def _render_fleet_text(snapshot: dict[str, Any]) -> str:
    lines = [
        f"fleet data dir: {snapshot['directory']}",
        f"shards: {snapshot['n_shards']}",
    ]
    scan = snapshot.get("scan")
    if scan is not None:
        lines.append(
            f"scan: {scan['shards_scanned']} shard(s), "
            f"{scan['monitors']} monitor(s), "
            f"{scan['history_segments']} history segment(s), "
            f"{scan['history_records']} record(s) in {scan['seconds']:.3f}s"
        )
    for shard in snapshot["shards"]:
        lines.append("")
        if shard.get("missing"):
            lines.append(
                f"shard-{shard['shard']:02d}: data directory missing "
                f"({shard['directory']})"
            )
            continue
        lines.append(
            f"shard-{shard['shard']:02d}: {len(shard['monitors'])} "
            f"monitor(s), {shard['history_records']} history record(s)"
        )
        for entry in shard["monitors"]:
            lines.extend(
                "  " + line for line in _monitor_lines(entry)
            )
    merged = snapshot["merged"]
    lines.append("")
    lines.append("merged cumulative groups (newest valid checkpoints):")
    if not merged["groups"]:
        lines.append("  none")
    for group in merged["groups"]:
        lines.append(
            f"  {', '.join(group['protected'])} x {group['outcome']} "
            f"({_format_alpha(group['alpha'])}): epsilon = "
            f"{group['epsilon']:.4f} over {group['rows']} rows from "
            f"{len(group['monitors'])} monitor(s): "
            f"{', '.join(group['monitors'])}"
        )
    if merged["windowed_excluded"]:
        lines.append(
            f"  excluded (windowed, not mergeable): "
            f"{', '.join(merged['windowed_excluded'])}"
        )
    if merged["no_checkpoint"]:
        lines.append(
            f"  excluded (no valid checkpoint yet): "
            f"{', '.join(merged['no_checkpoint'])}"
        )
    return "\n".join(lines)


def _render_fleet_markdown(snapshot: dict[str, Any]) -> str:
    lines = [
        "# Fairness monitoring fleet status",
        "",
        f"- fleet data dir: `{snapshot['directory']}`",
        f"- shards: {snapshot['n_shards']}",
    ]
    scan = snapshot.get("scan")
    if scan is not None:
        lines.append(
            f"- scan: {scan['shards_scanned']} shard(s), "
            f"{scan['monitors']} monitor(s), "
            f"{scan['history_segments']} history segment(s), "
            f"{scan['history_records']} record(s) in {scan['seconds']:.3f}s"
        )
    rows = []
    for shard in snapshot["shards"]:
        for entry in shard.get("monitors", []):
            report = entry["report"]
            config = entry["config"]
            scope = (
                "cumulative"
                if config["window"] is None
                else f"window {config['window']}"
            )
            rows.append(
                f"| shard-{shard['shard']:02d} | {entry['name']} | {scope} "
                f"| {report['epsilon']:.4f} | {report['rows_seen']} "
                f"| {report['batches']} | {entry['alerts_total']} |"
            )
    if rows:
        lines += [
            "",
            "| shard | monitor | scope | epsilon | rows | batches | alerts |",
            "| --- | --- | --- | ---: | ---: | ---: | ---: |",
            *rows,
        ]
    merged = snapshot["merged"]
    lines += ["", "## Merged cumulative groups", ""]
    if merged["groups"]:
        lines += [
            "| protected x outcome | estimator | epsilon | rows | monitors |",
            "| --- | --- | ---: | ---: | --- |",
        ]
        for group in merged["groups"]:
            lines.append(
                f"| {', '.join(group['protected'])} x {group['outcome']} "
                f"| {_format_alpha(group['alpha'])} "
                f"| {group['epsilon']:.4f} | {group['rows']} "
                f"| {', '.join(group['monitors'])} |"
            )
    else:
        lines.append("_none_")
    for title, labels in (
        ("Excluded (windowed, not mergeable)", merged["windowed_excluded"]),
        ("Excluded (no valid checkpoint yet)", merged["no_checkpoint"]),
    ):
        if labels:
            lines += ["", f"## {title}", ""]
            lines += [f"- `{label}`" for label in labels]
    return "\n".join(lines)


def render_fleet_status(
    directory: str | Path,
    *,
    markdown: bool = False,
    trend_window: int | None = None,
) -> str:
    """The ``fleet-status`` report for a fleet data directory."""
    snapshot = fleet_status_snapshot(directory, trend_window=trend_window)
    return (
        _render_fleet_markdown(snapshot)
        if markdown
        else _render_fleet_text(snapshot)
    )
