"""The serving-path workloads: ``ingest_bulk`` and ``ingest_fleet``.

One load-generating process (this one) drives a ``monitor-serve`` or
``fleet-serve`` subprocess through :class:`repro.monitor.client.
MonitorClient` in a closed loop: one client, one request in flight.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
import urllib.request
from dataclasses import dataclass

import numpy as np

import bench_trace
from bench_data import OUTCOME, CensusRows
from bench_procs import BenchError, http_json, kill_hard, peak_rss_mb

MONITOR = "census"
MIN_SAMPLES = 1000  # so that at least 10 acks lie beyond p99
LOOP_CAP_S = 60  # the ack loop's limit while it waits for MIN_SAMPLES
WINDOW_NS = 1_000_000_000
SETUPS = 3
ALPHA = 1.0


@dataclass(frozen=True)
class Spec:
    """One serving workload's fixed shape."""

    command: list
    banner: str
    batch_rows: int
    window_batches: int | None
    rules: list
    batch_ids: bool
    kill_after: int
    restarts: int

    def config(self, protected) -> dict:
        return {
            "name": MONITOR,
            "protected": list(protected),
            "outcome": OUTCOME,
            "window": (
                None
                if self.window_batches is None
                else self.window_batches * self.batch_rows
            ),
            "alpha": ALPHA,
            "rules": self.rules,
        }


BULK = Spec(
    command=["monitor-serve", "--port", "0", "--checkpoint-every", "0"],
    banner="monitor-serve: listening on ",
    batch_rows=2000,
    window_batches=20,
    rules=[
        {"type": "epsilon_threshold", "threshold": 10.0},
        {"type": "divergence", "threshold": 1.0},
    ],
    batch_ids=False,
    # The WAL replayed by each restart holds this many 2,000-row
    # batches (no checkpoint is ever written), so replay, not
    # interpreter start, dominates recovery_s.
    kill_after=180,
    restarts=3,
)

FLEET = Spec(
    command=["fleet-serve", "--shards", "1", "--port", "0"],
    banner="fleet-serve: router listening on ",
    batch_rows=100,
    window_batches=None,
    rules=[
        {"type": "epsilon_threshold", "threshold": 10.0},
        {
            "type": "metric_threshold",
            "metric": "demographic_parity_ratio",
            "threshold": 0.8,
        },
    ],
    batch_ids=True,
    kill_after=600,
    restarts=2,
)


class CountingOpener:
    """The client's transport, counting attempts and failed attempts."""

    def __init__(self):
        self.attempts = 0
        self.errors = 0

    def __call__(self, request, timeout):
        self.attempts += 1
        try:
            return urllib.request.urlopen(request, timeout=timeout)
        except OSError:  # URLError, HTTPError and raw socket errors
            self.errors += 1
            raise


class Deployment:
    """A running server (``monitor-serve`` or ``fleet-serve``) and its pids."""

    def __init__(self, spec: Spec, run, data_dir: str, trace_dir: str | None):
        self.spec = spec
        self.data_dir = data_dir
        self.trace_dir = trace_dir
        self.server = run.spawn(
            [*spec.command, "--data-dir", data_dir],
            banner=spec.banner,
            trace_dir=trace_dir,
        )
        self.url = self.server.url

    def service_pid(self) -> int:
        """The process that applies batches (the shard on a fleet)."""
        if self.spec is FLEET:
            health = http_json(self.url + "/healthz")
            return int(health["shards"][0]["pid"])
        return self.server.pid

    def pids(self) -> list[int]:
        pids = [self.server.pid]
        if self.spec is FLEET:
            pids.append(self.service_pid())
        return pids

    def flush_spans(self) -> None:
        """Make every traced process write its spans before a SIGKILL."""
        if self.trace_dir is None:
            return
        pids = self.pids()
        before = {pid: bench_trace.span_files(self.trace_dir, pid) for pid in pids}
        for pid in pids:
            os.kill(pid, signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while any(
            bench_trace.span_files(self.trace_dir, pid) <= before[pid]
            for pid in pids
        ):
            if time.monotonic() > deadline:
                raise BenchError("traced server did not flush its spans")
            time.sleep(0.005)

    def kill(self) -> None:
        """SIGKILL the server (router first, then its shard) and reap."""
        pids = self.pids()
        self.server.kill()
        for pid in pids[1:]:
            kill_hard(pid)

    def stop(self) -> None:
        self.server.stop()


class IngestLoop:
    """The closed-loop client and everything it observed."""

    def __init__(self, spec: Spec, url: str, rows: CensusRows):
        from repro.monitor.client import MonitorClient

        self.spec = spec
        self.rows = rows
        self.opener = CountingOpener()
        self.client = MonitorClient(url, opener=self.opener)
        self.blocks: list[np.ndarray] = []
        self.latency_ns: list[int] = []
        self.client_spans: list[tuple[str, int, int]] = []
        self.loop_ns = 0
        self.window_rates: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.retries = 0
        self.unacked = 0
        self.duplicates = 0
        self.last = None

    def retarget(self, url: str) -> None:
        self.client.base_url = url.rstrip("/")

    def run(self, *, batches: int | None = None, seconds: float | None = None,
            min_samples: int = 0) -> None:
        from repro.exceptions import MonitorClientError

        spec = self.spec
        clock = bench_trace.clock_ns
        started = clock()
        deadline = None if seconds is None else started + int(seconds * 1e9)
        hard_stop = None if seconds is None else started + int(max(seconds, LOOP_CAP_S) * 1e9)
        done = 0
        window_started, window_rows = started, 0
        while True:
            if batches is not None and done >= batches:
                break
            if deadline is not None:
                now = clock()
                enough = len(self.latency_ns) >= min_samples
                if now >= hard_stop or (now >= deadline and enough):
                    break
            block = self.rows.block(spec.batch_rows)
            rows = self.rows.as_rows(block)
            batch_id = f"b{self.attempted:07d}" if spec.batch_ids else None
            attempts, errors = self.opener.attempts, self.opener.errors
            self.attempted += 1
            begin = clock()
            try:
                result = self.client.observe(MONITOR, rows, batch_id=batch_id)
            except (MonitorClientError, OSError):  # e.g. a read timeout
                result = None
            end = clock()
            self.retries += self.opener.attempts - attempts - 1
            if self.opener.errors > errors:
                self.failed += 1
            done += 1
            if result is None:
                self.unacked += 1
                continue
            if result.get("duplicate"):
                self.duplicates += 1
            self.latency_ns.append(end - begin)
            self.client_spans.append(("client", begin, end))
            self.blocks.append(block)
            self.last = result
            window_rows += spec.batch_rows
            if end - window_started >= WINDOW_NS:
                self.window_rates.append(window_rows * 1e9 / (end - window_started))
                window_started, window_rows = end, 0
        self.loop_ns += clock() - started

    def rows_per_s(self) -> float:
        """Acked rows per second: the median over one-second windows.

        A median of windows rather than one total over the run, so a
        burst of interference from outside the benchmark moves it less.
        """
        if not self.window_rates:
            return len(self.blocks) * self.spec.batch_rows * 1e9 / self.loop_ns
        return statistics.median(self.window_rates)


def _report(url: str) -> dict:
    return http_json(f"{url}/monitors/{MONITOR}/report")


def _setup(spec: Spec, run, rows: CensusRows, trace_dir, count: int):
    """Spawn ``count`` servers on fresh data dirs; keep the last one.

    Each set-up is timed from spawn until ``/healthz`` is ``ok`` and the
    monitor is created.
    """
    times = []
    fleet = None
    for attempt in range(count):
        data_dir = run.fresh_dir(f"data-{attempt}")
        started = time.monotonic()
        fleet = Deployment(spec, run, data_dir, trace_dir)
        fleet.server.wait_ok()
        http_json(fleet.url + "/monitors", "POST", spec.config(rows.protected))
        times.append(time.monotonic() - started)
        if attempt < count - 1:
            fleet.stop()
    return fleet, times


def _restart(spec: Spec, run, fleet: Deployment, loop: IngestLoop, gate) -> tuple[Deployment, float]:
    """SIGKILL after the last ack, restart on the same data dir, time it."""
    before = _report(fleet.url)
    fleet.flush_spans()
    started = time.monotonic()
    fleet.kill()
    fleet = Deployment(spec, run, fleet.data_dir, fleet.trace_dir)
    if spec is BULK:
        run.wait_log(fleet.server, "monitor-serve: resumed")
    fleet.server.wait_ok()
    elapsed = time.monotonic() - started
    after = _report(fleet.url)
    gate(
        "restart keeps epsilon and batches",
        after["epsilon"] == before["epsilon"]
        and after["batches"] == before["batches"] == len(loop.blocks),
        f"before {before['epsilon']!r}/{before['batches']}, "
        f"after {after['epsilon']!r}/{after['batches']}",
    )
    loop.retarget(fleet.url)
    return fleet, elapsed


def _final_gates(spec: Spec, loop: IngestLoop, gate) -> None:
    from repro.core.empirical import dataset_edf

    protected = list(loop.rows.protected)
    last = loop.last
    gate("every batch acked", loop.unacked == 0, f"{loop.unacked} unacked")
    if last is None:
        gate("at least one batch acked", False, "none")
        return
    everything = dataset_edf(
        loop.rows.table(loop.blocks), protected, OUTCOME, estimator=ALPHA
    ).epsilon
    if spec.window_batches is None:
        gate(
            "epsilon equals dataset_edf on all rows",
            last["epsilon"] == everything,
            f"{last['epsilon']!r} vs {everything!r}",
        )
        gate(
            "no fresh batch_id acked as duplicate",
            loop.duplicates == 0,
            f"{loop.duplicates} duplicates",
        )
        return
    window = dataset_edf(
        loop.rows.table(loop.blocks[-spec.window_batches:]),
        protected,
        OUTCOME,
        estimator=ALPHA,
    ).epsilon
    gate(
        "window epsilon equals dataset_edf on the window's rows",
        last["epsilon"] == window,
        f"{last['epsilon']!r} vs {window!r}",
    )
    gate(
        "cumulative epsilon equals dataset_edf on all rows",
        last["cumulative_epsilon"] == everything,
        f"{last['cumulative_epsilon']!r} vs {everything!r}",
    )


def _latency(loop: IngestLoop) -> dict:
    latency_ms = np.asarray(loop.latency_ns, dtype=float) / 1e6
    p50, p99 = np.percentile(latency_ms, [50, 99])
    return {
        "p50_ms": float(p50),
        "p99_ms": float(p99),
        "samples": int(latency_ms.size),
        "beyond_p99": int((latency_ms > p99).sum()),
    }


def run_untraced(spec: Spec, run) -> dict:
    rows = CensusRows(run.seed, 4)
    fleet, setup_times = _setup(spec, run, rows, None, SETUPS)
    loop = IngestLoop(spec, fleet.url, rows)
    loop.run(batches=spec.kill_after)
    recoveries = []
    for _ in range(spec.restarts):
        fleet, elapsed = _restart(spec, run, fleet, loop, run.gate)
        recoveries.append(elapsed)
    loop.run(seconds=run.seconds, min_samples=MIN_SAMPLES)
    rss = peak_rss_mb(fleet.service_pid())
    fleet.stop()
    _final_gates(spec, loop, run.gate)
    latency = _latency(loop)
    run.note(
        f"{latency['samples']} acks timed, {latency['beyond_p99']} beyond p99; "
        f"{loop.retries} client retries"
    )
    return {
        "metrics": {
            "rows_per_s": loop.rows_per_s(),
            "p50_ms": latency["p50_ms"],
            "p99_ms": latency["p99_ms"],
            "recovery_s": statistics.median(recoveries),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": rss,
        },
        "extra": {
            "failed_share": loop.failed / loop.attempted,
            "samples": latency["samples"],
            "recoveries_s": recoveries,
            "setups_s": setup_times,
        },
        "attempted": loop.attempted,
        "failed": loop.failed,
    }


# ----------------------------------------------------------------------
# Traced run: per-layer ledger
# ----------------------------------------------------------------------
def _metrics_json(url: str) -> dict:
    return http_json(url + "/metrics.json")


def _family_total(state: dict, family: str, field: str, **labels) -> float:
    entry = state["families"].get(family)
    if entry is None:
        return 0.0
    total = 0.0
    for series in entry["series"]:
        if all(series["labels"].get(k) == v for k, v in labels.items()):
            total += series[field]
    return float(total)


def _cross_check(ledger: bench_trace.Ledger, before: dict, after: dict, run) -> None:
    """Check the spans against the server's own instruments.

    ``/metrics.json`` carries the WAL counters and histograms and the
    ``repro_observe_stage_seconds`` breakdown of ``Monitor.observe``;
    over the same batches they must agree with the spans up to the
    wrappers' own cost (5% plus 20 us per batch).
    """

    def server_ms(family, **labels):
        return 1e3 * (
            _family_total(after, family, "sum", **labels)
            - _family_total(before, family, "sum", **labels)
        )

    def spans_ms(*names):
        return sum(ledger.total_ns.get(name, 0) for name in names) / 1e6

    slack = lambda value: 0.05 * value + 0.02 * ledger.calls.get("registry", 0)  # noqa: E731
    fsyncs = _family_total(after, "repro_wal_fsyncs_total", "value") - _family_total(
        before, "repro_wal_fsyncs_total", "value"
    )
    wal = spans_ms("wal")
    apply_children = spans_ms("streaming", "estimate", "rules", "store")
    checks = [
        ("wal fsyncs", ledger.fsyncs.get("wal", 0), fsyncs, ledger.fsyncs.get("wal", 0) == fsyncs),
        ("wal fsync ms", spans_ms("wal.fsync"), server_ms("repro_wal_fsync_seconds"), None),
        ("wal_append stage ms", wal, server_ms("repro_observe_stage_seconds", stage="wal_append"), None),
        ("alerts stage ms >= rules spans", spans_ms("rules"),
         server_ms("repro_observe_stage_seconds", stage="alerts"), "lower"),
        ("apply stage ms >= its children's spans", apply_children,
         server_ms("repro_observe_stage_seconds", stage="apply"), "lower"),
        ("apply stage ms <= Monitor.observe minus WAL", spans_ms("registry") - wal,
         server_ms("repro_observe_stage_seconds", stage="apply"), "upper"),
    ]
    for label, spans, server, ok in checks:
        if ok is None:
            ok = abs(spans - server) <= slack(max(spans, server))
        elif ok == "lower":
            ok = spans <= server + slack(server)
        elif ok == "upper":
            ok = server <= spans + slack(spans)
        run.gate(
            f"spans agree with /metrics.json: {label}",
            ok,
            f"spans {spans:.3f} vs server {server:.3f}",
        )


def run_traced(spec: Spec, run) -> dict:
    rows = CensusRows(run.seed, 4)
    half = run.seconds / 2.0

    # Untraced reference, for the tracing overhead.
    fleet, _ = _setup(spec, run, rows, None, 1)
    reference = IngestLoop(spec, fleet.url, rows)
    reference.run(seconds=half)
    fleet.stop()
    untraced_ms = reference.loop_ns / 1e6 / reference.attempted

    trace_dir = run.fresh_dir("trace")
    rows = CensusRows(run.seed, 4)
    fleet, _ = _setup(spec, run, rows, trace_dir, 1)
    loop = IngestLoop(spec, fleet.url, rows)
    # The first batch creates the WAL segment (its own fsyncs, which the
    # server's commit-fsync counter leaves out), so the cross-check
    # window starts after it.
    loop.run(batches=1)
    before = _metrics_json(fleet.url)
    loop.run(batches=spec.kill_after - 1)
    after = _metrics_json(fleet.url)
    first_spans = len(loop.client_spans)
    fleet, recovery = _restart(spec, run, fleet, loop, run.gate)
    loop.run(seconds=half)
    fleet.stop()
    _final_gates(spec, loop, run.gate)

    spans, sizes = bench_trace.read_span_files(trace_dir)
    ledger = bench_trace.Ledger(spans + loop.client_spans, roots=("client",))
    window = loop.client_spans[1:first_spans]
    pre_kill = bench_trace.Ledger(
        [s for s in spans if window[0][1] <= s[1] and s[2] <= window[-1][2]] + window,
        roots=("client",),
    )
    _cross_check(pre_kill, before, after, run)
    return ledger_metrics(spec, loop, ledger, sizes, recovery, untraced_ms, run)


def ledger_metrics(spec, loop, ledger, sizes, recovery, untraced_ms, run) -> dict:
    batches = loop.attempted
    e2e_ns = loop.loop_ns
    per_batch = lambda ns: ns / 1e6 / batches  # noqa: E731
    layer_ns = {
        "client.self_ms": ledger.self_ns.get("client", 0),
        "routing.self_ms": ledger.self_ns.get("routing", 0),
        "service.self_ms": ledger.self_ns.get("service", 0),
        "registry.self_ms": ledger.self_ns.get("registry", 0),
        "wal.self_ms": ledger.self_ns.get("wal", 0),
        "wal.fsync_ms": ledger.self_ns.get("wal.fsync", 0),
        "streaming.self_ms": ledger.self_ns.get("streaming", 0),
        "estimate.self_ms": ledger.self_ns.get("estimate", 0),
        "rules.self_ms": ledger.self_ns.get("rules", 0),
        "store.self_ms": ledger.self_ns.get("store", 0),
        "checkpoint": ledger.self_ns.get("checkpoint", 0),
    }
    attributed = sum(layer_ns.values())
    unattributed = e2e_ns - attributed
    share = unattributed / e2e_ns
    run.gate(
        "ledger: layer self times fit in the traced end-to-end time",
        0 <= unattributed,
        f"layers {attributed} ns vs end-to-end {e2e_ns} ns",
    )
    run.gate(
        "ledger: unattributed_share <= 0.10",
        share <= 0.10,
        f"unattributed_share {share:.4f}",
    )
    traced_ms = e2e_ns / 1e6 / batches
    checkpoints = ledger.calls.get("checkpoint", 0)
    replay_ns = ledger.outside.get("replay.wal", 0)
    replayed_rows = spec.kill_after * spec.batch_rows
    run.ledger_table(
        [(name, per_batch(ns), ns / e2e_ns) for name, ns in layer_ns.items()]
        + [("unattributed", per_batch(unattributed), share)],
        total_ms=traced_ms,
        unit="ms per batch",
    )
    run.note(
        f"recovery (traced) {recovery:.3f} s; restore "
        f"{ledger.outside.get('replay.restore', 0) / 1e6:.1f} ms, replay "
        f"{replay_ns / 1e6:.1f} ms; handler tails clipped "
        f"{ledger.clipped_ns / 1e6:.2f} ms"
    )
    metrics = {name: per_batch(ns) for name, ns in layer_ns.items() if name != "checkpoint"}
    metrics.update(
        {
            "client.retries": loop.retries / batches,
            "wal.bytes_per_row": sizes.get("wal.bytes", 0) / (batches * spec.batch_rows),
            "wal.fsyncs_per_batch": ledger.fsyncs.get("wal", 0) / batches,
            "store.records_per_batch": ledger.calls.get("store", 0) / batches,
            "store.fsyncs_per_batch": ledger.fsyncs.get("store", 0) / batches,
            "checkpoint.ms": ledger.self_ns.get("checkpoint", 0) / 1e6 / max(checkpoints, 1),
            "checkpoint.count": checkpoints,
            "replay.restore_ms": ledger.outside.get("replay.restore", 0) / 1e6,
            "replay.wal_ms": replay_ns / 1e6,
            "replay.rows_per_s": (replayed_rows / (replay_ns / 1e9)) if spec is BULK and replay_ns else 0.0,
            "unattributed_share": share,
            "tracing.overhead_share": (traced_ms - untraced_ms) / untraced_ms,
        }
    )
    return {"metrics": metrics, "attempted": loop.attempted, "failed": loop.failed}
