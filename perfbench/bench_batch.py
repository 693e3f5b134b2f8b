"""The batch-path workload: ``audit_csv``.

``FairnessAuditor.audit_csv`` runs in this process on a synthetic census
CSV with six protected attributes (2,400 groups), Dirichlet smoothing
``alpha = 1`` and 500 posterior draws. Each round makes three audits:
a cold serial audit (``SerialBackend``), a cold pool audit through a
fresh ``ProcessPoolBackend(cpu_count)`` per audit as the CLI does, and a
warm serial re-audit over the ``.rccol`` cache built during set-up.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import bench_trace
from bench_data import OUTCOME, CensusRows
from bench_procs import peak_rss_mb

N_ROWS = 150_000
POSTERIOR_SAMPLES = 500
CACHE_BUILDS = 3
RESTARTS = 3
WARM_SCRIPT = "bench_warm_audit.py"
KINDS = ("cold", "pool", "warm")


def _digest(audit) -> str:
    """Everything the three audits must agree on, hashed."""
    digest = hashlib.sha256()

    def add(value):
        if isinstance(value, np.ndarray):
            digest.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, dict):
            for key in sorted(value):
                add(key)
                add(value[key])
        else:
            digest.update(repr(value).encode("utf-8"))

    for subset, result in sorted(audit.sweep.results.items()):
        add(subset)
        add(result.epsilon)
        add(np.asarray(result.group_mass))
        add(np.asarray(result.probabilities))
    add(audit.posterior_sweep.summaries)
    add(audit.posterior_sweep.samples)
    add(audit.metric_sweep.table)
    return digest.hexdigest()


class AuditRun:
    def __init__(self, run):
        from repro.audit.auditor import FairnessAuditor
        from repro.engine.backends import CsvSource

        self.run = run
        rows = CensusRows(run.seed, 6)
        self.csv = os.path.join(run.fresh_dir("audit"), "census.csv")
        self.blocks = rows.write_csv(self.csv, N_ROWS)
        self.rows = rows
        columns = (*rows.protected, OUTCOME)
        self.cache = self.csv + ".rccol"
        self.cold_source = CsvSource(self.csv, columns=columns)
        self.warm_source = CsvSource(self.csv, columns=columns, column_cache=self.cache)
        self.auditor = FairnessAuditor(
            rows.protected,
            OUTCOME,
            estimator=1.0,
            posterior_samples=POSTERIOR_SAMPLES,
            seed=run.seed,
        )
        self.digests: dict[str, set[str]] = {kind: set() for kind in KINDS}
        self.times: dict[str, list[float]] = {kind: [] for kind in KINDS}
        self.pool_metrics = []
        self.attempted = 0
        self.failed = 0

    def restarted_audit(self) -> tuple[float, float | None]:
        """A fresh interpreter re-auditing from the cache, spawn to exit."""
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), WARM_SCRIPT)
        env = dict(os.environ, PYTHONPATH=self.run.src)
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, script, self.csv, self.cache, str(self.run.seed),
             *self.rows.protected, OUTCOME],
            capture_output=True, text=True, env=env, timeout=120,
        )
        elapsed = time.perf_counter() - started
        if done.returncode != 0 or not done.stdout.strip():
            self.run.note(f"restarted re-audit failed: {done.stderr[-500:]}")
            return elapsed, None
        return elapsed, json.loads(done.stdout.splitlines()[-1])["epsilon"]

    def build_cache(self) -> float:
        if os.path.exists(self.cache):
            os.remove(self.cache)
        started = time.perf_counter()
        self.warm_source.open_cache().close()
        return time.perf_counter() - started

    def audit(self, kind: str) -> None:
        from repro.engine.backends import ProcessPoolBackend
        from repro.obs.metrics import MetricsRegistry

        self.attempted += 1
        try:
            if kind == "pool":
                registry = MetricsRegistry()
                started = time.perf_counter()
                with ProcessPoolBackend(os.cpu_count() or 1, metrics=registry) as pool:
                    audit = self.auditor.audit_csv(self.cold_source, backend=pool)
                elapsed = time.perf_counter() - started
                self.pool_metrics.append(registry.state_dict())
            else:
                source = self.cold_source if kind == "cold" else self.warm_source
                started = time.perf_counter()
                audit = self.auditor.audit_csv(source)
                elapsed = time.perf_counter() - started
        except Exception:
            self.failed += 1
            raise
        self.times[kind].append(elapsed)
        self.digests[kind].add(_digest(audit))
        self.last = audit

    def rounds(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            for kind in KINDS:
                self.audit(kind)
            if time.perf_counter() >= deadline:
                break

    def gates(self) -> None:
        from repro.core.empirical import dataset_edf

        gate = self.run.gate
        seen = set().union(*self.digests.values())
        gate(
            "serial, pool and warm audits agree (counts, epsilon, posterior, metrics)",
            len(seen) == 1 and all(self.digests.values()),
            f"{len(seen)} distinct results",
        )
        expected = dataset_edf(
            self.rows.table(self.blocks),
            list(self.rows.protected),
            OUTCOME,
            estimator=1.0,
        ).epsilon
        gate(
            "audit epsilon equals dataset_edf on the CSV's rows",
            self.last.epsilon == expected,
            f"{self.last.epsilon!r} vs {expected!r}",
        )


def run_untraced(run) -> dict:
    audits = AuditRun(run)
    builds = [audits.build_cache() for _ in range(CACHE_BUILDS)]
    audits.rounds(run.seconds)
    audits.gates()
    restarted = [audits.restarted_audit() for _ in range(RESTARTS)]
    restarts = [elapsed for elapsed, _ in restarted]
    run.gate(
        "a restarted process re-audits to the same epsilon",
        all(epsilon == audits.last.epsilon for _, epsilon in restarted),
        f"{[epsilon for _, epsilon in restarted]} vs {audits.last.epsilon!r}",
    )
    cold = statistics.median(audits.times["cold"])
    pool = statistics.median(audits.times["pool"])
    warm = statistics.median(audits.times["warm"])
    run.note(
        f"cold_audit_s {cold:.4f}, pool_audit_s {pool:.4f}, warm_audit_s "
        f"{warm:.4f} (medians of {len(audits.times['cold'])} rounds; "
        f"pool of {os.cpu_count()} workers); cache builds {builds}; "
        f"restarted re-audits {restarts}"
    )
    return {
        "metrics": {
            "rows_per_s": N_ROWS / cold,
            "p50_ms": 1e3 * warm,
            "p99_ms": 1e3 * pool,
            "recovery_s": statistics.median(restarts),
            "setup_s": statistics.median(builds),
            "peak_rss_mb": peak_rss_mb(os.getpid()),
        },
        "extra": {
            "cold_audit_s": cold,
            "pool_audit_s": pool,
            "warm_audit_s": warm,
            "failed_share": audits.failed / audits.attempted,
        },
        "attempted": audits.attempted,
        "failed": audits.failed,
    }


def _stage_seconds(state: dict, stage: str) -> float:
    entry = state["families"].get("repro_engine_stage_seconds")
    if entry is None:
        return 0.0
    return sum(s["sum"] for s in entry["series"] if s["labels"].get("stage") == stage)


def _counter(state: dict, family: str) -> float:
    entry = state["families"].get(family)
    return 0.0 if entry is None else sum(s["value"] for s in entry["series"])


def run_traced(run) -> dict:
    audits = AuditRun(run)
    audits.build_cache()
    half = run.seconds / 2.0
    audits.rounds(half)
    untraced = {kind: statistics.median(audits.times[kind]) for kind in KINDS}

    log = bench_trace.SpanLog()
    bench_trace.install_batch(log)
    try:
        build_ns = []
        for _ in range(CACHE_BUILDS):
            started = bench_trace.clock_ns()
            audits.build_cache()
            build_ns.append(bench_trace.clock_ns() - started)
        log.take()
        audits.times = {kind: [] for kind in KINDS}
        audits.pool_metrics = []
        audits.rounds(half)
    finally:
        log.restore()
    audits.gates()
    spans = log.take()["spans"]
    return ledger_metrics(audits, spans, build_ns, untraced, run)


def ledger_metrics(audits, spans, build_ns, untraced, run) -> dict:
    """Per-audit layer times; each audit kind is its own ledger."""
    by_kind = {kind: [] for kind in KINDS}
    audit_spans = sorted(s for s in spans if s[0] == "audit")
    # Rounds run cold, pool, warm in that order.
    for index, span in enumerate(audit_spans):
        by_kind[KINDS[index % 3]].append(span)

    def inside(kind):
        windows = by_kind[kind]
        return [
            s for s in spans
            if any(w[1] <= s[1] and s[2] <= w[2] for w in windows)
        ]

    def total(span_list, name):
        return sum(s[2] - s[1] for s in span_list if s[0] == name)

    rounds = len(by_kind["cold"])
    per = lambda ns, n=rounds: ns / 1e6 / max(n, 1)  # noqa: E731
    layers = {}
    cold = inside("cold")
    warm = inside("warm")
    pool = inside("pool")
    layers["cold"] = {
        "csv_io.parse_ms": total(cold, "build.serial") - total(cold, "count"),
        "streaming.count_ms": total(cold, "count"),
    }
    layers["warm"] = {
        "colcache.open_ms": total(warm, "build.serial") - total(warm, "count"),
        "streaming.warm_count_ms": total(warm, "count"),
    }
    stage_ns = {
        stage: 1e9 * sum(_stage_seconds(state, stage) for state in audits.pool_metrics)
        for stage in ("submit", "parse", "decode", "merge")
    }
    pool_build = total(pool, "build.pool")
    layers["pool"] = {
        "backends.submit_ms": stage_ns["submit"],
        "backends.wait_ms": stage_ns["parse"],
        "backends.decode_ms": stage_ns["decode"],
        "backends.merge_ms": stage_ns["merge"],
        "backends.self_ms": pool_build - sum(stage_ns.values()),
    }
    sweep_names = {
        "sweep.point_ms": "sweep.point",
        "sweep.posterior_ms": "sweep.posterior",
        "sweep.metrics_ms": "sweep.metrics",
    }
    audit_ns = 0
    attributed = 0
    rows = []
    for kind, kind_spans in (("cold", cold), ("pool", pool), ("warm", warm)):
        wall = total(kind_spans, "audit")
        sweeps = {m: total(kind_spans, n) for m, n in sweep_names.items()}
        kind_layers = {**layers[kind], **sweeps}
        kind_attributed = sum(kind_layers.values())
        audit_ns += wall
        attributed += kind_attributed
        for name, ns in kind_layers.items():
            rows.append((f"{kind}: {name}", per(ns), ns / wall))
        rows.append((f"{kind}: unattributed", per(wall - kind_attributed),
                     (wall - kind_attributed) / wall))
    run.ledger_table(rows, total_ms=per(audit_ns), unit="ms per round of three audits")
    share = (audit_ns - attributed) / audit_ns
    traced = {kind: total(inside(kind), "audit") / 1e9 / rounds for kind in KINDS}
    overhead = sum(traced.values()) / sum(untraced.values()) - 1.0
    chunks = sum(_counter(s, "repro_engine_chunks_total") for s in audits.pool_metrics)
    fallbacks = sum(
        _counter(s, "repro_engine_ring_fallback_total") for s in audits.pool_metrics
    )
    sweeps_all = {m: total(spans, n) for m, n in sweep_names.items()}
    metrics = {}
    for kind in KINDS:
        for name, ns in layers[kind].items():
            metrics[name] = per(ns)
    for name, ns in sweeps_all.items():
        metrics[name] = per(ns, 3 * rounds)
    metrics.update(
        {
            "backends.chunks": chunks / rounds,
            "backends.ring_fallbacks": fallbacks / rounds,
            "colcache.build_ms": statistics.median(build_ns) / 1e6,
            "unattributed_share": share,
            "tracing.overhead_share": overhead,
        }
    )
    return {"metrics": metrics, "attempted": audits.attempted, "failed": audits.failed}
