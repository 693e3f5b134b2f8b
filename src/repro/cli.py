"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``audit``
    Measure the differential fairness of a labelled CSV file and print a
    plain-text or markdown report (the practitioner workflow of Section 1:
    "measuring and critiquing the fairness properties of real-world AI and
    ML systems").
``audit-stream``
    The same audit over a chunked stream of the file: rows are ingested
    incrementally through :class:`repro.audit.stream.StreamingAuditor`
    (optionally over a sliding window), a per-chunk epsilon trace is
    printed, and the final report describes the last window — the
    continuous-monitoring workflow, demonstrated on a file. Execution
    is pluggable: ``--workers N`` fans shards of the file out to a
    process pool whose workers return only count tensors through its
    result queue (bit-identical output), ``--column-cache PATH``
    parses the CSV once into a mmap-able ``.rccol`` columnar cache so
    re-audits skip parsing entirely, ``--checkpoint PATH`` writes a
    durable ``.rcpk`` checkpoint after every chunk, and ``--resume``
    continues a killed run from that checkpoint.
``merge-checkpoints``
    Audit the union of shard checkpoints produced on different
    machines: counts merge exactly, so the report is bit-identical to
    auditing all the shards' rows in one pass.
``monitor-serve``
    Run the long-running fairness monitoring service: a concurrent
    HTTP JSON API (:mod:`repro.monitor.service`) where deployed
    mechanisms create named monitors and POST decision rows as they
    happen; every batch updates the monitor's epsilon, appends to the
    durable audit-history store, and evaluates declarative alert
    rules. Graceful shutdown checkpoints every monitor through
    rotated ``.rcpk`` generations.
``monitor-status``
    Offline status report over a ``monitor-serve`` data directory:
    per-monitor epsilon (resumed from the newest valid checkpoint
    generation), ingestion counters, epsilon trend, and recent alerts.
    A fleet data directory (``fleet.json`` + ``shard-NN/`` subdirs)
    gets the per-shard + merged fleet report automatically.
``fleet-serve``
    Run the self-healing process-per-shard monitoring fleet: N
    ``monitor-serve`` worker processes (each over its own data
    subdirectory), a front router that hash-assigns monitors to shards
    (:mod:`repro.monitor.routing`), and a supervisor that probes
    ``/healthz``, detects crash/hang/stall, and restarts dead shards
    through WAL replay behind a per-shard circuit breaker
    (:mod:`repro.monitor.fleet`).
``fleet-status``
    Offline per-shard + merged status report over a fleet data
    directory; the merged view combines cumulative monitors' newest
    valid checkpoints across shards via ``merge_checkpoint_files``.
``worked-example``
    Print the paper's Figure 2 Gaussian-threshold example.
``simpsons``
    Print the paper's Table 1 Simpson's-paradox example.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.exceptions import ReproError

__all__ = ["main", "build_parser"]

_TOPOLOGIES_EPILOG = """\
Deployment topologies:
  one process      audit-stream data.csv --protected a,b --outcome y
                   (add --window W for a sliding window of the last W rows)
  process pool     audit-stream data.csv ... --workers 4
                   byte-range shards of the file are counted by a
                   persistent pool of worker processes; only per-chunk
                   count tensors come back, through the pool's result
                   queue, while the coordinator merges ahead of the
                   stream; output is byte-identical to the serial run
                   (cumulative audits only)
  warm re-audits   audit-stream data.csv ... --column-cache data.rccol
                   first run parses the CSV once into a packed columnar
                   cache (factorised level tables + mmap-able int32
                   codes, CRC-validated, fingerprinted against the
                   source); every later audit of the unchanged file
                   skips CSV parsing and reads columns by mmap slice —
                   combines with --workers, --window, and --checkpoint,
                   and a stale or corrupt cache fails loudly, never
                   silently audits old rows
  crash-resume     audit-stream data.csv ... --checkpoint audit.rcpk
                   then, after a crash:  ... --checkpoint audit.rcpk --resume
  many machines    run audit-stream per shard with --checkpoint, copy the
                   .rcpk files anywhere, then:
                   merge-checkpoints shard0.rcpk shard1.rcpk ...

Monitoring service:
  serve            monitor-serve --data-dir ./monitoring
                   then create monitors and stream rows over HTTP:
                   POST /monitors            {"name": "hiring", "protected":
                                              ["gender","race"], "outcome":
                                              "hired", "window": 10000,
                                              "rules": [{"type":
                                              "epsilon_threshold",
                                              "threshold": 0.22}]}
                   POST /monitors/hiring/observe   {"rows": [[...], ...]}
                   GET  /monitors/hiring/report|history|alerts, /healthz
  inspect          monitor-status --data-dir ./monitoring [--markdown]
                   (offline: resumes each monitor from its newest valid
                   checkpoint generation and joins in the alert history)
  wal              wal-inspect --data-dir ./monitoring [--json]
                   (read-only: per-monitor write-ahead-log segments,
                   sequence numbers, and torn-tail bytes)

Sharded fleet (process-per-shard):
  serve            fleet-serve --data-dir ./fleet --shards 4
                   one router process + 4 supervised monitor-serve
                   workers; monitors are hash-assigned to shards by
                   name, and the same HTTP API is served on the router
  inspect          fleet-status --data-dir ./fleet [--markdown]
                   wal-inspect / monitor-status also accept the fleet
                   layout and report per-shard + merged views

Durability contract (the WAL ack rule):
  Every observe batch is fsynced to the monitor's write-ahead log under
  wal/<name>/ BEFORE it is applied; a 200 response means the batch is on
  disk and will survive any crash. 429 (queue full) and 503 (WAL
  degraded) mean the batch was NOT accepted and is safe to retry; both
  carry Retry-After. A 500 with "indeterminate": true means a failed
  fsync could not be rolled back: the batch MAY still be durable and
  replayed after a crash, so do not retry it blindly (MonitorClient
  never does). On restart the service replays exactly the WAL
  suffix past each monitor's newest valid checkpoint, so no
  acknowledged batch is lost and none is double-counted.

Crash-recovery runbook:
  1. repro wal-inspect --data-dir DIR       # what would be replayed?
     (torn_bytes > 0 on the newest segment is normal after a kill; it
     is the unacknowledged tail and is truncated on the next open)
  2. repro monitor-serve --data-dir DIR     # replays the WAL, serves
  3. GET /healthz                           # wal_replay_lag == 0 and
     last_checkpoint_age small => durably caught up
  A monitor whose shutdown checkpoint failed is logged to stderr and
  the process exits nonzero; its WAL still holds every acked batch, so
  the next start recovers it by replay.

Metric registry:
  Every audit and audit-stream report carries a per-subset table of all
  registered fairness metrics, computed from the same count lattice as
  the epsilon sweep. Built-ins:
    demographic_parity_difference   max pairwise gap in P(pos | group)
    demographic_parity_ratio        min/max rate ratio (EEOC 80% rule)
    demographic_parity_epsilon      max |log ratio|, both outcomes
    subgroup_fairness               Kearns et al. worst mass-weighted
                                    parity violation
    worst_case_gap / worst_case_ratio
                                    Ghosh et al. 2021 worst-case
                                    comparisons over every outcome
    alpha_intersectional            Maheshwari et al. 2023
                                    leveling-down-resistant measure
  Register your own (it appears in every sweep, stream, and rule):
    from repro.core import FairnessMetric, register_metric
    register_metric(FairnessMetric(name=..., kernel=..., description=...))
  Alert on any of them via a metric_threshold rule, e.g.
    {"type": "metric_threshold", "metric": "demographic_parity_ratio",
     "threshold": 0.8, "direction": "below"}

Observability:
  metrics     GET /metrics on monitor-serve and on the fleet router
              serves the Prometheus text exposition format (and
              /metrics.json the mergeable registry state). The router
              fans out to every shard registry and tree-merges them:
              fleet counters are bit-exact sums of the shard counters,
              and repro_fleet_shard_up{shard="NN"} marks shards whose
              metrics are missing from the totals (also annotated as
              comment lines).
  offline     metrics-snapshot DATA_DIR scans a service or fleet data
              directory without a running server and prints the same
              Prometheus text: WAL segment/record/torn-byte gauges,
              history-store totals, and scan timings.
  latency     GET /healthz carries latency-band summaries (p50/p95/p99
              bucket upper bounds) for observe, WAL append, and fsync.
  tracing     audit-stream ... --trace-out trace.json records nested
              ingest spans (parse/decode/merge per chunk) and writes a
              Chrome trace-event JSON file on success; open it in
              chrome://tracing or https://ui.perfetto.dev
  catalogue   the "Observability & runbook" section of ROADMAP.md lists
              every metric name and the trace-file format.

Fleet crash semantics (see also: fleet-serve --help):
  A shard crash degrades only that shard's monitors: the router answers
  503 + Retry-After for them while every other shard keeps serving.
  The supervisor restarts the dead shard (WAL replay restores every
  acked batch) behind a per-shard circuit breaker: open (down, backoff
  doubling per consecutive failure), half-open (restarted, earning
  trust probe by probe), closed (healthy). Clients that retry 503s —
  MonitorClient does, with decorrelated jitter — converge with zero
  acked-batch loss; send a batch_id with each observe to make retries
  that cross a crash exactly-once.
"""

_FLEET_EPILOG = """\
How the fleet heals:
  crash     the supervisor sees the worker exit, opens the shard's
            breaker, and restarts it after an exponential backoff
            (--restart-backoff, doubling per consecutive failure up to
            --restart-backoff-cap). The new worker replays its WAL, so
            every acknowledged batch survives.
  hang      --failure-threshold consecutive /healthz probe failures
            (timeout --probe-timeout) SIGKILL the wedged worker and
            restart it the same way.
  stall     with --max-replay-lag N armed, a shard whose WAL replay lag
            sits at or above N batches without shrinking for
            --stall-probes consecutive probes is judged wedged and
            restarted.
  traffic   while a shard is down, the router fast-fails ONLY that
            shard's monitors with 503 + Retry-After (the breaker's
            next-restart estimate); other shards are untouched.
            MonitorClient retries 503 and refused/reset connections
            with decorrelated jitter, so callers converge unchanged.
  trust     a restarted shard is half-open until --recovery-probes
            consecutive healthy probes, then closed (backoff resets).

Status:
  GET /healthz on the router reports per-shard pid, generation,
  breaker state, applied_seq, and WAL replay lag; fleet-status renders
  the offline per-shard + merged view from the shard data dirs.

Exactly-once ingestion under retries:
  include a client-unique "batch_id" in each observe body. A crash can
  lose the ack of a batch that was already durably applied; the retry
  is then answered with duplicate: true instead of double-counting.
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Differential fairness measurements (Foulds & Pan).",
        epilog=_TOPOLOGIES_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    audit = commands.add_parser(
        "audit", help="audit a labelled CSV file for differential fairness"
    )
    audit.add_argument("csv_path", help="path to a CSV file with a header row")
    audit.add_argument(
        "--protected",
        required=True,
        help="comma-separated protected attribute columns",
    )
    audit.add_argument("--outcome", required=True, help="the outcome column")
    audit.add_argument(
        "--alpha",
        type=float,
        default=None,
        help="Dirichlet smoothing concentration (Eq. 7); omit for Eq. 6",
    )
    audit.add_argument(
        "--posterior-samples",
        type=int,
        default=0,
        help="add a posterior credible summary of epsilon with N draws",
    )
    audit.add_argument(
        "--markdown",
        action="store_true",
        help="emit a markdown report instead of plain text",
    )

    stream = commands.add_parser(
        "audit-stream",
        help="audit a labelled CSV file incrementally (chunked, windowed)",
    )
    stream.add_argument("csv_path", help="path to a CSV file with a header row")
    stream.add_argument(
        "--protected",
        required=True,
        help="comma-separated protected attribute columns",
    )
    stream.add_argument("--outcome", required=True, help="the outcome column")
    stream.add_argument(
        "--alpha",
        type=float,
        default=None,
        help="Dirichlet smoothing concentration (Eq. 7); omit for Eq. 6",
    )
    stream.add_argument(
        "--posterior-samples",
        type=int,
        default=0,
        help="add a posterior credible summary of epsilon with N draws",
    )
    stream.add_argument(
        "--window",
        type=int,
        default=0,
        help="sliding window size in rows (0 = cumulative, the default)",
    )
    stream.add_argument(
        "--chunk-rows",
        type=int,
        default=4096,
        help="rows ingested per chunk (default 4096)",
    )
    stream.add_argument(
        "--markdown",
        action="store_true",
        help="emit a markdown report instead of plain text",
    )
    stream.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for sharded ingestion (1 = serial, the "
        "default; >1 requires a cumulative audit, i.e. no --window)",
    )
    stream.add_argument(
        "--column-cache",
        default=None,
        metavar="PATH",
        help="columnar binary cache (.rccol) for the CSV: built on "
        "first use, validated against the source's size/mtime/header "
        "on every run, and read by mmap slice afterwards so re-audits "
        "skip CSV parsing; honoured by serial and --workers ingestion "
        "alike",
    )
    stream.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="write a durable .rcpk checkpoint here after every chunk",
    )
    stream.add_argument(
        "--checkpoint-keep",
        type=int,
        default=0,
        metavar="N",
        help="rotate N retained checkpoint generations (PATH.1..PATH.N); "
        "--resume then falls back to the newest valid generation "
        "(default 0 = single file, no rotation)",
    )
    stream.add_argument(
        "--resume",
        action="store_true",
        help="restore --checkpoint and continue the stream from where "
        "the checkpointed run stopped",
    )
    stream.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="record ingest trace spans and write PATH as a Chrome "
        "trace-event JSON file on success (open in chrome://tracing or "
        "Perfetto); while the run is live the spans stream to "
        "PATH.jsonl, one JSON event per line",
    )

    merge = commands.add_parser(
        "merge-checkpoints",
        help="audit the merged counts of shard .rcpk checkpoint files",
    )
    merge.add_argument(
        "checkpoints",
        nargs="+",
        metavar="RCPK",
        help="checkpoint files produced by audit-stream --checkpoint (or "
        "repro.engine.checkpoint.save_contingency), possibly on "
        "different machines",
    )
    merge.add_argument(
        "--alpha",
        type=float,
        default=None,
        help="Dirichlet smoothing concentration (Eq. 7); omit for Eq. 6",
    )
    merge.add_argument(
        "--posterior-samples",
        type=int,
        default=0,
        help="add a posterior credible summary of epsilon with N draws",
    )
    merge.add_argument(
        "--markdown",
        action="store_true",
        help="emit a markdown report instead of plain text",
    )

    serve = commands.add_parser(
        "monitor-serve",
        help="run the fairness monitoring service (concurrent HTTP JSON API)",
    )
    serve.add_argument(
        "--data-dir",
        required=True,
        help="directory for monitor configs, checkpoints, and history",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8316,
        help="bind port (default 8316; 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--checkpoint-keep",
        type=int,
        default=2,
        help="retained checkpoint generations per monitor (default 2)",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        help="also checkpoint a monitor every N ingested batches "
        "(default 0 = only on graceful shutdown)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=0,
        help="max in-flight observe requests per monitor before the "
        "service answers 429 + Retry-After (default 0 = unbounded)",
    )
    serve.add_argument(
        "--wal-dir",
        default=None,
        help="write-ahead-log directory (default <data-dir>/wal); every "
        "observe batch is fsynced here before it is applied",
    )
    serve.add_argument(
        "--no-wal",
        action="store_true",
        help="disable the write-ahead log (acked batches newer than the "
        "last checkpoint are lost on a crash)",
    )
    serve.add_argument(
        "--verbose",
        action="store_true",
        help="log every HTTP request to stderr",
    )
    serve.add_argument(
        "--label",
        default=None,
        help="operator-facing service label surfaced in /healthz "
        "(the fleet supervisor labels workers shard-NN)",
    )

    fleet = commands.add_parser(
        "fleet-serve",
        help="run a self-healing process-per-shard monitoring fleet "
        "(router + supervised monitor-serve workers)",
        epilog=_FLEET_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    fleet.add_argument(
        "--data-dir",
        required=True,
        help="fleet directory; each shard keeps its registry, WAL, and "
        "history under shard-NN/ inside it",
    )
    fleet.add_argument(
        "--shards",
        type=int,
        default=None,
        help="number of shard worker processes (required on first use; "
        "recorded in fleet.json and enforced afterwards, because the "
        "monitor-name hash routing depends on it)",
    )
    fleet.add_argument(
        "--host",
        default="127.0.0.1",
        help="router bind address (default 127.0.0.1; shard workers "
        "always bind loopback)",
    )
    fleet.add_argument(
        "--port",
        type=int,
        default=8317,
        help="router bind port (default 8317; 0 picks an ephemeral port)",
    )
    fleet.add_argument(
        "--checkpoint-every",
        type=int,
        default=64,
        help="each shard checkpoints a monitor every N ingested batches "
        "(default 64; 0 = only on graceful shutdown)",
    )
    fleet.add_argument(
        "--queue-depth",
        type=int,
        default=0,
        help="per-monitor in-flight observe bound on each shard "
        "(default 0 = unbounded)",
    )
    fleet.add_argument(
        "--probe-interval",
        type=float,
        default=1.0,
        help="seconds between /healthz probes per shard (default 1)",
    )
    fleet.add_argument(
        "--probe-timeout",
        type=float,
        default=5.0,
        help="per-probe timeout in seconds (default 5)",
    )
    fleet.add_argument(
        "--failure-threshold",
        type=int,
        default=3,
        help="consecutive probe failures before a shard is SIGKILLed "
        "and restarted (default 3)",
    )
    fleet.add_argument(
        "--recovery-probes",
        type=int,
        default=2,
        help="consecutive healthy probes before a restarted shard's "
        "breaker closes (default 2)",
    )
    fleet.add_argument(
        "--restart-backoff",
        type=float,
        default=0.5,
        help="base restart delay in seconds, doubled per consecutive "
        "failure (default 0.5)",
    )
    fleet.add_argument(
        "--restart-backoff-cap",
        type=float,
        default=30.0,
        help="maximum restart delay in seconds (default 30)",
    )
    fleet.add_argument(
        "--max-replay-lag",
        type=int,
        default=None,
        help="restart a shard whose WAL replay lag sits at or above N "
        "batches without shrinking (default: disabled)",
    )
    fleet.add_argument(
        "--stall-probes",
        type=int,
        default=5,
        help="consecutive stalled probes before a --max-replay-lag "
        "restart (default 5)",
    )
    fleet.add_argument(
        "--verbose",
        action="store_true",
        help="log every routed HTTP request to stderr",
    )

    fleet_status = commands.add_parser(
        "fleet-status",
        help="offline per-shard + merged status over a fleet data dir",
    )
    fleet_status.add_argument(
        "--data-dir",
        required=True,
        help="the fleet data directory (fleet.json + shard-NN/ subdirs)",
    )
    fleet_status.add_argument(
        "--trend-window",
        type=int,
        default=None,
        help="summarise each epsilon trend over only the last N batches",
    )
    fleet_status.add_argument(
        "--markdown",
        action="store_true",
        help="emit a markdown report instead of plain text",
    )

    wal = commands.add_parser(
        "wal-inspect",
        help="read-only report over a service's write-ahead logs",
    )
    wal.add_argument(
        "--data-dir",
        required=True,
        help="the monitoring service's data directory (or a WAL "
        "directory holding wal-NNNNNNNN.seg segments directly)",
    )
    wal.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable summary instead of plain text",
    )

    metrics_cmd = commands.add_parser(
        "metrics-snapshot",
        help="offline Prometheus metrics page scanned from a data "
        "directory (no running server needed)",
    )
    metrics_cmd.add_argument(
        "data_dir",
        help="a monitor-serve data directory or a fleet directory "
        "(per-shard scan registries are tree-merged)",
    )

    status = commands.add_parser(
        "monitor-status",
        help="offline status report over a monitor-serve data directory",
    )
    status.add_argument(
        "--data-dir",
        required=True,
        help="the monitoring service's data directory",
    )
    status.add_argument(
        "--trend-window",
        type=int,
        default=None,
        help="summarise the epsilon trend over only the last N batches",
    )
    status.add_argument(
        "--markdown",
        action="store_true",
        help="emit a markdown report instead of plain text",
    )

    commands.add_parser(
        "worked-example", help="print the paper's Figure 2 worked example"
    )
    commands.add_parser(
        "simpsons", help="print the paper's Table 1 Simpson's paradox example"
    )
    return parser


def _run_audit(args: argparse.Namespace, out) -> int:
    from repro.audit.auditor import FairnessAuditor
    from repro.audit.report import markdown_report
    from repro.tabular.csv_io import read_csv

    protected = [name.strip() for name in args.protected.split(",") if name.strip()]
    if not protected:
        print("error: --protected must name at least one column", file=sys.stderr)
        return 2
    table = read_csv(args.csv_path)
    if args.markdown:
        out.write(
            markdown_report(
                table,
                protected=protected,
                outcome=args.outcome,
                estimator=args.alpha,
                posterior_samples=args.posterior_samples,
                dataset_name=args.csv_path,
            )
        )
        out.write("\n")
        return 0
    auditor = FairnessAuditor(
        protected=protected,
        outcome=args.outcome,
        estimator=args.alpha,
        posterior_samples=args.posterior_samples,
    )
    audit = auditor.audit_dataset(table)
    out.write(audit.to_text())
    out.write("\n")
    return 0


def _run_audit_stream(args: argparse.Namespace, out) -> int:
    from repro.audit.report import render_dataset_report
    from repro.audit.stream import StreamingAuditor
    from repro.engine.backends import CsvSource, ProcessPoolBackend, SerialBackend

    protected = [name.strip() for name in args.protected.split(",") if name.strip()]
    if not protected:
        print("error: --protected must name at least one column", file=sys.stderr)
        return 2
    if args.window < 0:
        print("error: --window must be >= 0", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    # Reject the workers/window combination up front, in either flag
    # order: letting it through would only fail later, deep inside the
    # engine, with an error about backend ordering contracts that does
    # not name the flags the user typed.
    if args.workers > 1 and args.window:
        print(
            "error: --workers cannot be combined with --window: a sliding "
            "window needs row order, which sharded (multi-worker) ingestion "
            "does not preserve; drop --window for a cumulative audit or "
            "use --workers 1",
            file=sys.stderr,
        )
        return 2
    if args.checkpoint_keep < 0:
        print("error: --checkpoint-keep must be >= 0", file=sys.stderr)
        return 2
    if args.checkpoint_keep and args.checkpoint is None:
        print(
            "error: --checkpoint-keep requires --checkpoint PATH",
            file=sys.stderr,
        )
        return 2
    if args.resume and args.checkpoint is None:
        print("error: --resume requires --checkpoint PATH", file=sys.stderr)
        return 2
    if args.resume and args.workers > 1:
        print(
            "error: --resume requires serial ingestion (--workers 1)",
            file=sys.stderr,
        )
        return 2
    auditor = StreamingAuditor(
        protected=protected,
        outcome=args.outcome,
        estimator=args.alpha,
        posterior_samples=args.posterior_samples,
        window=args.window or None,
    )
    source = CsvSource(
        args.csv_path,
        chunk_rows=args.chunk_rows,
        columns=(*protected, args.outcome),
        column_cache=args.column_cache,
    )
    backend = (
        SerialBackend()
        if args.workers == 1
        else ProcessPoolBackend(args.workers)
    )

    def trace(progress) -> None:
        held = (
            f"total {auditor.n_window_rows}"
            if auditor.window is None
            else f"window {auditor.n_window_rows}/{auditor.window}"
        )
        out.write(
            f"chunk {progress.index}: +{progress.n_rows} rows ({held}) "
            f"epsilon = {progress.epsilon:.4f}\n"
        )

    tracer = None
    trace_sink = None
    if args.trace_out is not None:
        from repro.obs.trace import TraceSink, Tracer

        trace_sink = TraceSink(f"{args.trace_out}.jsonl")
        tracer = Tracer(trace_sink)
    try:
        with backend:
            auditor.ingest(
                source,
                backend=backend,
                checkpoint_path=args.checkpoint,
                checkpoint_keep=args.checkpoint_keep,
                resume=args.resume,
                on_chunk=trace,
                tracer=tracer,
            )
    finally:
        # A crashed run leaves the JSON-lines prefix behind for
        # post-mortem reading; only a completed run is converted.
        if trace_sink is not None:
            trace_sink.close()
    if args.trace_out is not None:
        from repro.obs.trace import write_chrome_trace

        events_path = Path(f"{args.trace_out}.jsonl")
        write_chrome_trace(events_path, args.trace_out)
        events_path.unlink()
        out.write(
            f"trace: wrote {trace_sink.written} span(s) to "
            f"{args.trace_out}\n"
        )
    out.write("\n")
    audit = auditor.audit()
    if args.markdown:
        scope = (
            "cumulative" if auditor.window is None
            else f"last {auditor.window} rows"
        )
        out.write(
            render_dataset_report(
                audit,
                title=f"Differential fairness report ({scope})",
                dataset_name=args.csv_path,
                n_rows=auditor.n_window_rows,
            )
        )
    else:
        out.write(audit.to_text())
        out.write("\n")
    return 0


def _run_merge_checkpoints(args: argparse.Namespace, out) -> int:
    from repro.audit.auditor import FairnessAuditor
    from repro.audit.report import render_dataset_report
    from repro.engine.checkpoint import merge_checkpoint_files

    merged = merge_checkpoint_files(args.checkpoints)
    auditor = FairnessAuditor(
        protected=merged.factor_names,
        outcome=merged.outcome_name,
        estimator=args.alpha,
        posterior_samples=args.posterior_samples,
    )
    audit = auditor.audit_contingency(merged.snapshot())
    if args.markdown:
        out.write(
            render_dataset_report(
                audit,
                title="Differential fairness report (merged checkpoints)",
                dataset_name=", ".join(args.checkpoints),
                n_rows=merged.n_rows,
            )
        )
    else:
        out.write(
            f"merged {len(args.checkpoints)} checkpoints: "
            f"{merged.n_rows} rows, protected "
            f"{', '.join(merged.factor_names)} x {merged.outcome_name}\n\n"
        )
        out.write(audit.to_text())
        out.write("\n")
    return 0


def _run_monitor_serve(args: argparse.Namespace, out) -> int:
    import signal
    import threading

    from repro.monitor.registry import MonitorRegistry
    from repro.monitor.service import MonitorService

    if args.checkpoint_keep < 0:
        print("error: --checkpoint-keep must be >= 0", file=sys.stderr)
        return 2
    if args.checkpoint_every < 0:
        print("error: --checkpoint-every must be >= 0", file=sys.stderr)
        return 2
    if args.queue_depth < 0:
        print("error: --queue-depth must be >= 0", file=sys.stderr)
        return 2
    # Bind the socket and print the banner BEFORE opening the registry:
    # MonitorRegistry.open replays each monitor's WAL, which can take a
    # long time after a crash, and a supervisor needs the bound port
    # (parsed from the first stdout line) to probe the worker while it
    # replays. Until the registry attaches, the service answers
    # /healthz with status "starting" and everything else with a
    # retryable 503.
    service = MonitorService(
        None,
        host=args.host,
        port=args.port,
        checkpoint_every=args.checkpoint_every,
        queue_depth=args.queue_depth,
        verbose=args.verbose,
        label=args.label,
    )
    # The serve loop runs on a daemon thread; the main thread waits for a
    # signal so SIGINT/SIGTERM handlers never deadlock against
    # serve_forever (shutdown() must not be called from the serving
    # thread itself).
    stop = threading.Event()
    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        previous[signum] = signal.signal(signum, lambda *_: stop.set())
    try:
        service.start()
        out.write(
            f"monitor-serve: listening on {service.url} "
            f"(data dir {args.data_dir})\n"
        )
        if hasattr(out, "flush"):
            out.flush()
        try:
            registry = MonitorRegistry.open(
                args.data_dir,
                checkpoint_keep=args.checkpoint_keep,
                wal_enabled=not args.no_wal,
                wal_dir=args.wal_dir,
            )
        except BaseException:
            service.shutdown()
            raise
        service.attach_registry(registry)
        resumed = registry.names()
        if resumed:
            out.write(
                f"monitor-serve: resumed {len(resumed)} monitor(s): "
                f"{', '.join(resumed)}\n"
            )
            if hasattr(out, "flush"):
                out.flush()
        stop.wait()
        checkpointed = service.shutdown()
        out.write(
            f"monitor-serve: shut down cleanly; checkpointed "
            f"{checkpointed} monitor(s)\n"
        )
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    if service.checkpoint_failures:
        # The failed monitors were logged to stderr by shutdown(); their
        # state is still recoverable from the WAL on the next start, but
        # the exit code must reflect that the final checkpoint was not
        # clean.
        print(
            "error: shutdown checkpoint failed for "
            f"{len(service.checkpoint_failures)} monitor(s): "
            f"{', '.join(sorted(service.checkpoint_failures))}",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_fleet_serve(args: argparse.Namespace, out) -> int:
    import signal
    import threading

    from repro.monitor.fleet import FleetSupervisor, SupervisorPolicy
    from repro.monitor.routing import FleetRouter

    if args.checkpoint_every < 0:
        print("error: --checkpoint-every must be >= 0", file=sys.stderr)
        return 2
    if args.queue_depth < 0:
        print("error: --queue-depth must be >= 0", file=sys.stderr)
        return 2
    if args.shards is not None and args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    policy = SupervisorPolicy(
        probe_interval=args.probe_interval,
        probe_timeout=args.probe_timeout,
        failure_threshold=args.failure_threshold,
        recovery_probes=args.recovery_probes,
        backoff_base=args.restart_backoff,
        backoff_cap=args.restart_backoff_cap,
        max_replay_lag=args.max_replay_lag,
        stall_probes=args.stall_probes,
    )
    serve_args: list[str] = []
    if args.checkpoint_every:
        serve_args += ["--checkpoint-every", str(args.checkpoint_every)]
    if args.queue_depth:
        serve_args += ["--queue-depth", str(args.queue_depth)]

    def on_event(shard: int, message: str) -> None:
        print(f"fleet-serve: shard-{shard:02d} {message}", file=sys.stderr)

    supervisor = FleetSupervisor(
        args.data_dir,
        args.shards,
        serve_args=tuple(serve_args),
        policy=policy,
        on_event=on_event,
    )
    stop = threading.Event()
    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        previous[signum] = signal.signal(signum, lambda *_: stop.set())
    router = None
    try:
        supervisor.start()
        router = FleetRouter(
            supervisor,
            host=args.host,
            port=args.port,
            verbose=args.verbose,
        )
        router.start()
        out.write(
            f"fleet-serve: router listening on {router.url} "
            f"({supervisor.n_shards} shard(s), data dir {args.data_dir})\n"
        )
        for status in supervisor.fleet_health()["shards"]:
            out.write(
                f"fleet-serve: shard-{status['shard']:02d} pid "
                f"{status['pid']} at {status['url']} "
                f"(generation {status['generation']})\n"
            )
        if hasattr(out, "flush"):
            out.flush()
        stop.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        if router is not None:
            router.shutdown()
        supervisor.stop()
    out.write("fleet-serve: shut down cleanly\n")
    return 0


def _run_fleet_status(args: argparse.Namespace, out) -> int:
    from repro.monitor.fleet import render_fleet_status

    if args.trend_window is not None and args.trend_window < 1:
        print("error: --trend-window must be >= 1", file=sys.stderr)
        return 2
    out.write(
        render_fleet_status(
            args.data_dir,
            markdown=args.markdown,
            trend_window=args.trend_window,
        )
    )
    out.write("\n")
    return 0


def _run_wal_inspect(args: argparse.Namespace, out) -> int:
    import json as _json

    from repro.exceptions import StoreError
    from repro.monitor.fleet import fleet_shard_count, shard_dir
    from repro.monitor.registry import WAL_DIR
    from repro.monitor.wal import inspect_wal

    data_dir = Path(args.data_dir)
    if not data_dir.is_dir():
        print(f"error: no such directory: {data_dir}", file=sys.stderr)
        return 2
    # Accept a fleet data dir (shard-NN/wal/<name>), a service data dir
    # (WAL dirs live under wal/<name>), a wal/ parent, or a single
    # monitor's WAL dir given directly.
    fleet_shards = (
        None
        if list(data_dir.glob("wal-*.seg"))
        else fleet_shard_count(data_dir)
    )
    if fleet_shards is not None:
        wal_dirs = {}
        for index in range(fleet_shards):
            wal_root = shard_dir(data_dir, index) / WAL_DIR
            if not wal_root.is_dir():
                continue
            for child in sorted(wal_root.iterdir()):
                if child.is_dir() and list(child.glob("wal-*.seg")):
                    wal_dirs[f"shard-{index:02d}/{child.name}"] = child
    elif list(data_dir.glob("wal-*.seg")):
        wal_dirs = {data_dir.name: data_dir}
    else:
        wal_root = data_dir / WAL_DIR if (data_dir / WAL_DIR).is_dir() else data_dir
        wal_dirs = {
            child.name: child
            for child in sorted(wal_root.iterdir())
            if child.is_dir() and list(child.glob("wal-*.seg"))
        }
    reports = {}
    for name, wal_dir in sorted(wal_dirs.items()):
        try:
            reports[name] = inspect_wal(wal_dir)
        except StoreError as error:
            print(f"error: {name}: {error}", file=sys.stderr)
            return 1
    if args.json:
        out.write(_json.dumps(reports, indent=2, sort_keys=True))
        out.write("\n")
        return 0
    if not reports:
        out.write(f"wal-inspect: no WAL segments under {data_dir}\n")
        return 0
    for name, report in reports.items():
        out.write(
            f"{name}: {report['records']} record(s), {report['rows']} row(s), "
            f"seq {report['first_seq']}..{report['last_seq']} "
            f"({report['n_segments']} segment(s), scanned in "
            f"{report['scan_seconds']:.3f}s)\n"
        )
        for segment in report["segments"]:
            torn = (
                f", torn tail {segment['torn_bytes']} byte(s)"
                if segment["torn_bytes"]
                else ""
            )
            out.write(
                f"  {segment['segment']}: {segment['records']} record(s), "
                f"{segment['bytes']} byte(s), seq "
                f"{segment['first_seq']}..{segment['last_seq']}{torn}\n"
            )
    if fleet_shards is not None:
        total_records = sum(report["records"] for report in reports.values())
        total_rows = sum(report["rows"] for report in reports.values())
        total_segments = sum(
            report["n_segments"] for report in reports.values()
        )
        total_scan = sum(
            report["scan_seconds"] for report in reports.values()
        )
        out.write(
            f"fleet totals: {fleet_shards} shard(s), {len(reports)} WAL(s), "
            f"{total_records} record(s), {total_rows} row(s), "
            f"{total_segments} segment(s), scanned in {total_scan:.3f}s\n"
        )
    return 0


def _run_metrics_snapshot(args: argparse.Namespace, out) -> int:
    from repro.monitor.fleet import fleet_shard_count, shard_dir
    from repro.monitor.registry import WAL_DIR
    from repro.monitor.service import status_snapshot
    from repro.monitor.wal import inspect_wal
    from repro.obs.metrics import MetricsRegistry

    data_dir = Path(args.data_dir)
    if not data_dir.is_dir():
        print(f"error: no such directory: {data_dir}", file=sys.stderr)
        return 2
    shards = fleet_shard_count(data_dir)
    directories = (
        [data_dir]
        if shards is None
        else [shard_dir(data_dir, index) for index in range(shards)]
    )
    # One scan registry per directory, tree-merged at the end — the
    # same merge algebra the fleet router uses for live /metrics.
    registries = []
    for directory in directories:
        if not directory.is_dir():
            continue
        registry = MetricsRegistry()
        status_snapshot(directory, metrics=registry)
        wal_root = directory / WAL_DIR
        if wal_root.is_dir():
            for child in sorted(wal_root.iterdir()):
                if child.is_dir() and list(child.glob("wal-*.seg")):
                    inspect_wal(
                        child,
                        metrics=registry,
                        metric_labels={"monitor": child.name},
                    )
        registries.append(registry)
    merged = MetricsRegistry()
    for registry in registries:
        merged.merge(registry)
    out.write(merged.render_prometheus())
    return 0


def _run_monitor_status(args: argparse.Namespace, out) -> int:
    from repro.monitor.fleet import fleet_shard_count, render_fleet_status
    from repro.monitor.service import render_status

    if args.trend_window is not None and args.trend_window < 1:
        print("error: --trend-window must be >= 1", file=sys.stderr)
        return 2
    if Path(args.data_dir).is_dir() and fleet_shard_count(args.data_dir) is not None:
        out.write(
            render_fleet_status(
                args.data_dir,
                markdown=args.markdown,
                trend_window=args.trend_window,
            )
        )
        out.write("\n")
        return 0
    out.write(
        render_status(
            args.data_dir,
            markdown=args.markdown,
            trend_window=args.trend_window,
        )
    )
    out.write("\n")
    return 0


def _run_worked_example(out) -> int:
    from repro.core.analytic import paper_worked_example

    out.write(paper_worked_example().to_text())
    out.write("\n")
    return 0


def _run_simpsons(out) -> int:
    from repro.core.subsets import subset_sweep
    from repro.data.kidney import admissions_contingency

    contingency = admissions_contingency()
    sweep = subset_sweep(contingency)
    out.write(contingency.to_text())
    out.write("\n\n")
    out.write(sweep.to_text())
    out.write(
        f"\n\nTheorem 3.1 bound for the marginals: {sweep.theorem_bound():.4f}\n"
    )
    return 0


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "audit":
            return _run_audit(args, out)
        if args.command == "audit-stream":
            return _run_audit_stream(args, out)
        if args.command == "merge-checkpoints":
            return _run_merge_checkpoints(args, out)
        if args.command == "monitor-serve":
            return _run_monitor_serve(args, out)
        if args.command == "monitor-status":
            return _run_monitor_status(args, out)
        if args.command == "fleet-serve":
            return _run_fleet_serve(args, out)
        if args.command == "fleet-status":
            return _run_fleet_status(args, out)
        if args.command == "wal-inspect":
            return _run_wal_inspect(args, out)
        if args.command == "metrics-snapshot":
            return _run_metrics_snapshot(args, out)
        if args.command == "worked-example":
            return _run_worked_example(out)
        if args.command == "simpsons":
            return _run_simpsons(out)
    except (ReproError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
