"""The metric catalogue: end-to-end metrics and the per-layer ledger map.

Every run reports every end-to-end metric (untraced runs) or every
per-layer metric (traced runs), so the end-to-end names are shared by
the three workloads. ``E2E`` says what each name measures on each
workload; the report also prints the workload's own names
(``ack_p50_ms``, ``cold_audit_s``, ...). ``LAYERS`` maps each layer
metric to the end-to-end metric it should move and on which workload,
so later changes can cite them by name. A layer a workload does not
exercise reports 0 there.
"""

# name: (unit, better, {workload: meaning})
E2E = {
    "rows_per_s": ("rows/s", "higher", {
        "ingest_bulk": "acked rows per second (median of 1 s windows)",
        "ingest_fleet": "acked rows per second (median of 1 s windows)",
        "audit_csv": "rows / cold_audit_s (cold serial audit_csv)",
    }),
    "p50_ms": ("ms", "lower", {
        "ingest_bulk": "ack_p50_ms: MonitorClient.observe call to return",
        "ingest_fleet": "ack_p50_ms: MonitorClient.observe call to return",
        "audit_csv": "warm_audit_s: warm re-audit over the .rccol cache",
    }),
    "p99_ms": ("ms", "lower", {
        "ingest_bulk": "ack_p99_ms (>= 1000 acks, so >= 10 beyond it)",
        "ingest_fleet": "ack_p99_ms (>= 1000 acks; every 64th carries a checkpoint)",
        "audit_csv": "pool_audit_s: cold audit, fresh ProcessPoolBackend(cpu_count)",
    }),
    "recovery_s": ("s", "lower", {
        "ingest_bulk": "SIGKILL to /healthz ok after replaying 360k WAL rows",
        "ingest_fleet": "SIGKILL of router and shard to /healthz ok after restart",
        "audit_csv": "fresh interpreter re-auditing from the .rccol cache",
    }),
    "setup_s": ("s", "lower", {
        "ingest_bulk": "spawn to /healthz ok and the monitor created",
        "ingest_fleet": "spawn to /healthz ok and the monitor created",
        "audit_csv": ".rccol cache build",
    }),
    "peak_rss_mb": ("MB", "lower", {
        "ingest_bulk": "VmHWM of the monitor-serve process",
        "ingest_fleet": "VmHWM of the shard process",
        "audit_csv": "VmHWM of the auditing process",
    }),
}

# name: (unit, moves, workload, what)
LAYERS = {
    "client.self_ms": ("ms", "p50_ms", "ingest_bulk",
                       "MonitorClient.observe minus the server handler"),
    "client.retries": ("count", "failed_share", "ingest_*",
                       "transport attempts beyond the first, per batch"),
    "routing.self_ms": ("ms", "p50_ms, rows_per_s", "ingest_fleet",
                        "router POST handler (FleetRouter.route) minus the shard handler"),
    "service.self_ms": ("ms", "rows_per_s", "ingest_bulk",
                        "shard POST handler minus Monitor.observe and checkpoint"),
    "registry.self_ms": ("ms", "rows_per_s", "ingest_bulk",
                         "Monitor.observe minus its children"),
    "wal.self_ms": ("ms", "rows_per_s", "ingest_bulk",
                    "WriteAheadLog.append minus fsync (sanitize, encode, CRC, write)"),
    "wal.bytes_per_row": ("bytes", "rows_per_s, recovery_s", "ingest_bulk",
                          "encoded WAL record bytes per row"),
    "wal.fsync_ms": ("ms", "p50_ms", "ingest_fleet", "os.fsync under WAL appends"),
    "wal.fsyncs_per_batch": ("count", "p50_ms", "ingest_fleet", "WAL fsyncs per batch"),
    "streaming.self_ms": ("ms", "rows_per_s", "ingest_bulk",
                          "StreamingContingency.update plus retract"),
    "estimate.self_ms": ("ms", "rows_per_s", "ingest_fleet", "StreamingAuditor.epsilon"),
    "rules.self_ms": ("ms", "rows_per_s", "ingest_fleet", "every AlertRule.evaluate"),
    "store.self_ms": ("ms", "rows_per_s", "ingest_fleet",
                      "AuditHistoryStore.append, its fsyncs included"),
    "store.records_per_batch": ("count", "rows_per_s", "ingest_fleet",
                                "history records appended per batch"),
    "store.fsyncs_per_batch": ("count", "rows_per_s", "ingest_fleet",
                               "history-store fsyncs per batch"),
    "checkpoint.ms": ("ms", "p99_ms", "ingest_fleet",
                      "Monitor.checkpoint, per checkpoint (0 on ingest_bulk)"),
    "checkpoint.count": ("count", "p99_ms", "ingest_fleet",
                         "checkpoints inside acks in the traced run"),
    "replay.restore_ms": ("ms", "recovery_s", "ingest_bulk", "Monitor.restore_from"),
    "replay.wal_ms": ("ms", "recovery_s", "ingest_bulk", "Monitor.replay_wal"),
    "replay.rows_per_s": ("rows/s", "recovery_s", "ingest_bulk",
                          "WAL rows replayed per second of replay_wal"),
    "csv_io.parse_ms": ("ms", "rows_per_s", "audit_csv",
                        "cold serial build minus update_table"),
    "streaming.count_ms": ("ms", "rows_per_s", "audit_csv",
                           "update_table in the cold serial audit"),
    "streaming.warm_count_ms": ("ms", "p50_ms", "audit_csv",
                                "update_table in the warm audit"),
    "backends.submit_ms": ("ms", "p99_ms", "audit_csv", "pool coordinator: submit"),
    "backends.wait_ms": ("ms", "p99_ms", "audit_csv",
                         "pool coordinator: waiting for worker results"),
    "backends.decode_ms": ("ms", "p99_ms", "audit_csv", "pool coordinator: decode"),
    "backends.merge_ms": ("ms", "p99_ms", "audit_csv", "pool coordinator: merge"),
    "backends.self_ms": ("ms", "p99_ms", "audit_csv",
                         "pool build minus the stages above (pool start-up, planning)"),
    "backends.chunks": ("count", "p99_ms", "audit_csv", "chunks per pool audit"),
    "backends.ring_fallbacks": ("count", "p99_ms", "audit_csv",
                                "chunk states too big for a ring slot, per pool audit"),
    "colcache.build_ms": ("ms", "setup_s", "audit_csv", ".rccol build"),
    "colcache.open_ms": ("ms", "p50_ms", "audit_csv",
                         "warm build minus update_table (open, validate, gather)"),
    "sweep.point_ms": ("ms", "p50_ms", "audit_csv", "subset_sweep, per audit"),
    "sweep.posterior_ms": ("ms", "p50_ms", "audit_csv",
                           "posterior_subset_sweep, per audit"),
    "sweep.metrics_ms": ("ms", "p50_ms", "audit_csv", "metric_subset_sweep, per audit"),
    "unattributed_share": ("share", "-", "all",
                           "traced end-to-end time outside every layer above"),
    "tracing.overhead_share": ("share", "-", "all",
                               "traced minus untraced end-to-end time, over untraced"),
}
