"""Perf bench: the process-pool ingest and the columnar cache.

The execution engine's claim is threefold. *Correctness*: the process
pool (:class:`repro.engine.backends.ProcessPoolBackend`) at every worker
count, and the serial build over a ``.rccol`` column cache, are
**bit-identical** to :class:`SerialBackend`'s parse (same count
integers, same epsilon, same posterior summaries per seed); that part
is asserted unconditionally, on every machine. *Parallel throughput*: CSV parsing
dominates ingestion and parallelises embarrassingly, and the pool's
coordinator keeps a bounded window of tasks in flight, merging the
count tensors workers return through the result queue while later
parts are still being parsed, so K workers on K free cores approach a
K-fold speedup; the acceptance target is **>= 3x at 4 workers** on a
>= 1M-row stream. *Warm re-audits*: once the column cache exists,
re-auditing the unchanged file skips CSV parsing entirely — mmap'd
code arrays straight into the count kernel, in-process whichever
backend asks — with an acceptance target of **>= 10x over the cold
parse**, asserted on every machine (it is an I/O-shape win, not a
core-count win).

The parallel speedup is physical parallelism, so that guard only
asserts the target when the hardware can express it
(``os.cpu_count() >= 4``); below that the measured numbers are still
recorded — honestly — in ``BENCH_parallel.json`` along with the core
count that produced them. The warm-cache guard is never gated.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel.py -q
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.audit.auditor import FairnessAuditor
from repro.engine.backends import (
    ContingencySpec,
    CsvSource,
    ProcessPoolBackend,
    SerialBackend,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RECORD_PATH = REPO_ROOT / "BENCH_parallel.json"

N_ROWS = 1_000_000
WORKER_COUNTS = [2, 4]
TARGET_WORKERS = 4
TARGET_SPEEDUP = 3.0
WARM_CACHE_TARGET_SPEEDUP = 10.0

PROTECTED = ("gender", "race", "nationality")
OUTCOME = "income"
LEVELS = {
    "gender": ["Female", "Male"],
    "race": ["White", "Black", "Asian-Pac-Islander", "Other"],
    "nationality": ["United-States", "Other"],
    "income": ["<=50K", ">50K"],
}

_RESULTS: dict[str, dict] = {}


@pytest.fixture(scope="module")
def million_row_csv(tmp_path_factory):
    """A >= 1M-row synthetic census-like stream written once per run."""
    rng = np.random.default_rng(20260728)
    cells = [
        rng.integers(len(LEVELS[name]), size=N_ROWS) for name in PROTECTED
    ]
    base = 0.15 + 0.1 * cells[0] + 0.05 * cells[1]
    outcome = (rng.random(N_ROWS) < np.clip(base, 0.02, 0.98)).astype(int)
    columns = [
        np.array(LEVELS[name], dtype=object)[codes]
        for name, codes in zip(PROTECTED, cells)
    ]
    columns.append(np.array(LEVELS[OUTCOME], dtype=object)[outcome])
    path = tmp_path_factory.mktemp("parallel") / "stream.csv"
    with path.open("w", encoding="utf-8") as handle:
        handle.write(",".join([*PROTECTED, OUTCOME]) + "\n")
        handle.writelines(
            ",".join(row) + "\n" for row in zip(*columns)
        )
    return path


def _spec() -> ContingencySpec:
    return ContingencySpec(
        PROTECTED,
        OUTCOME,
        tuple(tuple(LEVELS[name]) for name in PROTECTED),
        tuple(LEVELS[OUTCOME]),
    )


def _source(path, cache=None) -> CsvSource:
    return CsvSource(
        str(path),
        columns=(*PROTECTED, OUTCOME),
        column_cache=None if cache is None else str(cache),
    )


def _epsilon(accumulator) -> float:
    auditor = FairnessAuditor(PROTECTED, OUTCOME)
    return auditor.audit_contingency(accumulator.snapshot()).epsilon


def _timed_build(backend, source, spec):
    start = time.perf_counter()
    accumulator = backend.build(source, spec)
    return time.perf_counter() - start, accumulator


def _record(key: str, seconds: float, accumulator, serial_row, **extra):
    """Assert bit-identity against the serial baseline, then record."""
    assert accumulator.n_rows == serial_row["rows"]
    assert np.array_equal(
        accumulator.snapshot().counts, serial_row["_counts"]
    )
    assert _epsilon(accumulator) == serial_row["epsilon"]
    _RESULTS[key] = {
        "seconds": seconds,
        "epsilon": serial_row["epsilon"],
        "rows": accumulator.n_rows,
        "speedup_vs_serial_cold": serial_row["seconds"] / seconds,
        **extra,
    }


@pytest.mark.perf
def test_pool_ingest_is_bit_identical_and_timed(million_row_csv):
    source = _source(million_row_csv)
    spec = _spec()
    serial_seconds, serial = _timed_build(SerialBackend(), source, spec)
    assert serial.n_rows == N_ROWS
    _RESULTS["serial_cold"] = {
        "workers": 1,
        "cache": "cold (CSV parse)",
        "seconds": serial_seconds,
        "epsilon": _epsilon(serial),
        "rows": serial.n_rows,
        "_counts": serial.snapshot().counts,
    }
    serial_row = _RESULTS["serial_cold"]

    # The pool at each worker count.
    for workers in WORKER_COUNTS:
        with ProcessPoolBackend(workers) as backend:
            seconds, pooled = _timed_build(backend, source, spec)
        _record(
            f"pool{workers}_pipelined",
            seconds,
            pooled,
            serial_row,
            workers=workers,
            mode="bounded in-flight window, result-queue transport",
            cache="cold (CSV parse)",
        )


@pytest.mark.perf
def test_column_cache_cold_build_and_warm_reaudit(million_row_csv, tmp_path):
    assert "serial_cold" in _RESULTS, "timed serial ingest did not run"
    serial_row = _RESULTS["serial_cold"]
    spec = _spec()
    cache_path = tmp_path / "stream.rccol"

    # Cold: first cached run pays the parse PLUS the cache write.
    seconds, built = _timed_build(
        SerialBackend(), _source(million_row_csv, cache_path), spec
    )
    assert cache_path.exists()
    _record(
        "serial_cache_cold_build",
        seconds,
        built,
        serial_row,
        workers=1,
        cache="cold (parse + .rccol build)",
    )

    # Warm: every later audit of the unchanged file skips parsing.
    seconds, warmed = _timed_build(
        SerialBackend(), _source(million_row_csv, cache_path), spec
    )
    _record(
        "serial_cache_warm",
        seconds,
        warmed,
        serial_row,
        workers=1,
        cache="warm (mmap .rccol)",
    )


def test_pool_posterior_summaries_match_per_seed(million_row_csv, tmp_path):
    """Posterior audit of the merged counts matches the serial one bitwise."""
    source = CsvSource(
        str(million_row_csv), columns=(*PROTECTED, OUTCOME), chunk_rows=65536
    )
    auditor = FairnessAuditor(PROTECTED, OUTCOME, posterior_samples=50, seed=9)
    serial = auditor.audit_csv(source)
    with ProcessPoolBackend(2) as backend:
        pooled = auditor.audit_csv(source, backend=backend)
    cached = auditor.audit_csv(
        str(million_row_csv), column_cache=tmp_path / "posterior.rccol"
    )
    for candidate in (pooled, cached):
        assert candidate.posterior.mean == serial.posterior.mean
        assert candidate.posterior.quantiles == serial.posterior.quantiles
        assert candidate.to_text() == serial.to_text()


@pytest.mark.perf
def test_zz_speedup_guards_and_record(million_row_csv):
    """Runs last (file order): persist the record, then enforce targets."""
    assert "serial_cold" in _RESULTS, "timed ingest did not run"
    results = {
        key: {k: v for k, v in row.items() if not k.startswith("_")}
        for key, row in sorted(_RESULTS.items())
    }
    record = {
        "benchmark": "bench_parallel",
        "workload": "cumulative contingency ingest of a synthetic census "
        "CSV stream. Modes: SerialBackend (one ordered chunk loop); "
        "ProcessPoolBackend (bounded in-flight window, count tensors "
        "returned through the pool's result queue); and the serial build "
        "over a warm .rccol column cache (mmap'd factorised codes, no CSV "
        "parsing). Bit-identical counts and epsilon asserted "
        "against the serial pass before every timing is recorded.",
        "n_rows": N_ROWS,
        "cpu_count": os.cpu_count(),
        "targets": {
            "parallel": {
                "workers": TARGET_WORKERS,
                "min_speedup": TARGET_SPEEDUP,
                "note": "pool vs cold serial parse; physical "
                "parallelism: asserted only when cpu_count >= target "
                "workers",
            },
            "warm_cache": {
                "min_speedup": WARM_CACHE_TARGET_SPEEDUP,
                "note": "warm-cache serial re-audit vs cold serial parse; "
                "asserted unconditionally on every machine",
            },
        },
        "results": results,
    }
    RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    # Warm-cache guard: ungated. Skipping the parse must pay for itself
    # regardless of core count.
    warm = results["serial_cache_warm"]["speedup_vs_serial_cold"]
    assert warm >= WARM_CACHE_TARGET_SPEEDUP, (
        f"warm-cache re-audit target missed: {warm:.2f}x < "
        f"{WARM_CACHE_TARGET_SPEEDUP}x over the cold parse"
    )

    # Parallel guard: hardware-gated.
    cores = os.cpu_count() or 1
    if cores < TARGET_WORKERS:
        pytest.skip(
            f"parallel speedup target needs >= {TARGET_WORKERS} cores, "
            f"machine has {cores}; bit-identity and the warm-cache target "
            "were still asserted and the measured timings were recorded"
        )
    speedup = results[f"pool{TARGET_WORKERS}_pipelined"][
        "speedup_vs_serial_cold"
    ]
    assert speedup >= TARGET_SPEEDUP, (
        f"acceptance target missed: {speedup:.2f}x < {TARGET_SPEEDUP}x at "
        f"{TARGET_WORKERS} workers"
    )
