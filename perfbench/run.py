"""The repository benchmark: serving and batch paths, with a layer ledger.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ingest_bulk --seed 1 --seconds 10 --trace 0

Workloads: ``ingest_bulk`` (``monitor-serve``, WAL + fsync, 2,000-row
batches, SIGKILL + WAL-replay restarts), ``ingest_fleet``
(``fleet-serve --shards 1``, 100-row batches with ``batch_id``s) and
``audit_csv`` (``FairnessAuditor.audit_csv``: cold serial, cold pool,
warm ``.rccol``). ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ledger (see ``bench_layers.py``). Every run
checks its outputs (correctness gates) and its hygiene (no process left
behind, ``/dev/shm`` unchanged). The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ingest_bulk", "ingest_fleet", "audit_csv")


class Run:
    """One benchmark run: its settings, scratch space, gates and notes."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.root = os.getcwd()
        self.src = os.path.join(self.root, "src")
        self.hook_dir = os.path.join(HERE, "hook")
        self.scratch = os.path.join(self.root, ".perfbench_run", f"{workload}-{os.getpid()}")
        self.gates: list[tuple[str, bool, str]] = []
        self.lines: list[str] = []
        self._servers = []

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.scratch, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def spawn(self, argv, *, banner: str, trace_dir: str | None):
        from bench_procs import Server

        log_path = os.path.join(self.scratch, f"server-{len(self._servers)}.log")
        server = Server(
            argv,
            log_path=log_path,
            src=self.src,
            trace_dir=trace_dir,
            hook_dir=self.hook_dir,
            banner=banner,
        )
        self._servers.append(server)
        return server

    def wait_log(self, server, prefix: str, timeout: float = 120.0) -> None:
        from bench_procs import BenchError

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(server.log_path, encoding="utf-8") as handle:
                if any(line.startswith(prefix) for line in handle):
                    return
            if server.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise BenchError(f"server never logged {prefix!r}: {server.log_tail()}")

    def gate(self, name: str, ok: bool, detail: str = "") -> None:
        self.gates.append((name, bool(ok), detail))

    def note(self, line: str) -> None:
        self.lines.append(line)

    def ledger_table(self, rows, *, total_ms: float, unit: str) -> None:
        self.note(f"ledger ({unit}; traced end-to-end {total_ms:.4f}):")
        for name, value, share in rows:
            self.note(f"  {name:<36} {value:10.4f}  {100 * share:6.2f}%")

    def cleanup(self) -> None:
        for server in self._servers:
            if server.proc.poll() is None:
                server.proc.kill()
                server.proc.wait()
        shutil.rmtree(self.scratch, ignore_errors=True)
        parent = os.path.dirname(self.scratch)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


def machine() -> str:
    import numpy

    return (
        f"cpu_count={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} platform={platform.platform()}"
    )


def execute(run: Run) -> dict:
    if run.workload == "audit_csv":
        import bench_batch

        return (bench_batch.run_traced if run.trace else bench_batch.run_untraced)(run)
    import bench_serving

    spec = bench_serving.BULK if run.workload == "ingest_bulk" else bench_serving.FLEET
    return (bench_serving.run_traced if run.trace else bench_serving.run_untraced)(spec, run)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(
            "error: run from the root of a repository checkout "
            "(src/repro is missing)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, src)
    import bench_layers
    from bench_procs import become_subreaper, shm_entries, stop_children

    # A SIGTERM still stops and reaps every child on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    become_subreaper()
    shm_before = shm_entries()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(run.scratch)
    result = None
    try:
        result = execute(run)
    except Exception:
        traceback.print_exc()
    finally:
        run.cleanup()
        leftovers = stop_children()
    if result is None:
        return 1
    run.gate("hygiene: no server, router, shard, pool or tracker process left",
             not leftovers, f"left: {leftovers}")
    shm_after = shm_entries()
    run.gate("hygiene: /dev/shm entries unchanged", shm_after == shm_before,
             f"added {sorted(shm_after - shm_before)}, "
             f"removed {sorted(shm_before - shm_after)}")

    if args.trace:
        catalogue = {name: unit for name, (unit, *_rest) in bench_layers.LAYERS.items()}
    else:
        catalogue = {name: unit for name, (unit, *_rest) in bench_layers.E2E.items()}
    values = {name: float(result["metrics"].get(name, 0.0)) for name in catalogue}
    correct = all(ok for _, ok, _ in run.gates)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"machine: {machine()}")
    for line in run.lines:
        print(line)
    for name, value in values.items():
        meaning = ""
        if not args.trace:
            meaning = bench_layers.E2E[name][2][args.workload]
        print(f"  {name:<26} {value:14.4f} {catalogue[name]:<7} {meaning}")
    for name, value in sorted(result.get("extra", {}).items()):
        print(f"  ({name} = {value})")
    for name, ok, detail in run.gates:
        print(f"gate {'PASS' if ok else 'FAIL'}: {name}" + ("" if ok else f" ({detail})"))
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": value, "unit": catalogue[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
