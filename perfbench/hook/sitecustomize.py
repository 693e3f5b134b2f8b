"""Trace hook for the benchmark's traced server processes.

``perfbench`` puts this directory on ``PYTHONPATH`` (and sets
``PERFBENCH_TRACE_DIR``) only when it starts ``monitor-serve`` or
``fleet-serve`` for a traced run; ``ShardProcess`` passes both on to the
shard workers. Python imports ``sitecustomize`` at start-up, which wraps
the serving-path layers in span recorders (see ``bench_trace.py``).
"""

import os
import sys

if os.environ.get("PERFBENCH_TRACE_DIR"):
    sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import bench_trace

    bench_trace.install_server_hook()
