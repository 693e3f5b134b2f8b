"""Server processes and run hygiene.

The benchmark makes itself a *child subreaper* (Linux ``prctl``), so a
shard orphaned by a SIGKILLed ``fleet-serve`` is re-parented to the
benchmark, which can then kill and reap it. At the end of a run every
child must be gone and ``/dev/shm`` must hold exactly the entries it
held at the start; anything else fails the run.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

PR_SET_CHILD_SUBREAPER = 36
SHM_DIR = "/dev/shm"


class BenchError(RuntimeError):
    """A run that cannot produce trustworthy numbers."""


def become_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise BenchError(
            f"prctl(PR_SET_CHILD_SUBREAPER) failed: errno {ctypes.get_errno()}"
        )


def shm_entries() -> set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except FileNotFoundError:
        return set()


def _children(exclude=frozenset()) -> list[int]:
    me = str(os.getpid())
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) in exclude:
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        state, ppid = fields[0], fields[1]
        if ppid == me and state != "Z":
            children.append(int(entry))
    return children


def live_children(grace: float = 5.0, exclude=frozenset()) -> list[int]:
    """Children of this process still running after ``grace`` seconds.

    Zombies do not count; the grace period lets pool workers finish a
    shutdown that does not wait.
    """
    deadline = time.monotonic() + grace
    while True:
        children = _children(exclude)
        if not children or time.monotonic() > deadline:
            return children
        time.sleep(0.01)


def _stop_resource_tracker() -> bool:
    """Stop multiprocessing's resource tracker and reap it.

    The first shared-memory ring starts the tracker as a child of this
    process; left alone it would outlive the run by a moment, until it
    notices its parent is gone. Closing its pipe makes it exit now.
    Returns False if it had to be killed.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        if fd is None:
            return True
        tracker._fd = tracker._pid = None
        os.close(fd)
    try:
        reap(pid)
        return True
    except BenchError:
        kill_hard(pid)
        return False


def stop_children() -> list[int]:
    """Stop every child process; return those that had to be killed.

    Pool workers, which hold the resource tracker's pipe open, go first;
    then the tracker is told to exit; then anything still running (a
    shard orphaned by a killed router, say) is killed and reaped.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker._pid
    leftovers = live_children(exclude={tracker} if tracker else frozenset())
    for pid in leftovers:
        kill_hard(pid)
    if tracker and not _stop_resource_tracker():
        leftovers.append(tracker)
    stray = live_children(grace=1.0)
    for pid in stray:
        kill_hard(pid)
    return leftovers + stray


def reap(pid: int, timeout: float = 10.0) -> None:
    """Wait for a child (or re-parented orphan) to exit and reap it."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return
        if done:
            return
        if time.monotonic() > deadline:
            raise BenchError(f"process {pid} did not exit within {timeout}s")
        time.sleep(0.002)


def kill_hard(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    reap(pid)


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


def http_json(url: str, method: str = "GET", body=None, timeout: float = 10.0):
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


class Server:
    """``python -m repro <command>`` with stdout in a log file.

    The readiness banner's URL is read back from the log; ``PYTHONPATH``
    holds the checkout's ``src`` plus, for traced runs, the trace hook.
    """

    def __init__(self, argv, *, log_path: str, src: str, trace_dir: str | None,
                 hook_dir: str, banner: str):
        env = dict(os.environ)
        paths = [src] + ([hook_dir] if trace_dir else [])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        env["PYTHONUNBUFFERED"] = "1"
        env.pop("PERFBENCH_TRACE_DIR", None)
        if trace_dir:
            env["PERFBENCH_TRACE_DIR"] = trace_dir
        self.log_path = log_path
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=env,
        )
        self.pid = self.proc.pid
        self.url = self._wait_banner(banner)

    def _wait_banner(self, banner: str, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path, encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith(banner):
                        return line[len(banner):].split()[0]
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise BenchError(
            f"server did not print {banner!r}; log: {self.log_tail()}"
        )

    def log_tail(self) -> str:
        with open(self.log_path, encoding="utf-8") as handle:
            return handle.read()[-2000:]

    def wait_ok(self, timeout: float = 60.0) -> dict:
        """Poll ``/healthz`` until its status is ``ok``."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                health = http_json(self.url + "/healthz", timeout=5.0)
            except (urllib.error.URLError, ConnectionError):
                health = None
            if health is not None and health.get("status") == "ok":
                return health
            if self.proc.poll() is not None:
                break
            # Each probe costs the server a request; polling faster
            # would slow the start-up it is timing.
            time.sleep(0.01)
        raise BenchError(f"/healthz never became ok; log: {self.log_tail()}")

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM (graceful: checkpoints, span flush) and reap."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                raise BenchError(f"server {self.pid} ignored SIGTERM") from None
        self._log.close()

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self._log.close()
