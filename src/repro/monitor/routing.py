"""Monitor-name routing for the process-per-shard monitoring fleet.

The fleet splits a :class:`repro.monitor.registry.MonitorRegistry`
deployment across N worker processes ("shards"), each running the full
PR-6 stack — registry + WAL + history store — over its own data
subdirectory. Two pieces live here:

* :func:`shard_for` — the stable hash that assigns a monitor name to a
  shard. It is the *routing contract*: the same name must map to the
  same shard in the router, in ``fleet-status``, and across process
  restarts, so it is built on SHA-256 rather than Python's per-process
  salted ``hash()``.
* :class:`FleetRouter` — the stdlib-only HTTP front process. It speaks
  the exact :class:`repro.monitor.service.MonitorService` API, forwards
  each monitor-scoped request to the owning shard verbatim, and
  fast-fails requests for a down shard with ``503 + Retry-After`` so a
  crash degrades *that shard's monitors only*, never the fleet. Its
  request handler, server lifecycle and shard requests are the shared
  ones of :mod:`repro.monitor.http`; this module keeps only the routes
  and the mapping from exceptions to statuses.

The router is deliberately dumb: it holds no monitor state, parses
request bodies only as far as routing requires (the monitor ``name``),
and relays shard responses byte-for-byte. All supervision intelligence
(probes, circuit breakers, restarts) lives in
:mod:`repro.monitor.fleet`; the router only asks its shard table for a
URL or an unavailability hint.

Shard-table protocol
--------------------
Any object with these members can back a router (the fleet supervisor
implements them; tests use fakes):

``n_shards``
    Number of shards (int, >= 1).
``shard_url(shard)``
    Base URL (``http://host:port``) of a live shard, or raise
    :class:`repro.exceptions.ShardUnavailable` with a ``retry_after``
    hint when the shard is down or circuit-broken.
``fleet_health()``
    The dict served on the router's ``/healthz``.
``shard_retry_after(shard)``
    Backoff hint (seconds) for a shard that just failed mid-request
    (optional; the router falls back to 1 second).
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import traceback
from collections.abc import Callable
from typing import Any, TypeVar

from repro.engine.backends import tree_merge
from repro.exceptions import (
    MonitorError,
    ShardUnavailable,
    ValidationError,
)
from repro.monitor.http import (
    HttpError,
    HttpServer,
    JsonHandler,
    TransportError,
    decode_json,
    send_request,
)
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE, MetricsRegistry

__all__ = ["FleetRouter", "shard_for"]

_Answer = TypeVar("_Answer")

_NAME_ROUTE = re.compile(r"^/monitors/(?P<name>[^/]+)")


def shard_for(name: str, n_shards: int) -> int:
    """The shard index that owns monitor ``name``.

    Stable across processes, platforms, and Python versions: derived
    from the first 8 bytes of SHA-256 over the UTF-8 name. Changing
    this function (or ``n_shards``) reshuffles monitors across shard
    data directories, which is why the fleet records its shard count in
    ``fleet.json`` and refuses to reopen with a different one.
    """
    if not isinstance(name, str) or not name:
        raise ValidationError(
            f"monitor name must be a non-empty string, got {name!r}"
        )
    if not isinstance(n_shards, int) or isinstance(n_shards, bool):
        raise ValidationError(f"n_shards must be an int, got {n_shards!r}")
    if n_shards < 1:
        raise ValidationError(f"n_shards must be >= 1, got {n_shards}")
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


class _RouterHandler(JsonHandler):
    """Routes requests onto the owning :class:`FleetRouter`."""

    server_version = "repro-fleet-router/1"


class FleetRouter(HttpServer):
    """The HTTP front process for a sharded monitoring fleet.

    Parameters
    ----------
    table:
        The shard table (see the module docstring for the protocol);
        normally a :class:`repro.monitor.fleet.FleetSupervisor`.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port.
    timeout:
        Per-request forwarding timeout (seconds) to a shard. A shard
        that accepts the connection but never answers within this
        window surfaces as a ``503`` with ``outcome_unknown`` (the
        request may or may not have been applied; idempotent retries
        via ``batch_id`` make re-sending safe).
    verbose:
        Log each request to stderr.
    """

    handler = _RouterHandler
    role = "router"

    def __init__(
        self,
        table,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 30.0,
        verbose: bool = False,
    ):
        for member in ("n_shards", "shard_url", "fleet_health"):
            if not hasattr(table, member):
                raise ValidationError(
                    f"shard table must provide {member!r}; "
                    f"got {type(table).__name__}"
                )
        if timeout <= 0:
            raise ValidationError(
                f"timeout must be > 0 seconds, got {timeout}"
            )
        self._table = table
        self.timeout = float(timeout)
        super().__init__(host, port, verbose=verbose)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(
        self, method: str, path_qs: str, request: JsonHandler
    ) -> tuple[Any, ...]:
        path = path_qs.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            return 200, self._table.fleet_health()
        if path == "/metrics":
            if method != "GET":
                raise HttpError(405, f"{method} is not supported on {path}")
            merged, unavailable = self._fleet_metrics()
            lines = []
            for shard in unavailable:
                lines.append(
                    f"# shard {shard:02d} unavailable; its metrics are "
                    "omitted from the totals below"
                )
            lines.append(merged.render_prometheus())
            body = "\n".join(lines).encode("utf-8")
            return 200, body, {"Content-Type": PROMETHEUS_CONTENT_TYPE}
        if path == "/metrics.json":
            if method != "GET":
                raise HttpError(405, f"{method} is not supported on {path}")
            merged, _unavailable = self._fleet_metrics()
            return 200, merged.state_dict()
        if path == "/monitors":
            if method == "GET":
                return 200, self._list_monitors()
            if method == "POST":
                body = request.read_body()
                return self._forward_named(
                    method, path_qs, self._name_from_config(body), body
                )
            raise HttpError(405, f"{method} is not supported on {path}")
        match = _NAME_ROUTE.match(path)
        if match is None:
            raise HttpError(404, f"no route for {path}")
        body = None
        if method == "POST":
            body = request.read_body()
        return self._forward_named(method, path_qs, match.group("name"), body)

    def http_error(self, error: Exception) -> HttpError:
        if isinstance(error, ShardUnavailable):
            return HttpError(
                503,
                str(error),
                headers={"Retry-After": f"{error.retry_after:g}"},
                extra={
                    "shard": error.shard,
                    "retry_after": error.retry_after,
                    "degraded": True,
                },
            )
        if isinstance(error, MonitorError):
            return HttpError(400, str(error))
        traceback.print_exc(file=sys.stderr)
        return HttpError(500, "unexpected router error; see the router log")

    @staticmethod
    def _name_from_config(body: bytes) -> str:
        config = decode_json(body)
        name = config.get("name") if isinstance(config, dict) else None
        if not isinstance(name, str) or not name:
            raise HttpError(
                400, 'the monitor config must carry a string "name"'
            )
        return name

    def _fan_out(
        self, path: str, decode: Callable[[Any], _Answer]
    ) -> tuple[dict[int, _Answer], list[int]]:
        """``GET path`` on every shard: the decoded answers by shard, and
        the shards that gave none.

        A shard gives none when its table entry is down, the request
        fails, or it answers anything but a ``200`` whose JSON body
        ``decode`` accepts. Down shards are reported rather than failing
        the fan-out — unless *every* shard is down, which is a
        fleet-wide outage and surfaces as the 503 it is.
        """
        answers: dict[int, _Answer] = {}
        unavailable: list[int] = []
        for shard in range(self._table.n_shards):
            try:
                reply = send_request(
                    "GET",
                    self._table.shard_url(shard) + path,
                    timeout=self.timeout,
                )
                if reply.status != 200:
                    raise ValueError(f"shard answered HTTP {reply.status}")
                answers[shard] = decode(json.loads(reply.body.decode("utf-8")))
            except (ShardUnavailable, TransportError, ValueError):
                unavailable.append(shard)
        if len(unavailable) == self._table.n_shards:
            raise HttpError(
                503,
                "every shard is unavailable",
                headers={"Retry-After": "1"},
                extra={"retry_after": 1.0, "degraded": True},
            )
        return answers, unavailable

    def _list_monitors(self) -> dict[str, Any]:
        """Fan ``GET /monitors`` out to every shard and merge."""
        answers, unavailable = self._fan_out(
            "/monitors", lambda payload: payload.get("monitors", [])
        )
        names = sorted(name for listed in answers.values() for name in listed)
        return {"monitors": names, "unavailable_shards": unavailable}

    def _fleet_metrics(self) -> tuple[MetricsRegistry, list[int]]:
        """Fan ``GET /metrics.json`` out to every shard and tree-merge.

        Each shard serves its registry's ``state_dict()``; the router
        rehydrates them with :meth:`MetricsRegistry.from_state` and
        folds them with :func:`repro.engine.backends.tree_merge`.
        Counters and histogram bucket counts are integer sums, so the
        fleet page is *bit-exact* with respect to the shard pages.
        Availability rides along in the result itself:
        ``repro_fleet_shard_up{shard="NN"}`` is 1 for every shard that
        answered and 0 for every shard whose metrics are missing from
        the totals.
        """
        answers, unavailable = self._fan_out(
            "/metrics.json", MetricsRegistry.from_state
        )
        merged = tree_merge(list(answers.values()))
        for shard in range(self._table.n_shards):
            merged.gauge(
                "repro_fleet_shard_up",
                "1 when the shard answered the metrics fan-out, else 0.",
                labels={"shard": f"{shard:02d}"},
            ).set(1 if shard in answers else 0)
        return merged, unavailable

    def _forward_named(
        self,
        method: str,
        path_qs: str,
        name: str,
        body: bytes | None,
    ) -> tuple[int, bytes, dict[str, str]]:
        shard = shard_for(name, self._table.n_shards)
        url = self._table.shard_url(shard)  # raises ShardUnavailable
        return self._forward(method, shard, url, path_qs, body)

    def _forward(
        self,
        method: str,
        shard: int,
        url: str,
        path_qs: str,
        body: bytes | None,
    ) -> tuple[int, bytes, dict[str, str]]:
        """Relay a request to a shard and its response back, verbatim.

        Shard-level HTTP errors (404, 409, 429, 503...) pass through
        untouched, ``Retry-After`` included, so a client cannot tell a
        fleet from a single service. Transport failures become a
        ``503`` scoped to this shard; ``outcome_unknown`` is set unless
        the connection was refused outright (refused means the request
        provably never reached the shard's WAL).
        """
        try:
            reply = send_request(
                method, url + path_qs, body=body, timeout=self.timeout
            )
        except TransportError as error:
            retry_after = self._retry_after(shard)
            extra: dict[str, Any] = {
                "shard": shard,
                "retry_after": retry_after,
                "degraded": True,
            }
            if not error.refused:
                extra["outcome_unknown"] = True
            raise HttpError(
                503,
                f"shard {shard} is unavailable: {error}",
                headers={"Retry-After": f"{retry_after:g}"},
                extra=extra,
            ) from None
        retry_after = reply.headers.get("Retry-After")
        headers = {} if retry_after is None else {"Retry-After": retry_after}
        return reply.status, reply.body, headers

    def _retry_after(self, shard: int) -> float:
        hint = getattr(self._table, "shard_retry_after", None)
        if hint is None:
            return 1.0
        try:
            return max(float(hint(shard)), 0.1)
        except Exception:
            return 1.0
