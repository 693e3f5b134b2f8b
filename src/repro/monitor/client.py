"""A retrying HTTP client for the monitoring service.

The CLI, examples, and tests all used to hand-roll ``urllib`` calls
against the service; none of them handled the backpressure statuses the
service now emits (``429`` queue-full, ``503`` WAL-degraded), so a
loaded fleet turned into client-side stack traces. :class:`MonitorClient`
centralises that: JSON in/out over the one request function of
:mod:`repro.monitor.http` (stdlib ``urllib``, shared with the fleet
router and the health probe), and automatic retries on exactly the
statuses that *mean* retry — honouring the server's ``Retry-After`` when
it sends one, decorrelated-jitter backoff (:mod:`repro.monitor.backoff`)
when it does not.

Anything else non-2xx raises :class:`repro.exceptions.MonitorClientError`
carrying the HTTP status and the decoded ``{"error": ...}`` body, so
callers branch on ``error.status`` instead of parsing messages.
"""

from __future__ import annotations

import http.client
import json
import random
import time
import urllib.request
from collections.abc import Callable
from typing import Any
from urllib.parse import urlencode

from repro.exceptions import MonitorClientError, ValidationError
from repro.monitor.backoff import retry_call
from repro.monitor.http import TransportError, send_request

__all__ = ["MonitorClient", "RETRYABLE_STATUSES", "TRANSIENT_ERRORS"]

# Statuses that mean "the service is shedding load; the request was NOT
# applied" — safe to retry verbatim.
RETRYABLE_STATUSES = frozenset({429, 503})

# Transport-level failures that mean "nothing answered at all" — the
# socket was refused (shard process down, mid-restart) or reset under
# us (shard SIGKILLed with the connection open). Retried with the same
# decorrelated-jitter backoff as 429/503: by the time the backoff
# elapses, the supervisor has typically restarted the shard and WAL
# replay has restored every acked batch. A reset *can* race an ack, so
# exactly-once across resets needs an idempotency ``batch_id``. A reply
# cut off mid-body (IncompleteRead) counts as a reset: the peer died
# while answering.
TRANSIENT_ERRORS = (
    ConnectionRefusedError,
    ConnectionResetError,
    http.client.IncompleteRead,
)


class MonitorClient:
    """Talk to a running :class:`repro.monitor.service.MonitorService`.

    Parameters
    ----------
    base_url:
        The service root, e.g. ``http://127.0.0.1:8321``.
    timeout:
        Per-request socket timeout in seconds.
    retries:
        How many times a ``429``/``503`` is retried before the final
        :class:`~repro.exceptions.MonitorClientError` propagates. ``0``
        disables retrying.
    backoff_base / backoff_cap:
        Decorrelated-jitter delay bounds used when the server did not
        provide a ``Retry-After`` hint.
    rng / sleep / opener:
        Injection points for tests: the jitter source, the delay
        function, and the transport (a ``urllib.request.urlopen``
        substitute).
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 10.0,
        retries: int = 4,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        rng: random.Random | None = None,
        sleep: Callable[[float], Any] = time.sleep,
        opener: Callable[..., Any] = urllib.request.urlopen,
    ):
        if timeout <= 0:
            raise ValidationError(f"timeout must be > 0 seconds, got {timeout}")
        if retries < 0:
            raise ValidationError(f"retries must be >= 0, got {retries}")
        self.base_url = base_url.rstrip("/")
        self._timeout = float(timeout)
        self._retries = int(retries)
        self._backoff_base = float(backoff_base)
        self._backoff_cap = float(backoff_cap)
        self._rng = rng
        self._sleep = sleep
        self._opener = opener

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def request(
        self,
        method: str,
        path: str,
        *,
        body: dict[str, Any] | None = None,
        query: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """One JSON round trip with retry-on-backpressure semantics."""
        url = f"{self.base_url}{path}"
        if query:
            url += "?" + urlencode(
                {key: value for key, value in query.items() if value is not None}
            )
        payload = (
            None if body is None else json.dumps(body).encode("utf-8")
        )
        return retry_call(
            lambda: self._once(method, url, payload),
            retries=self._retries,
            should_retry=self._should_retry,
            base=self._backoff_base,
            cap=self._backoff_cap,
            rng=self._rng,
            sleep=self._sleep,
        )

    def _once(self, method: str, url: str, payload: bytes | None):
        try:
            reply = send_request(
                method,
                url,
                body=payload,
                timeout=self._timeout,
                opener=self._opener,
            )
        except TransportError as error:
            raise MonitorClientError(
                f"{method} {url} failed: {error}",
                status=0,
                transient=isinstance(error.reason, TRANSIENT_ERRORS),
            ) from None
        if 200 <= reply.status < 300:
            return json.loads(reply.body.decode("utf-8"))
        try:
            decoded = json.loads(reply.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            decoded = {"error": reply.body.decode("utf-8", "replace")}
        reason = http.client.responses.get(reply.status, "")
        message = (
            decoded.get("error", reason)
            if isinstance(decoded, dict)
            else reason
        )
        client_error = MonitorClientError(
            f"{method} {url} failed with HTTP {reply.status}: {message}",
            status=reply.status,
            body=decoded,
        )
        retry_after = reply.headers.get("Retry-After")
        if retry_after is not None:
            try:
                client_error.retry_after = float(retry_after)
            except ValueError:
                pass
        raise client_error

    @staticmethod
    def _should_retry(error: BaseException) -> float | bool:
        if not isinstance(error, MonitorClientError):
            return False
        if error.status not in RETRYABLE_STATUSES and not error.transient:
            return False
        # Prefer the server's hint: the Retry-After header, else the
        # machine-readable retry_after field in the degraded body.
        hint = getattr(error, "retry_after", None)
        if hint is None and isinstance(error.body, dict):
            hint = error.body.get("retry_after")
        try:
            return float(hint) if hint is not None else True
        except (TypeError, ValueError):
            return True

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        return self.request("GET", "/healthz")

    def monitors(self) -> list[str]:
        return self.request("GET", "/monitors")["monitors"]

    def create(self, config: dict[str, Any]) -> dict[str, Any]:
        """Create a monitor from a config dict (see ``MonitorConfig``)."""
        return self.request("POST", "/monitors", body=config)

    def delete(self, name: str) -> dict[str, Any]:
        return self.request("DELETE", f"/monitors/{name}")

    def observe(
        self,
        name: str,
        rows: list[list[Any]],
        *,
        batch_id: str | None = None,
    ) -> dict[str, Any]:
        """Ingest one batch; retries queue-full/degraded rejections.

        Retrying is safe by the service's durability contract: a 429 or
        503 means the batch was *not* written to the WAL and *not*
        applied, so re-sending cannot double-count. A WAL failure whose
        durability is indeterminate (the record may survive a crash and
        be replayed) comes back as a 500 instead, which this client
        deliberately does not retry — re-sending could double-count.

        ``batch_id`` makes the batch idempotent server-side: if a
        connection reset (shard killed mid-request) loses the ack of a
        batch that *was* durably applied, the retried send is answered
        with ``duplicate: true`` instead of being counted twice. Any
        client-unique string works; use one whenever retries can cross
        a process crash (i.e. always, in a supervised fleet).
        """
        body: dict[str, Any] = {"rows": rows}
        if batch_id is not None:
            body["batch_id"] = batch_id
        return self.request(
            "POST", f"/monitors/{name}/observe", body=body
        )

    def report(self, name: str) -> dict[str, Any]:
        return self.request("GET", f"/monitors/{name}/report")

    def history(
        self,
        name: str,
        *,
        since: int = 0,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        return self.request(
            "GET",
            f"/monitors/{name}/history",
            query={"since": since, "limit": limit},
        )["records"]

    def alerts(
        self,
        name: str,
        *,
        since: int = 0,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        return self.request(
            "GET",
            f"/monitors/{name}/alerts",
            query={"since": since, "limit": limit},
        )["records"]

    def __repr__(self) -> str:
        return f"MonitorClient({self.base_url!r})"
