"""The one HTTP layer of the monitoring service, the fleet router, the
client and the health probe.

Server side, shared by :class:`repro.monitor.service.MonitorService` and
:class:`repro.monitor.routing.FleetRouter`, which keep only their routes
and their mapping from exceptions to statuses:

* :class:`HttpError` — an error response: a status, the
  ``{"error": message, ...}`` body and optional headers;
* :class:`JsonHandler` — a keep-alive HTTP/1.1 request handler: the body
  read (``400``/``413``), the drain of a body no route read, one response
  writer for JSON and raw bodies, GET/POST/DELETE dispatch onto the
  owning server, and the verbose-only access log;
* :class:`HttpServer` — bound at construction, served on a daemon thread
  or on the calling thread, stopped at most once.

Client side, used by :class:`repro.monitor.client.MonitorClient`, the
router's forward and fan-outs, and the supervisor's ``/healthz`` probe:
:func:`send_request` sends one request over ``urllib`` (one connection
per request) and returns any HTTP answer as a :class:`Reply`. Everything
else raises :class:`TransportError`, which tells a refused connect (the
request provably never arrived) from a reset, a timeout or a reply cut
off mid-body (the outcome is unknown).
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.error
import urllib.request
from collections.abc import Callable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, NamedTuple

from repro.exceptions import MonitorError
from repro.monitor.store import sanitize_floats

__all__ = [
    "MAX_BODY_BYTES",
    "HttpError",
    "HttpServer",
    "JsonHandler",
    "Reply",
    "TransportError",
    "decode_json",
    "send_request",
]

MAX_BODY_BYTES = 64 * 1024 * 1024


# ----------------------------------------------------------------------
# Server side
# ----------------------------------------------------------------------
class HttpError(Exception):
    """An error response: ``status`` with ``{"error": message, **extra}``."""

    def __init__(
        self,
        status: int,
        message: str,
        *,
        headers: dict[str, str] | None = None,
        extra: dict[str, Any] | None = None,
    ):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = dict(headers or {})
        # Extra machine-readable fields merged into the error body
        # (e.g. degraded/retry_after on a 503).
        self.extra = dict(extra or {})


def decode_json(raw: bytes) -> Any:
    """A request body as JSON, or a ``400``."""
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise HttpError(
            400, f"request body is not valid JSON: {error}"
        ) from None


class JsonHandler(BaseHTTPRequestHandler):
    """A keep-alive HTTP/1.1 handler that dispatches onto its server.

    Each request goes to ``owner.route(method, path, handler)``, which
    returns the arguments of :meth:`respond`. An exception other than
    :class:`HttpError` is mapped by ``owner.http_error``. Subclasses set
    only ``server_version``.
    """

    protocol_version = "HTTP/1.1"

    # The default handler logs every request to stderr; the owner
    # decides whether that noise is wanted.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.owner.verbose:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    def _drain_unread_body(self) -> None:
        """Consume a request body the route never read.

        This handler speaks keep-alive HTTP/1.1: if an error response is
        sent while the body still sits in the socket (404 on a POST to a
        bad path, 405, 413), the leftover bytes would be parsed as the
        *next* request line, desynchronising the connection. Small
        bodies are read and discarded; oversized ones are cheaper to
        abandon by closing the connection after the response.
        """
        if getattr(self, "_body_consumed", False):
            return
        self._body_consumed = True
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length <= 0:
            return
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            return
        self.rfile.read(length)

    def read_body(self) -> bytes:
        """The request body; ``400`` when absent, ``413`` when too large."""
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length <= 0:
            raise HttpError(400, "a JSON request body is required")
        if length > MAX_BODY_BYTES:
            raise HttpError(
                413, f"request body exceeds {MAX_BODY_BYTES} bytes"
            )
        self._body_consumed = True
        return self.rfile.read(length)

    def read_json(self) -> dict[str, Any]:
        """The request body as a JSON object, or a ``400``."""
        body = decode_json(self.read_body())
        if not isinstance(body, dict):
            raise HttpError(400, "request body must be a JSON object")
        return body

    def respond(
        self,
        status: int,
        body: dict[str, Any] | bytes,
        headers: dict[str, str] | None = None,
    ) -> None:
        """Write one response: a dict as strict JSON, bytes verbatim.

        ``headers`` may replace the JSON ``Content-Type`` (the
        Prometheus page does).
        """
        self._drain_unread_body()
        if not isinstance(body, bytes):
            body = json.dumps(
                sanitize_floats(body), allow_nan=False
            ).encode("utf-8")
        extra = dict(headers or {})
        content_type = extra.pop("Content-Type", "application/json")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, method: str) -> None:
        # One handler instance serves every request on a keep-alive
        # connection; the consumed-body flag is per *request*.
        self._body_consumed = False
        owner: HttpServer = self.server.owner  # type: ignore[attr-defined]
        try:
            reply = owner.route(method, self.path, self)
        except Exception as error:  # noqa: BLE001 - every request is answered
            if not isinstance(error, HttpError):
                error = owner.http_error(error)
            reply = (
                error.status,
                {"error": error.message, **error.extra},
                error.headers,
            )
        self.respond(*reply)

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


class HttpServer:
    """A threaded HTTP server, bound at construction, stopped at most once.

    Subclasses set ``handler`` (a :class:`JsonHandler` subclass) and
    ``role`` (the noun in lifecycle errors), and implement ``route`` and
    ``http_error``.
    """

    handler: type[JsonHandler]
    role: str

    def __init__(self, host: str, port: int, *, verbose: bool):
        self.verbose = bool(verbose)
        self._httpd = ThreadingHTTPServer((host, port), self.handler)
        self._httpd.daemon_threads = True
        self._httpd.owner = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None
        self._shutdown_lock = threading.Lock()
        self._stopped = False

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def route(
        self, method: str, path: str, request: JsonHandler
    ) -> tuple[Any, ...]:
        """The arguments of :meth:`JsonHandler.respond` for one request."""
        raise NotImplementedError

    def http_error(self, error: Exception) -> HttpError:
        """The response for an exception a route raised."""
        raise NotImplementedError

    def start(self):
        """Serve in a daemon thread; returns immediately."""
        if self._thread is not None:
            raise MonitorError(f"the {self.role} is already running")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-{self.role}",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI path)."""
        self._httpd.serve_forever()

    def shutdown(self) -> bool:
        """Stop serving; true for the one call that did the stopping.

        Safe to call more than once (signal handlers can race).
        """
        with self._shutdown_lock:
            if self._stopped:
                return False
            self._stopped = True
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self._httpd.server_close()
        return True

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------
class Reply(NamedTuple):
    """An HTTP answer, whatever its status."""

    status: int
    headers: Any  # supports .get(name), like http.client.HTTPMessage
    body: bytes


class TransportError(Exception):
    """No HTTP answer: the connect failed or the exchange broke off.

    ``reason`` is the underlying error. Only a refused connect
    (``refused``) proves the request never arrived; after a reset, a
    timeout or a reply cut off mid-body the outcome is unknown.
    """

    def __init__(self, reason: BaseException | str):
        super().__init__(str(reason))
        self.reason = reason
        self.refused = isinstance(reason, ConnectionRefusedError)


def send_request(
    method: str,
    url: str,
    *,
    body: bytes | None = None,
    timeout: float,
    opener: Callable[..., Any] = urllib.request.urlopen,
) -> Reply:
    """Send one request and return the answer, any status included.

    ``body`` goes out as ``application/json``. ``opener`` is the
    transport, called once as ``opener(request, timeout=timeout)`` with
    a :class:`urllib.request.Request`; a substitute's response may offer
    only ``read()``, and then reads as a ``200`` without headers. Raises
    :class:`TransportError` when no complete answer arrives.
    """
    prepared = urllib.request.Request(
        url,
        data=body,
        method=method,
        headers={} if body is None else {"Content-Type": "application/json"},
    )
    try:
        try:
            with opener(prepared, timeout=timeout) as response:
                return Reply(
                    getattr(response, "status", 200),
                    getattr(response, "headers", {}),
                    response.read(),
                )
        except urllib.error.HTTPError as error:
            with error:
                return Reply(error.code, error.headers, error.read())
    except (OSError, http.client.HTTPException) as error:
        # URLError wraps the socket error as .reason; http.client raises
        # resets and cut-off replies (IncompleteRead) unwrapped.
        raise TransportError(getattr(error, "reason", error)) from None
