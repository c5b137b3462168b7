"""A stdlib-only asyncio HTTP/1.1 front end for :class:`QueryService`.

No web framework: each connection is one :class:`asyncio.Protocol` that
buffers its request, answered with ``Connection: close`` semantics — one
request per connection, which keeps the parser small and is plenty for a
reproduction-grade service (the load generator opens a connection per
query, like the paper's per-report submissions).

Routes
------

* ``POST /submit`` — body ``{"template": <index|name>,
  "business_value": float?, "wait": bool?}``.  Admission is decided live
  by the online scheduler; with ``wait`` (default true) the response
  carries the completed result and its IV ledger entry, otherwise the
  admission outcome returns immediately and ``GET /result/<qid>`` blocks
  for the result.
* ``GET /result/<qid>`` — the query's result (blocks until completion).
* ``GET /metrics`` — the :class:`~repro.obs.live.LiveRegistry` snapshot.
  ``?format=json`` (the default) returns the JSON snapshot (counters,
  gauges, rates, quantiles, histograms, per-table sync gauges at the
  current logical time); ``?format=prometheus`` returns the same state in
  Prometheus text exposition format 0.0.4 (``text/plain``).  Any other
  value is a 400 naming the supported formats.
* ``GET /status`` (also ``/``) — the live HTML dashboard.
* ``GET /healthz`` — liveness probe with clock readings.
* ``POST /shutdown`` — graceful drain: stop accepting, finish in-flight
  work, finalize SLO alerts, stop the server.

:func:`http_request` is the matching minimal client used by the load
generator and the smoke test.
"""

from __future__ import annotations

import asyncio
import json
import math
import typing

from repro.errors import WorkloadError

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.service import QueryService

__all__ = ["HTTPServer", "http_request"]

#: Bound on request head + body (a submission is a tiny JSON object).
_MAX_HEAD_BYTES = 16384
_MAX_BODY_BYTES = 65536
#: Seconds a connection gets to deliver its whole request; a client that
#: stalls past it is answered 408 and closed instead of holding a handler.
_READ_DEADLINE_SECONDS = 10.0
#: Connections handled at once; one more is answered 503 with
#: ``Retry-After`` before any of its request is parsed, so stalled
#: clients cannot pile up handlers without bound.
_MAX_CONNECTIONS = 256
#: Seconds a refused connection is given to hang up after its 503.
_LINGER_SECONDS = 1.0

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: str = "",
) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra_headers}"
        f"Connection: close\r\n"
        f"\r\n"
    )
    return head.encode("ascii") + body


def _json_response(status: int, payload: dict) -> bytes:
    return _response(status, json.dumps(payload).encode("utf-8"))


#: The answer to a connection beyond ``_MAX_CONNECTIONS``.
_BUSY = _response(
    503,
    b'{"error": "too many open connections"}',
    extra_headers="Retry-After: 1\r\n",
)
#: The answer to a request not received within ``_READ_DEADLINE_SECONDS``.
_LATE = _json_response(408, {"error": "request not received in time"})


def _parse_head(head: bytes) -> tuple[str, str, int]:
    """``(method, path, body length)`` of one request head."""
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, path, _version = lines[0].split(" ", 2)
    except ValueError:
        raise ValueError(f"malformed request line {lines[0]!r}") from None
    length = "0"
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = value.strip() or "0"
    if not (length.isascii() and length.isdigit()):  # RFC 9110: 1*DIGIT
        raise ValueError(f"bad Content-Length {length!r}")
    if int(length) > _MAX_BODY_BYTES:
        raise ValueError("request body too large")
    return method, path, int(length)


async def _close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, BrokenPipeError):  # pragma: no cover
        pass


class _Connection(asyncio.Protocol):
    """One client connection: buffers its request, then hands it over.

    Its one timer is the read deadline, then the linger after an early
    answer (503, 400, 408), which shuts only the write side and discards
    input until the client hangs up: closing a socket with unread input
    sends a reset that can destroy the answer before the client reads it.
    """

    def __init__(self, server: "HTTPServer") -> None:
        self.server = server
        self.buffer = bytearray()
        self.head: tuple[str, str, int] | None = None
        self.task: asyncio.Task | None = None
        self.admitted = self.answered = False

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.timer = asyncio.get_running_loop().call_later(
            _READ_DEADLINE_SECONDS, self._answer_early, _LATE
        )
        if self.server._connections >= _MAX_CONNECTIONS:
            self._answer_early(_BUSY)
            return
        self.server._connections += 1
        self.admitted = True

    def data_received(self, data: bytes) -> None:
        if self.answered or self.task is not None:
            return
        buffer = self.buffer
        buffer += data
        if self.head is None:
            end = buffer.find(b"\r\n\r\n")
            if end < 0 and len(buffer) < _MAX_HEAD_BYTES:
                return
            try:
                if end < 0 or end + 4 > _MAX_HEAD_BYTES:
                    raise ValueError("request head too large")
                self.head = _parse_head(bytes(buffer[:end]))
            except ValueError as error:
                self._answer_early(_json_response(400, {"error": str(error)}))
                return
            del buffer[:end + 4]
        method, path, length = self.head
        if len(buffer) >= length:
            self.timer.cancel()
            self.task = asyncio.get_running_loop().create_task(self.server._handle(
                self.transport, method, path, bytes(buffer[:length])
            ))

    def eof_received(self) -> bool:
        if self.task is not None:
            return True  # the response is still owed: keep the write side
        if not self.answered:
            self._answer_early(_json_response(
                400, {"error": "connection closed mid-request"}
            ))
        return False

    def _answer_early(self, response: bytes) -> None:
        self.answered = True
        self.timer.cancel()
        self.transport.write(response)
        self.transport.write_eof()
        self.timer = asyncio.get_running_loop().call_later(
            _LINGER_SECONDS, self.transport.close
        )

    def connection_lost(self, exc: Exception | None) -> None:
        self.timer.cancel()
        if self.admitted:
            self.server._connections -= 1


class HTTPServer:
    """Serves one :class:`QueryService` over HTTP until shutdown."""

    def __init__(
        self,
        service: "QueryService",
        host: str = "127.0.0.1",
        port: int = 8763,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._runner: asyncio.Task | None = None
        self._shutdown = asyncio.Event()
        self._connections = 0

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves port 0 after start)."""
        assert self._server is not None, "server not started"
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> None:
        """Bind the socket and start the service's scheduling loop."""
        self._runner = asyncio.create_task(
            self.service.run(), name="repro-serve-loop"
        )
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
        )

    async def serve_until_shutdown(self) -> None:
        """Block until ``POST /shutdown``."""
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        """Drain the scheduling loop and close the listener."""
        self.service.begin_shutdown()
        if self._runner is not None:
            await self._runner
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- request handling ----------------------------------------------------

    async def _handle(
        self, transport: asyncio.Transport, method: str, path: str, body: bytes
    ) -> None:
        """Route one fully buffered request and answer it."""
        try:
            try:
                response = await self._route(method, path, body)
            except WorkloadError as error:
                response = _json_response(400, {"error": str(error)})
            except Exception as error:  # pragma: no cover - defensive
                response = _json_response(500, {"error": repr(error)})
            transport.write(response)
        finally:
            transport.close()

    async def _route(self, method: str, path: str, body: bytes) -> bytes:
        path, _, query_string = path.partition("?")
        if path in ("/", "/status") and method == "GET":
            return _response(
                200, self.service.status_html().encode("utf-8"),
                content_type="text/html; charset=utf-8",
            )
        if path == "/metrics" and method == "GET":
            return self._metrics(query_string)
        if path == "/healthz" and method == "GET":
            return _json_response(200, {
                "ok": True,
                "accepting": self.service.accepting,
                "stream_minutes": self.service.clock.now,
                "pending_events": len(self.service.clock),
            })
        if path == "/submit" and method == "POST":
            return await self._submit(body)
        if path.startswith("/result/") and method == "GET":
            return await self._result(path[len("/result/"):])
        if path == "/checkpoint" and method == "POST":
            return _json_response(200, self.service.checkpoint())
        if path == "/shutdown" and method == "POST":
            self._shutdown.set()
            return _json_response(200, {"ok": True, "draining": True})
        if path in ("/", "/status", "/metrics", "/healthz", "/result"):
            return _json_response(405, {"error": f"{method} not allowed"})
        return _json_response(404, {"error": f"no route {path!r}"})

    #: ``/metrics`` content negotiation: formats we can actually serve.
    METRICS_FORMATS = ("json", "prometheus")

    def _metrics(self, query_string: str) -> bytes:
        requested = "json"
        for pair in query_string.split("&"):
            if not pair:
                continue
            name, _, value = pair.partition("=")
            if name == "format":
                requested = value or "json"
        if requested == "json":
            return _json_response(200, self.service.metrics_snapshot())
        if requested == "prometheus":
            return _response(
                200,
                self.service.metrics_prometheus().encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        return _json_response(400, {
            "error": f"unknown metrics format {requested!r}",
            "supported": list(self.METRICS_FORMATS),
        })

    async def _submit(self, body: bytes) -> bytes:
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return _json_response(400, {"error": f"bad JSON body: {error}"})
        if not isinstance(payload, dict) or "template" not in payload:
            return _json_response(
                400, {"error": "body must be a JSON object with 'template'"}
            )
        if not self.service.accepting:
            return _json_response(503, {"error": "service is draining"})
        business_value = payload.get("business_value")
        if business_value is not None:
            try:
                business_value = float(business_value)
            except (TypeError, ValueError):
                business_value = math.nan
            if not math.isfinite(business_value):
                return _json_response(400, {
                    "error": "business_value must be a finite number, got "
                    f"{payload['business_value']!r}"
                })
        qid, decision, result = self.service.submit(
            payload["template"], business_value=business_value
        )
        outcome = await decision
        if payload.get("wait", True) and outcome != "shed":
            return _json_response(200, await result)
        if outcome == "shed":
            return _json_response(200, await result)
        return _json_response(200, {"qid": qid, "outcome": outcome})

    async def _result(self, tail: str) -> bytes:
        try:
            qid = int(tail)
        except ValueError:
            return _json_response(400, {"error": f"bad qid {tail!r}"})
        done = self.service.results.get(qid)
        if done is not None:
            return _json_response(200, done)
        future = self.service._result_futures.get(qid)
        if future is None:
            return _json_response(404, {"error": f"unknown qid {qid}"})
        return _json_response(200, await future)


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: dict | None = None,
    timeout: float = 60.0,
) -> tuple[int, object]:
    """Minimal one-shot HTTP client: ``(status, parsed-or-raw body)``.

    Opens a fresh connection per request (matching the server's
    ``Connection: close``), sends an optional JSON body, and parses a
    JSON response when the content type says so.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n"
            f"\r\n"
        )
        writer.write(head.encode("ascii") + payload)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=timeout)
    finally:
        await _close(writer)
    head_bytes, _, body_bytes = raw.partition(b"\r\n\r\n")
    lines = head_bytes.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    content_type = ""
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-type":
            content_type = value.strip()
    if content_type.startswith("application/json"):
        return status, json.loads(body_bytes.decode("utf-8"))
    return status, body_bytes.decode("utf-8", errors="replace")
