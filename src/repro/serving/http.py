"""The one HTTP/1.1 front of the serving and fleet tiers.

Both :class:`~repro.serving.server.PredictionServer` (one replica) and
:class:`~repro.fleet.router.FleetRouter` (the consistent-hash front
tier) are an :class:`HttpService`: the same listener lifecycle, the same
keep-alive connection loop, the same route table and counters.  Each
tier adds only its routes and its own steps (the replica scores; the
router admits, places on the ring and forwards).  This module owns:

* :class:`HttpService` -- ``start`` / ``serve_forever`` / ``url``,
  uptime, the keep-alive loop with its request, error and
  active-request counters, per-path latency histograms, a
  ``(method, path) -> handler`` route table (404 and 405 answers are
  derived from it), and the graceful part of ``shutdown``;
* :func:`read_request` / :func:`respond` -- parse one keep-alive
  request off a stream, write one JSON response;
* :class:`Connection` / :class:`ConnectionPool` -- the client side the
  router forwards with: one asyncio round-trip against a replica,
  optionally on a pooled keep-alive connection;
* the size bounds and reason phrases both tiers agree on.

Everything is stdlib-only, like the rest of the serving stack.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Awaitable, Callable, Dict, Optional, Tuple

from .metrics import FixedHistogram

#: Request body / header-block size bounds (a serving DoS guard, not a
#: feature limit: a 1 MiB source file is far beyond corpus file sizes).
MAX_BODY_BYTES = 1 << 20
MAX_HEADER_BYTES = 16 << 10

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpRequest:
    __slots__ = ("method", "path", "headers", "body")

    def __init__(self, method: str, path: str, headers: Dict[str, str], body: bytes):
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"


class HttpError(Exception):
    """A refused request, answered as ``{"error": message}`` with ``status``.

    Raised by :func:`read_request` for unparseable HTTP (the connection
    is then closed) and by route handlers for requests they refuse.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def json_object(body: bytes) -> dict:
    """A request body decoded as a JSON object (else an :class:`HttpError` 400)."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise HttpError(400, f"body is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise HttpError(400, "body must be a JSON object")
    return payload


async def read_request(reader: asyncio.StreamReader) -> Optional[HttpRequest]:
    """Parse one HTTP/1.1 request; ``None`` on clean keep-alive EOF."""
    try:
        request_line = await reader.readline()
    except (ValueError, asyncio.LimitOverrunError) as error:
        raise HttpError(400, f"oversized request line: {error}") from error
    if not request_line:
        return None  # clean EOF between keep-alive requests
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HttpError(400, "malformed HTTP request line")
    method, path, _version = parts
    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        try:
            line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError) as error:
            raise HttpError(413, f"oversized header line: {error}") from error
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise HttpError(413, "header block too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length_header = headers.get("content-length", "0")
    try:
        content_length = int(length_header)
    except ValueError:
        raise HttpError(400, f"bad Content-Length {length_header!r}")
    if content_length > MAX_BODY_BYTES:
        # Drain (a bounded amount of) the declared body first, so the
        # client finishes sending and receives the 413 instead of a
        # connection reset mid-upload.
        try:
            await reader.readexactly(min(content_length, 8 * MAX_BODY_BYTES))
        except asyncio.IncompleteReadError:
            pass
        raise HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
    if content_length > 0:
        body = await reader.readexactly(content_length)
    return HttpRequest(method, path.split("?", 1)[0], headers, body)


async def respond(
    writer: asyncio.StreamWriter,
    status: int,
    payload: dict,
    keep_alive: bool,
    extra_headers: Optional[Dict[str, str]] = None,
) -> None:
    """Write one JSON response (with optional extra headers, e.g. Retry-After)."""
    body = json.dumps(payload).encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    writer.write(head + body)
    await writer.drain()


#: A route handler: returns ``(status, payload)`` or, for responses that
#: carry extra headers (a Retry-After 503), ``(status, payload, headers)``.
Handler = Callable[[HttpRequest], Awaitable[tuple]]


class HttpService:
    """One asyncio JSON-over-HTTP listener over a route table.

    Subclasses fill :attr:`routes` in ``(method, path) -> handler``
    form, in the order the 404 text lists them.  A handler refuses a
    request by raising :class:`HttpError`; any other exception that
    escapes it is this service's bug and is answered as a counted 500,
    never a dropped connection.
    """

    #: Distinct paths given a latency histogram (unknown-path flood guard).
    MAX_LATENCY_PATHS = 16

    def __init__(self, address: str, port: int) -> None:
        self.address = address
        self.port = port
        self.routes: Dict[Tuple[str, str], Handler] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._connection_tasks: set = set()
        self._connections = 0
        self._active_requests = 0
        self._requests = 0
        self._errors = 0
        self._started_monotonic = 0.0
        #: Per-path request-latency histograms (fixed buckets, so a
        #: fleet can merge them across replicas by addition).
        self._latency: Dict[str, FixedHistogram] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener (``port=0`` binds a free port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.address, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()

    async def shutdown(self) -> None:
        """Stop accepting, answer every accepted request, then close.

        Idle keep-alive connections are not waited for (the drain covers
        requests, not sockets): they are parked in :func:`read_request`
        and cancelled, so no handler coroutine outlives the event loop.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        deadline = time.monotonic() + 30.0
        while self._active_requests > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        await self._cancel_connections()

    async def abort(self) -> None:
        """Die *now*: close the listener and every connection, no drain."""
        if self._server is not None:
            self._server.close()
            self._server = None
        await self._cancel_connections()

    async def _cancel_connections(self) -> None:
        for task in list(self._connection_tasks):
            task.cancel()
        if self._connection_tasks:
            await asyncio.gather(*self._connection_tasks, return_exceptions=True)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    @property
    def url(self) -> str:
        return f"http://{self.address}:{self.port}"

    def _uptime(self) -> float:
        if not self._started_monotonic:
            return 0.0
        return time.monotonic() - self._started_monotonic

    def latency_stats(self) -> Dict[str, dict]:
        """The per-path latency histograms, as ``/stats`` reports them."""
        return {path: histogram.to_dict() for path, histogram in self._latency.items()}

    # ------------------------------------------------------------------
    # The keep-alive connection loop
    # ------------------------------------------------------------------
    async def _accept(self, request: HttpRequest) -> bool:
        """Whether to answer ``request``; False drops the connection cold."""
        return True

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections += 1
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as error:
                    await respond(
                        writer, error.status, {"error": str(error)}, keep_alive=False
                    )
                    break
                if request is None or not await self._accept(request):
                    break
                self._requests += 1
                self._active_requests += 1
                try:
                    status, payload, headers = await self._dispatch(request)
                    await respond(
                        writer,
                        status,
                        payload,
                        keep_alive=request.keep_alive,
                        extra_headers=headers,
                    )
                finally:
                    self._active_requests -= 1
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Connection tasks are only cancelled by shutdown()/abort(),
            # which await them right after; completing normally here (a
            # deliberate swallow) keeps asyncio's stream machinery from
            # logging every teardown as an unhandled cancellation.
            pass
        finally:
            if task is not None:
                self._connection_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, RuntimeError):
                pass

    async def _dispatch(
        self, request: HttpRequest
    ) -> Tuple[int, dict, Optional[Dict[str, str]]]:
        """Route one request; count its errors and time it."""
        started = time.perf_counter()
        handler = self.routes.get((request.method, request.path))
        try:
            routed = await handler(request) if handler else self._unrouted(request)
        except HttpError as error:
            routed = error.status, {"error": str(error)}
        except Exception as error:  # noqa: BLE001 - our bug, answered not dropped
            # The loop's exception handler logs the traceback; the client
            # gets a 500 and keeps its connection.
            message = f"{request.method} {request.path} failed"
            asyncio.get_running_loop().call_exception_handler(
                {"message": message, "exception": error}
            )
            routed = 500, {"error": f"internal error: {type(error).__name__}: {error}"}
        status, payload = routed[0], routed[1]
        if status >= 400:
            self._errors += 1
        histogram = self._latency.get(request.path)
        if histogram is None and len(self._latency) < self.MAX_LATENCY_PATHS:
            histogram = self._latency[request.path] = FixedHistogram()
        if histogram is not None:
            histogram.observe(time.perf_counter() - started)
        return status, payload, routed[2] if len(routed) > 2 else None

    def _unrouted(self, request: HttpRequest) -> tuple:
        """405 naming the path's method, or 404 listing every route."""
        for method, path in self.routes:
            if path == request.path:
                return 405, {"error": f"use {method} {path}"}
        listing = ", ".join(f"{method} {path}" for method, path in self.routes)
        return 404, {"error": f"unknown path {request.path!r}; routes: {listing}"}


# ----------------------------------------------------------------------
# The client side (what the fleet router forwards with)
# ----------------------------------------------------------------------


class Connection:
    """One keep-alive client connection to a serving replica."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.closed = False

    @classmethod
    async def open(cls, host: str, port: int, timeout: float) -> "Connection":
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout=timeout
        )
        return cls(reader, writer)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            try:
                self.writer.close()
            except RuntimeError:  # pragma: no cover - loop already gone
                pass

    async def call(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        timeout: float = 30.0,
        host_header: str = "fleet",
    ) -> Tuple[int, Dict[str, str], dict]:
        """One round-trip: returns (status, headers, decoded JSON payload).

        Any protocol or timeout failure closes the connection and
        re-raises; the caller decides whether to retry elsewhere.
        """
        payload = body or b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host_header}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: keep-alive\r\n"
            f"\r\n"
        ).encode("latin-1")
        try:
            self.writer.write(head + payload)
            await asyncio.wait_for(self.writer.drain(), timeout=timeout)
            status, headers, raw = await asyncio.wait_for(
                self._read_response(), timeout=timeout
            )
        except BaseException:
            self.close()
            raise
        if headers.get("connection", "keep-alive").lower() == "close":
            self.close()
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except json.JSONDecodeError:
            decoded = {"error": raw.decode("utf-8", "replace")}
        return status, headers, decoded

    async def _read_response(self) -> Tuple[int, Dict[str, str], bytes]:
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionResetError("replica closed the connection")
        parts = status_line.decode("latin-1").strip().split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise ConnectionError(f"malformed status line {status_line!r}")
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw = await self.reader.readexactly(length) if length else b""
        return status, headers, raw


class ConnectionPool:
    """A small per-replica pool of keep-alive :class:`Connection` objects.

    The router holds one pool per replica; concurrent forwards each
    acquire their own connection (creating one when the pool is dry) and
    return it on success.  Failed connections are closed, never pooled.
    """

    def __init__(self, host: str, port: int, max_idle: int = 8) -> None:
        self.host = host
        self.port = port
        self.max_idle = max_idle
        self._idle: list = []

    async def acquire(self, timeout: float) -> Connection:
        """An idle connection still open at both ends, else a new one.

        A pooled connection whose peer has closed it (a replica restarted
        on the same port, say) is dropped, not reused.
        """
        while self._idle:
            connection = self._idle.pop()
            if not connection.closed and not connection.reader.at_eof():
                return connection
            connection.close()
        return await Connection.open(self.host, self.port, timeout)

    def release(self, connection: Connection) -> None:
        if connection.closed or len(self._idle) >= self.max_idle:
            connection.close()
        else:
            self._idle.append(connection)

    def close(self) -> None:
        while self._idle:
            self._idle.pop().close()

    async def call(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        timeout: float = 30.0,
    ) -> Tuple[int, Dict[str, str], dict]:
        """Acquire -> round-trip -> release (close on failure).

        A failed call is not retried: the caller decides whether to try
        elsewhere.
        """
        connection = await self.acquire(timeout)
        try:
            result = await connection.call(method, path, body=body, timeout=timeout)
        except BaseException:
            connection.close()
            raise
        self.release(connection)
        return result
