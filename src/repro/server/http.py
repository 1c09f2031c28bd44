"""Minimal asyncio HTTP/JSON front end over a :class:`Supervisor`.

Hand-rolled on an :class:`asyncio.Protocol` (the repo's zero-dependency
rule means no aiohttp): enough HTTP/1.1 to serve four routes to curl, a
load balancer, and the chaos harness — one request per connection,
answered with ``Connection: close`` —

``POST /query``
    ``{"query": ..., "database"?: ..., "top_k"?: ..., "deadline"?: ...}``
    → the supervisor's :class:`~repro.server.supervisor.ServerResponse`
    as JSON.  Status encodes the failure class: 200 ok, 400 for a bad
    body (input is checked once, at the supervisor's admission) and for
    translation-level errors, 404 for an unknown database, 413 for a
    body over :data:`MAX_BODY_BYTES`, 429 shed, 500 for worker
    crash/timeout (the HTTP face of exit code 8), 503 while draining.
``GET /healthz``
    Liveness: 200 while the event loop runs, 503 once closed.
``GET /readyz``
    Readiness: the supervisor's per-shard readiness plus drain state;
    200 only when every shard has a live worker and no drain has begun.
``GET /metrics``
    Prometheus text exposition of the shared registry.

**One loop.**  :func:`serve` starts the supervisor on its own running
loop (``Supervisor.astart``), so the connections, every worker pipe and
the watchdog share one thread: a ``/query`` goes from the socket to the
worker's pipe and back without a thread hop.

**Graceful drain.**  :meth:`ServerApp.begin_drain` — wired to SIGTERM
by :func:`serve` — immediately flips ``/readyz`` to 503 (so load
balancers stop routing here), lets the supervisor refuse new work
typed, waits for admitted requests to finish and for the workers to
exit, and logs the final snapshot.  In-flight HTTP requests complete;
nothing admitted is lost.

The app is testable without sockets: :meth:`ServerApp.dispatch` maps
``(method, path, body)`` → ``(status, content_type, body_bytes)``
directly, and :func:`serve` binds port 0 happily for tests.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from typing import Any, Optional, Union

from ..errors import ReproError
from ..service import ServiceOverloaded
from .errors import ServerDraining, WorkerError
from .supervisor import DEFAULT_SHARD, ServerResponse, Supervisor

#: request bodies larger than this are refused with 413
MAX_BODY_BYTES = 1 * 1024 * 1024

#: a head line longer than this closes the connection unanswered (the
#: line limit ``asyncio.StreamReader`` applies by default)
MAX_HEAD_BYTES = 64 * 1024


def _status_for(error: Optional[BaseException]) -> int:
    """Map a typed failure to an HTTP status (mirrors CLI exit codes)."""
    if error is None:
        return 200
    if isinstance(error, ServerDraining):
        return 503
    if isinstance(error, ServiceOverloaded):
        return 429
    if isinstance(error, WorkerError):
        return 500  # the HTTP face of CLI exit code 8
    if isinstance(error, ReproError):
        return 400  # translation-level: the query's fault, not ours
    return 500


class ServerApp:
    """Route dispatch for the serving front end (socket-free core)."""

    def __init__(self, supervisor: Supervisor, metrics=None) -> None:
        self.supervisor = supervisor
        self.metrics = metrics if metrics is not None else supervisor.metrics
        self._drain_task: Optional[asyncio.Task] = None
        self._drained = asyncio.Event()
        self.final_snapshot: Optional[dict[str, Any]] = None

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    async def dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, str, bytes]:
        """One request in, ``(status, content_type, body)`` out."""
        answer = self.route(method, path, body)
        if isinstance(answer, tuple):
            return answer
        return self.query_answer(await answer)

    def route(
        self, method: str, path: str, body: bytes
    ) -> Union[tuple[int, str, bytes], "asyncio.Future[ServerResponse]"]:
        """Answer a request at once, or admit a ``/query`` and return
        the future of its :class:`ServerResponse` (format it with
        :meth:`query_answer`)."""
        path = path.split("?", 1)[0]
        if path == "/query" and method == "POST":
            return self._query(body)
        if path == "/healthz" and method == "GET":
            alive = not self.supervisor.closed
            return (
                200 if alive else 503,
                "application/json",
                _json({"status": "ok" if alive else "closed"}),
            )
        if path == "/readyz" and method == "GET":
            readiness = self.supervisor.readiness()
            return (
                200 if readiness["ready"] else 503,
                "application/json",
                _json(readiness),
            )
        if path == "/metrics" and method == "GET":
            if self.metrics is None:
                return 404, "text/plain", b"no metrics registry configured\n"
            return (
                200,
                "text/plain; version=0.0.4",
                self.metrics.render_text().encode("utf-8"),
            )
        return 404, "application/json", _json({"error": "no such route"})

    def _query(self, body: bytes):
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
            if not isinstance(payload, dict):
                raise ValueError("body must be a JSON object")
            if "query" not in payload:
                raise ValueError("body has no 'query'")
            # the supervisor checks every field at admission
            return self.supervisor.asubmit(
                payload["query"],
                database=payload.get("database", DEFAULT_SHARD),
                top_k=payload.get("top_k"),
                deadline=payload.get("deadline"),
            )
        except ValueError as exc:  # JSON and UTF-8 errors included
            return (
                400,
                "application/json",
                _json({"error": f"bad request body: {exc}"}),
            )
        except KeyError as exc:
            return 404, "application/json", _json({"error": str(exc)})

    @staticmethod
    def query_answer(response: ServerResponse) -> tuple[int, str, bytes]:
        """A finished ``/query`` as ``(status, content_type, body)``."""
        doc = response.to_dict()
        doc["ok"] = response.ok
        return _status_for(response.error), "application/json", _json(doc)

    # ------------------------------------------------------------------
    # drain
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Start the graceful drain exactly once (SIGTERM handler)."""
        if self._drain_task is None:
            self._drain_task = asyncio.get_running_loop().create_task(
                self._drain()
            )

    async def _drain(self) -> None:
        # on the supervisor's own loop the drain awaits its workers'
        # exits there, so in-flight HTTP responses still flush meanwhile
        self.final_snapshot = await self.supervisor.adrain()
        self._drained.set()

    async def wait_drained(self) -> dict[str, Any]:
        await self._drained.wait()
        assert self.final_snapshot is not None
        return self.final_snapshot


def _json(payload: dict[str, Any]) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpProtocol(asyncio.Protocol):
    """One HTTP/1.1 request per connection: parsed as its bytes arrive,
    answered, then closed.

    The head is read line by line until its blank line; a request line
    with fewer than two words closes the connection unanswered.  A
    ``Content-Length`` over :data:`MAX_BODY_BYTES` is answered 413 at
    once, body unread.  A client that leaves before its body is in gets
    no answer and starts nothing.
    """

    def __init__(self, app: ServerApp) -> None:
        self.app = app
        self.transport: Optional[asyncio.Transport] = None
        self.buffer = bytearray()
        self.method: Optional[str] = None
        self.path = ""
        self.content_length = 0
        self.head_done = False
        #: set once the request is complete: later bytes are ignored
        self.answering = False

    def connection_made(self, transport) -> None:
        self.transport = transport

    def connection_lost(self, exc) -> None:
        self.transport = None  # an answer still in the making is dropped

    def data_received(self, data: bytes) -> None:
        if self.answering:
            return
        self.buffer += data
        while not self.head_done:
            newline = self.buffer.find(b"\n")
            if newline < 0:
                if len(self.buffer) > MAX_HEAD_BYTES:
                    self.transport.close()  # a head line with no end
                return
            line = bytes(self.buffer[: newline + 1])
            del self.buffer[: newline + 1]
            if not self._head_line(line):
                return
        if self.content_length > MAX_BODY_BYTES:
            self.answering = True
            self._answer(
                413,
                "application/json",
                _json({"error": "request body too large"}),
            )
        elif len(self.buffer) >= self.content_length:
            self.answering = True
            body = bytes(self.buffer[: self.content_length])
            try:
                answer = self.app.route(self.method, self.path, body)
            except Exception as exc:  # last-ditch: a routing bug is logged and answered 500
                self._internal_error(exc)
                return
            if isinstance(answer, tuple):
                self._answer(*answer)
            else:
                answer.add_done_callback(self._answered)

    def eof_received(self) -> Optional[bool]:
        # keep the write side open while an answer is on its way; a
        # request cut off before its end gets none
        return True if self.answering else None

    def _head_line(self, line: bytes) -> bool:
        """Take one head line; False once the connection is closed."""
        text = line.decode("latin-1")
        if self.method is None:
            parts = text.split()
            if len(parts) < 2:
                self.transport.close()  # malformed request line
                return False
            self.method, self.path = parts[0].upper(), parts[1]
        elif line in (b"\r\n", b"\n"):
            self.head_done = True
        else:
            name, _, value = text.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    self.content_length = max(0, int(value.strip()))
                except ValueError:
                    self.content_length = 0
        return True

    def _answered(self, future: "asyncio.Future[ServerResponse]") -> None:
        if future.cancelled():
            return  # the loop is shutting down
        error = future.exception()
        if error is not None:
            self._internal_error(error)
            return
        self._answer(*self.app.query_answer(future.result()))

    def _internal_error(self, error: BaseException) -> None:
        asyncio.get_running_loop().call_exception_handler(
            {
                "message": "unhandled error serving a request",
                "exception": error,
                "protocol": self,
            }
        )
        self._answer(
            500, "application/json", _json({"error": "internal error"})
        )

    def _answer(self, status: int, ctype: str, body: bytes) -> None:
        transport = self.transport
        if transport is None or transport.is_closing():
            return  # the client went away; nothing to answer
        transport.write(
            (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        transport.close()  # after the buffered answer is written


async def start_http_server(
    app: ServerApp, host: str = "127.0.0.1", port: int = 8080
) -> asyncio.AbstractServer:
    """Listen for :class:`HttpProtocol` connections on the running loop."""
    return await asyncio.get_running_loop().create_server(
        lambda: HttpProtocol(app), host=host, port=port
    )


async def serve(
    supervisor: Supervisor,
    host: str = "127.0.0.1",
    port: int = 8080,
    install_signals: bool = True,
) -> None:
    """Run the front end until SIGTERM (or cancellation) drains it.

    Starts the supervisor on this loop unless it already runs, binds,
    serves the four routes, and on SIGTERM performs the graceful
    shutdown sequence: ``/readyz`` goes 503, the supervisor stops
    admitting, admitted work flushes, workers exit, and the final
    snapshot is printed to stderr as one JSON line.
    """
    if not supervisor.started:
        await supervisor.astart()
    try:
        app = ServerApp(supervisor)
        server = await start_http_server(app, host=host, port=port)
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, app.begin_drain)
        for sock in server.sockets or []:
            print(
                f"repro server listening on {sock.getsockname()!r}",
                file=sys.stderr,
            )
        async with server:
            snapshot = await app.wait_drained()
            server.close()
            await server.wait_closed()
            print(json.dumps({"drain": snapshot}), file=sys.stderr)
    finally:
        if not supervisor.closed:
            await supervisor.adrain()
