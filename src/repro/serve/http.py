"""A minimal asyncio HTTP/1.1 server for the control plane.

Deliberately stdlib-only: the control plane needs request routing with
path parameters, JSON bodies, keep-alive, and nothing else, and taking
a web framework for that would push a heavyweight dependency onto
every deployment (the same reasoning that keeps the wire codec
hand-rolled in :mod:`repro.net.codec`).  The server speaks enough
HTTP/1.1 for ``curl``, ``python -m http.client``, and Prometheus
scrapers: request line + headers + ``Content-Length`` bodies in,
fixed-length responses out, ``Connection: close`` honored.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.obs import names, trace

#: Protects the header parser from unbounded memory on garbage input.
MAX_HEADER_BYTES = 64 * 1024
#: Largest accepted request body (task submissions are tiny).
MAX_BODY_BYTES = 4 * 1024 * 1024
#: Per-read timeout; an idle keep-alive connection is dropped after it.
READ_TIMEOUT_SECONDS = 30.0

_REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class HttpError(Exception):
    """Raise inside a handler to produce a non-200 JSON response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes

    def json(self) -> object:
        """The body parsed as JSON (``{}`` when empty)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}") from None


@dataclass
class HttpResponse:
    """One response; helpers build the common shapes."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def json_response(cls, payload: object, status: int = 200) -> "HttpResponse":
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        return cls(status=status, body=body)

    @classmethod
    def text(cls, text: str, content_type: str) -> "HttpResponse":
        return cls(status=200, body=text.encode("utf-8"), content_type=content_type)

    def encode(self) -> bytes:
        reason = _REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
        ]
        for name, value in self.headers.items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
        return head + self.body


#: A route handler: (request, path params) -> response.
Handler = Callable[[HttpRequest, Dict[str, str]], Awaitable[HttpResponse]]


class Router:
    """Method + pattern dispatch with ``{param}`` path segments."""

    def __init__(self) -> None:
        #: (method, segment pattern) -> handler; patterns are tuples of
        #: literal segments or ``{name}`` placeholders.
        self._routes: List[Tuple[str, Tuple[str, ...], Handler]] = []

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        segments = tuple(s for s in pattern.strip("/").split("/") if s)
        self._routes.append((method.upper(), segments, handler))

    def resolve(self, method: str, path: str) -> Tuple[Handler, Dict[str, str]]:
        """Find the handler for ``method path``.

        Raises :class:`HttpError` 404 when no pattern matches the path
        and 405 when a pattern matches but not with this method.
        """
        segments = tuple(s for s in path.strip("/").split("/") if s)
        path_matched = False
        for route_method, pattern, handler in self._routes:
            params = _match(pattern, segments)
            if params is None:
                continue
            path_matched = True
            if route_method == method.upper():
                return handler, params
        if path_matched:
            raise HttpError(405, f"method {method} not allowed on {path}")
        raise HttpError(404, f"no route for {path}")


def _match(pattern: Tuple[str, ...], segments: Tuple[str, ...]) -> Optional[Dict[str, str]]:
    if len(pattern) != len(segments):
        return None
    params: Dict[str, str] = {}
    for expected, actual in zip(pattern, segments):
        if expected.startswith("{") and expected.endswith("}"):
            params[expected[1:-1]] = actual
        elif expected != actual:
            return None
    return params


class HttpServer:
    """Serve a :class:`Router` on an asyncio TCP listener."""

    def __init__(
        self,
        router: Router,
        host: str = "127.0.0.1",
        port: int = 0,
        observer: Optional[Callable[[str, str, int, float], None]] = None,
        on_connection: Optional[Callable[[], None]] = None,
    ) -> None:
        self.router = router
        self.host = host
        self.port = port
        #: Called after every request: (method, path, status, seconds).
        self.observer = observer
        self.on_connection = on_connection
        self._server: Optional["asyncio.AbstractServer"] = None
        #: Each open connection's handler task and its stream writer.
        self._connections: Dict["asyncio.Task[None]", "asyncio.StreamWriter"] = {}

    async def start(self) -> None:
        """Bind the listener; ``self.port`` becomes the bound port."""
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def stop(self) -> None:
        # Detach before the await so a concurrent stop() sees None
        # instead of closing (or resurrecting) the same listener.
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        # Closing the listener leaves accepted connections open: end
        # them and let their handlers return, so no handler task is
        # left for the loop's shutdown to cancel.
        connections = dict(self._connections)
        for writer in connections.values():
            writer.close()
        await asyncio.gather(*connections, return_exceptions=True)

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: "asyncio.StreamReader", writer: "asyncio.StreamWriter"
    ) -> None:
        if self.on_connection is not None:
            self.on_connection()
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        assert task is not None
        self._connections[task] = writer
        task.add_done_callback(self._connections.pop)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except HttpError as exc:
                    error = HttpResponse.json_response(
                        {"error": exc.message, "status": exc.status}, status=exc.status
                    )
                    writer.write(error.encode())
                    await writer.drain()
                    break
                if request is None:
                    break
                started = loop.time()
                # Every request runs inside a serve.request root span:
                # an inbound W3C ``traceparent`` header is adopted (the
                # caller's trace continues through the control plane's
                # handler spans), otherwise a fresh trace is minted.
                # The response always echoes a ``traceparent`` so
                # clients can correlate either way.
                header = request.headers.get("traceparent", "")
                inbound = trace.parse_traceparent(header) if header else None
                ctx = inbound if inbound is not None else trace.new_root_context()
                with trace.attach(ctx):
                    with trace.span(
                        names.SPAN_SERVE_REQUEST,
                        lane=names.LANE_SERVE,
                        method=request.method,
                        path=request.path,
                    ) as req_span:
                        response = await self._dispatch(request)
                        req_span.set(status=response.status)
                    out_ctx = req_span.context() or ctx
                response.headers.setdefault(
                    "traceparent", trace.format_traceparent(out_ctx)
                )
                if self.observer is not None:
                    self.observer(
                        request.method, request.path, response.status, loop.time() - started
                    )
                writer.write(response.encode())
                await writer.drain()
                if request.headers.get("connection", "").lower() == "close":
                    break
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError):
            pass  # peer went away or stalled; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _read_request(
        self, reader: "asyncio.StreamReader"
    ) -> Optional[HttpRequest]:
        """Parse one request; ``None`` at a clean end-of-stream."""
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=READ_TIMEOUT_SECONDS
            )
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean close between requests
            raise
        except asyncio.LimitOverrunError:
            raise HttpError(413, "request head exceeds the server limit") from None
        if len(head) > MAX_HEADER_BYTES:
            raise HttpError(413, "request head exceeds the server limit")
        request_line, _, header_block = head.decode("latin-1").partition("\r\n")
        parts = request_line.split()
        if len(parts) != 3:
            raise HttpError(400, f"malformed request line: {request_line!r}")
        method, target, _version = parts
        try:
            split = urlsplit(target)
        except ValueError:
            raise HttpError(400, f"malformed request target: {target!r}") from None
        headers: Dict[str, str] = {}
        for line in header_block.split("\r\n"):
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise HttpError(400, f"malformed Content-Length: {declared!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"request body of {length} bytes is too large")
        body = b""
        if length:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout=READ_TIMEOUT_SECONDS
            )
        query = dict(parse_qsl(split.query))
        return HttpRequest(
            method=method.upper(),
            path=split.path,
            query=query,
            headers=headers,
            body=body,
        )

    async def _dispatch(self, request: HttpRequest) -> HttpResponse:
        try:
            handler, params = self.router.resolve(request.method, request.path)
            return await handler(request, params)
        except HttpError as exc:
            return HttpResponse.json_response(
                {"error": exc.message, "status": exc.status}, status=exc.status
            )
        except Exception as exc:  # noqa: BLE001 - the server must not die
            return HttpResponse.json_response(
                {"error": f"{type(exc).__name__}: {exc}", "status": 500}, status=500
            )
