"""The socket transport: framed envelopes over asyncio TCP.

:class:`TcpTransport` implements the runtime's ``Transport`` contract
with real sockets: local inboxes come from ``MailboxTransport``, and
anything addressed off-process is framed by :mod:`repro.net.codec` and
written to a pooled per-endpoint connection.

Connection handling, in one place:

- **flush per turn** -- ``send`` encodes and appends to the link's
  pending deque; one ``call_soon`` flush writes everything accepted in
  that event-loop turn as a single buffer (a tick broadcast is one
  syscall however many frames it holds);
- **lazy dial, reconnect** -- a link dials on its first frame, never at
  startup, so launch order does not matter.  A failed dial or a dead
  stream retries under exponential backoff (``DIAL_BACKOFF_BASE``
  doubling to ``DIAL_BACKOFF_CAP``) in a task that lives only while the
  link is down; frames not yet written stay in hand, in order, so a
  worker restart costs latency, not the messages queued behind it.
  Delivery is at-most-once: frames written to a stream that then dies
  are lost;
- **backpressure** -- ``SEND_QUEUE_FRAMES`` bounds what a dead peer can
  make a sender hold (``send`` blocks), and a live but slow peer blocks
  ``send`` on the stream's own ``drain()`` once asyncio's write-buffer
  limit is passed;
- **graceful close** -- :meth:`TcpTransport.aclose` flushes pending
  frames (bounded by ``CLOSE_GRACE_SECONDS``), closes every stream,
  and stops the listener.

``force_wire=True`` disables the local-inbox fast path so even
self-addressed envelopes make a full trip through the socket stack --
the runtime-vs-simulator parity test runs the whole engine through
this mode on localhost.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from functools import cached_property
from typing import Deque, Dict, Optional, Set

from repro.core.attributes import NodeId
from repro.net.codec import CodecError, FrameDecoder, encode_frame
from repro.net.directory import Endpoint, PeerDirectory
from repro.obs import log, names
from repro.obs.metrics import BoundCounter
from repro.runtime.messages import Envelope
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.transport import MailboxTransport


class _PeerLink:
    """One pooled outbound connection: pending frames, one flush a turn."""

    def __init__(self, transport: "TcpTransport", endpoint: Endpoint) -> None:
        self.transport = transport
        self.endpoint = endpoint
        self._label = str(endpoint)
        #: Frames accepted but not yet written: this turn's batch, or
        #: the frames in hand while the link is down (``idle`` reads it).
        self._pending: Deque[bytes] = deque()
        self._flush_scheduled = False
        #: Set whenever a flush empties ``_pending``.
        self._room = asyncio.Event()
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._dial_task: Optional["asyncio.Task[None]"] = None
        self._closing = False
        # The per-flush counters, keyed once.
        metrics = transport.metrics
        self._count_frames = metrics.bind_counter(names.NET_FRAMES_SENT, endpoint=self._label)
        self._count_bytes = metrics.bind_counter(names.NET_BYTES_SENT, endpoint=self._label)

    async def enqueue(self, frame: bytes) -> None:
        """Accept ``frame`` for the next flush (blocks on backpressure)."""
        while len(self._pending) >= self.transport.SEND_QUEUE_FRAMES and not self._closing:
            self._room.clear()
            await self._room.wait()
        self._pending.append(frame)
        if not self._flush_scheduled and self._dial_task is None:
            self._flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._flush)
        if self._writer is not None:
            try:
                # Returns at once unless the stream is above asyncio's
                # write-buffer limit: a live but slow peer blocks here.
                await self._writer.drain()
            except (ConnectionError, OSError):
                pass  # the flush finds the dead stream and redials

    def _flush(self) -> None:
        """Write every pending frame as one buffer, or go (re)dial."""
        self._flush_scheduled = False
        if not self._pending or self._closing:
            return
        reader, writer = self._reader, self._writer
        if reader is None or writer is None or writer.is_closing() or reader.at_eof():
            if writer is not None:
                # The peer went away (it never half-closes on purpose);
                # what is pending was not written, so it is retried.
                self._drop_writer()
                self._note_reconnect(0.0)
            self._dial_task = asyncio.ensure_future(self._dial())
            return
        data = b"".join(self._pending)
        frames = len(self._pending)
        self._pending.clear()
        writer.write(data)
        self._count_frames.add(frames)
        self._count_bytes.add(len(data))
        self._room.set()

    async def _dial(self) -> None:
        """Connect under exponential backoff, then flush the frames in hand."""
        backoff = self.transport.DIAL_BACKOFF_BASE
        while not self._closing:
            started = time.monotonic()
            try:
                self._reader, self._writer = await asyncio.open_connection(
                    *self.endpoint.as_pair()
                )
            except (ConnectionError, OSError):
                self._note_reconnect(backoff)
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2.0, self.transport.DIAL_BACKOFF_CAP)
            else:
                self.transport.metrics.observe(
                    names.NET_DIAL_LATENCY_S, time.monotonic() - started, endpoint=self._label
                )
                break
        self._dial_task = None
        self._flush()

    def _note_reconnect(self, backoff: float) -> None:
        self.transport.metrics.incr(names.NET_RECONNECTS, endpoint=self._label)
        log.emit(
            names.LOG_NET_RECONNECT,
            lane=names.LANE_TRANSPORT,
            severity="warning",
            endpoint=self._label,
            backoff_seconds=backoff,
        )

    def _drop_writer(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()

    async def aclose(self, grace_seconds: float) -> None:
        """Bounded-grace flush, then tear the link down."""
        try:
            await asyncio.wait_for(self._drained(), grace_seconds)
        except asyncio.TimeoutError:
            pass
        dial_task = self._dial_task
        self.close()
        if dial_task is not None:
            await asyncio.gather(dial_task, return_exceptions=True)

    async def _drained(self) -> None:
        while self._pending:
            self._room.clear()
            await self._room.wait()

    def close(self) -> None:
        self._closing = True
        if self._dial_task is not None:
            self._dial_task.cancel()
        self._room.set()  # a scheduled flush sees _closing and does nothing
        self._drop_writer()


class _InboundLink(asyncio.Protocol):
    """Inbound half of one peer connection: bytes -> frames -> inboxes."""

    transport: asyncio.BaseTransport

    def __init__(self, owner: "TcpTransport") -> None:
        self.owner = owner
        self.decoder = FrameDecoder()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self.owner._inbound.add(transport)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.owner._inbound.discard(self.transport)

    def data_received(self, data: bytes) -> None:
        owner = self.owner
        owner._count_bytes_in.add(len(data))
        corrupt = False
        try:
            frames = self.decoder.feed(data)
        except CodecError as exc:
            frames, corrupt = exc.frames, True
        for dest, envelope in frames:
            owner._route_inbound(dest, envelope)
        if corrupt:
            # Framing is lost; nothing later on this stream can be
            # trusted.  Count and drop this connection only.
            owner._count_dropped("corrupt", "error")
            self.transport.close()


class TcpTransport(MailboxTransport):
    """Length-prefix-framed envelope delivery over asyncio TCP."""

    transport_kind = "tcp"
    #: Frames a link holds for a peer before ``send`` blocks.
    SEND_QUEUE_FRAMES = 1024
    #: First redial delay (seconds); it doubles up to the cap.
    DIAL_BACKOFF_BASE = 0.05
    DIAL_BACKOFF_CAP = 2.0
    #: How long :meth:`aclose` waits for pending frames and the listener.
    CLOSE_GRACE_SECONDS = 1.0

    def __init__(
        self,
        directory: PeerDirectory,
        listen_host: str = "127.0.0.1",
        listen_port: int = 0,
        metrics: Optional[RuntimeMetrics] = None,
        force_wire: bool = False,
    ) -> None:
        super().__init__(metrics=metrics)
        self.directory = directory
        self.listen_host = listen_host
        self.listen_port = listen_port
        self.force_wire = force_wire
        self._server: Optional[asyncio.base_events.Server] = None
        self._links: Dict[Endpoint, _PeerLink] = {}
        self._inbound: Set[asyncio.BaseTransport] = set()
        self._start_lock = asyncio.Lock()
        #: Frames this process put on the wire / routed off the wire.
        self._wire_frames_out = 0
        self._wire_frames_in = 0

    # The per-chunk and per-frame inbound counters, keyed on first use
    # (by then the run's hub is bound).
    @cached_property
    def _count_bytes_in(self) -> BoundCounter:
        return self.metrics.bind_counter(names.NET_BYTES_RECEIVED)

    @cached_property
    def _count_frames_in(self) -> BoundCounter:
        return self.metrics.bind_counter(names.NET_FRAMES_RECEIVED)

    @property
    def endpoint(self) -> Endpoint:
        """The bound listen endpoint (resolved once started)."""
        return Endpoint(self.listen_host, self.listen_port)

    async def start(self) -> Endpoint:
        """Start the listener (idempotent); returns the bound endpoint."""
        async with self._start_lock:
            if self._server is None:
                self._server = await asyncio.get_running_loop().create_server(
                    lambda: _InboundLink(self), self.listen_host, self.listen_port
                )
                self.listen_port = self._server.sockets[0].getsockname()[1]
        return self.endpoint

    def _route_inbound(self, dest: NodeId, envelope: Envelope) -> None:
        self._wire_frames_in += 1
        self._count_frames_in.add()
        if not self.deliver_local(dest, envelope):
            # Arrived at the right process for the directory's idea of
            # ``dest``, but no such inbox lives here (stale shard map,
            # mid-restart window).  At-most-once: count and drop.
            self._count_dropped("unknown_address", "warning", dest=dest)

    def _count_dropped(self, reason: str, severity: str, **fields: object) -> None:
        self.metrics.incr(names.NET_FRAMES_DROPPED, reason=reason)
        log.emit(
            names.LOG_NET_FRAME_DROPPED,
            lane=names.LANE_TRANSPORT,
            severity=severity,
            reason=reason,
            **fields,
        )

    async def send(self, to: NodeId, envelope: Envelope) -> bool:
        if not self.force_wire and self.deliver_local(to, envelope):
            self._count_sent()
            return True
        endpoint = self.directory.endpoint_of(to)
        if endpoint is None:
            return False
        if self._server is None:
            await self.start()
        link = self._links.get(endpoint)
        if link is None:
            link = self._links[endpoint] = _PeerLink(self, endpoint)
        frame = encode_frame(to, envelope)
        self._wire_frames_out += 1
        await link.enqueue(frame)
        self._count_sent()
        return True

    def idle(self) -> bool:
        # In force_wire mode every wire frame loops back to this very
        # transport, so out minus in is the exact in-flight count
        # (unflushed, in the kernel, or not yet parsed).
        if self.force_wire and self._wire_frames_out != self._wire_frames_in:
            return False
        return not any(link._pending for link in self._links.values()) and super().idle()

    async def aclose(self) -> None:
        for link in list(self._links.values()):
            await link.aclose(self.CLOSE_GRACE_SECONDS)
        server = self._server
        self.close()
        if server is not None:
            try:
                await asyncio.wait_for(server.wait_closed(), self.CLOSE_GRACE_SECONDS)
            except asyncio.TimeoutError:
                pass

    def close(self) -> None:
        """Sync best-effort teardown (no flush; prefer :meth:`aclose`)."""
        for link in list(self._links.values()):
            link.close()
        self._links.clear()
        server, self._server = self._server, None
        if server is not None:
            server.close()
        for transport in list(self._inbound):
            transport.close()
        self._inbound.clear()
