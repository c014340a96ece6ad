"""The transport abstraction and its in-process implementation.

Agents never talk to each other directly; they address peers by
:class:`~repro.core.attributes.NodeId` (the collector is ``-1``)
through a :class:`Transport`.  This is the seam the socket transport
(:class:`repro.net.TcpTransport`) plugs into: :class:`MailboxTransport`
owns the per-address inbox queues both implementations share, and
:class:`InProcessTransport` completes it with loopback delivery -- the
agents are identical either way.

Error contract (uniform across implementations):

- :meth:`Transport.send` to an address the transport cannot resolve
  returns ``False`` (the runtime's analogue of connection refused);
- :meth:`Transport.recv` on an address that was never
  :meth:`Transport.register`-ed raises :class:`UnknownAddressError` --
  a typed error, because receiving on a foreign inbox is always a
  wiring bug, never a runtime condition.
"""

from __future__ import annotations

import abc
import asyncio
from functools import cached_property
from typing import Dict, List, Optional

from repro.core.attributes import NodeId
from repro.obs import names
from repro.obs.metrics import BoundCounter
from repro.runtime.messages import Envelope
from repro.runtime.metrics import RuntimeMetrics


class UnknownAddressError(KeyError):
    """``recv`` (or ``pending``) was asked about an unregistered inbox."""

    def __init__(self, address: NodeId) -> None:
        super().__init__(address)
        self.address = address

    def __str__(self) -> str:
        return f"no inbox registered for address {self.address}"


class Transport(abc.ABC):
    """Point-to-point, ordered, at-most-once envelope delivery."""

    @abc.abstractmethod
    def register(self, address: NodeId) -> None:
        """Create an inbox for ``address`` (idempotent)."""

    @abc.abstractmethod
    def addresses(self) -> List[NodeId]:
        """All registered addresses."""

    @abc.abstractmethod
    async def send(self, to: NodeId, envelope: Envelope) -> bool:
        """Deliver ``envelope`` to ``to``'s inbox.

        Returns ``False`` if the address is unknown (the runtime's
        analogue of a connection refused -- the caller decides whether
        that is an error).
        """

    @abc.abstractmethod
    async def recv(self, address: NodeId, timeout: Optional[float] = None) -> Optional[Envelope]:
        """Next envelope for ``address``, or ``None`` on timeout.

        Raises :class:`UnknownAddressError` when ``address`` was never
        registered on this transport.
        """

    @abc.abstractmethod
    def pending(self, address: NodeId) -> int:
        """Number of queued envelopes at ``address``."""

    def idle(self) -> bool:
        """Whether no envelope is queued or in flight anywhere.

        The engine's settle loop polls this; implementations with
        off-inbox buffering (socket send queues, in-kernel frames)
        override it to account for envelopes the inboxes cannot see.
        """
        return all(self.pending(address) == 0 for address in self.addresses())

    def bind_metrics(self, metrics: RuntimeMetrics) -> None:
        """Attach the run's metrics hub (no-op once bound).

        Transports report ``transport_envelopes_sent`` /
        ``transport_envelopes_delivered`` (and, for socket transports,
        the wire-level ``net_*`` series) through this hub so the
        in-process and TCP paths feed one registry.
        """

    def close(self) -> None:
        """Release transport resources (no-op by default)."""

    async def aclose(self) -> None:
        """Async teardown; defaults to the sync :meth:`close`.

        Socket transports override this to flush send queues and await
        stream shutdown, which cannot be done from sync code.
        """
        self.close()


class MailboxTransport(Transport):
    """Shared inbox machinery: one :class:`asyncio.Queue` per address.

    Subclasses decide how an envelope reaches a queue --
    :class:`InProcessTransport` enqueues directly on send,
    :class:`repro.net.TcpTransport` enqueues from its frame-reader
    loop -- while registration, receive, and the envelope counters are
    identical on every path.
    """

    #: Metric label distinguishing implementations in the shared series.
    transport_kind = "mailbox"

    def __init__(self, metrics: Optional[RuntimeMetrics] = None) -> None:
        self._queues: Dict[NodeId, "asyncio.Queue[Envelope]"] = {}
        self._metrics: Optional[RuntimeMetrics] = metrics

    # -- metrics -------------------------------------------------------
    def bind_metrics(self, metrics: RuntimeMetrics) -> None:
        if self._metrics is None:
            self._metrics = metrics

    @property
    def metrics(self) -> RuntimeMetrics:
        """The bound metrics hub (a private one until bound)."""
        if self._metrics is None:
            self._metrics = RuntimeMetrics()
        return self._metrics

    @property
    def envelopes_sent(self) -> int:
        """Total envelopes accepted for delivery (all series labels)."""
        return int(self.metrics.counter(names.TRANSPORT_ENVELOPES_SENT))

    @property
    def envelopes_delivered(self) -> int:
        """Total envelopes handed to a receiver via :meth:`recv`."""
        return int(self.metrics.counter(names.TRANSPORT_ENVELOPES_DELIVERED))

    # One series each per transport, keyed on first use (by then the
    # run's hub is bound; ``bind_metrics`` is a no-op afterwards).
    @cached_property
    def _sent(self) -> BoundCounter:
        return self.metrics.bind_counter(
            names.TRANSPORT_ENVELOPES_SENT, transport=self.transport_kind
        )

    @cached_property
    def _delivered(self) -> BoundCounter:
        return self.metrics.bind_counter(
            names.TRANSPORT_ENVELOPES_DELIVERED, transport=self.transport_kind
        )

    def _count_sent(self) -> None:
        self._sent.add()

    # -- inboxes -------------------------------------------------------
    def register(self, address: NodeId) -> None:
        if address not in self._queues:
            self._queues[address] = asyncio.Queue()

    def addresses(self) -> List[NodeId]:
        return sorted(self._queues)

    def deliver_local(self, address: NodeId, envelope: Envelope) -> bool:
        """Enqueue ``envelope`` on a local inbox (no send accounting)."""
        queue = self._queues.get(address)
        if queue is None:
            return False
        queue.put_nowait(envelope)
        return True

    async def recv(self, address: NodeId, timeout: Optional[float] = None) -> Optional[Envelope]:
        queue = self._queues.get(address)
        if queue is None:
            raise UnknownAddressError(address)
        if timeout is None:
            envelope = await queue.get()
        else:
            # Fast path: a queued envelope is handed over without
            # suspending the caller.  For the empty-queue wait, use
            # asyncio.timeout rather than wait_for: wait_for wraps the
            # get in an extra task, adding a scheduler hop to every
            # wakeup of the hot inbox loops -- and an agent's recv
            # timeout is its child-wait deadline, so a late wakeup is
            # a late flush.
            try:
                envelope = queue.get_nowait()
            except asyncio.QueueEmpty:
                try:
                    async with asyncio.timeout(timeout):
                        envelope = await queue.get()
                except TimeoutError:
                    return None
        self._delivered.add()
        return envelope

    def pending(self, address: NodeId) -> int:
        queue = self._queues.get(address)
        return 0 if queue is None else queue.qsize()


class InProcessTransport(MailboxTransport):
    """Loopback transport: every address lives in this process.

    Delivery is immediate (enqueue on send); ordering per
    sender-receiver pair follows send order, which is what a TCP
    stream would give.  ``transport_envelopes_sent`` /
    ``transport_envelopes_delivered`` are recorded into the bound
    metrics hub -- the same series the TCP transport reports, so the
    report's transport health row is engine-agnostic.
    """

    transport_kind = "inproc"

    async def send(self, to: NodeId, envelope: Envelope) -> bool:
        if not self.deliver_local(to, envelope):
            return False
        self._count_sent()
        return True
