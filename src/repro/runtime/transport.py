"""The transport abstraction and its in-process implementation.

Agents never talk to each other directly; they address peers by
:class:`~repro.core.attributes.NodeId` (the collector is ``-1``)
through a :class:`Transport`.  This is the seam the socket transport
(:class:`repro.net.TcpTransport`) plugs into: :class:`MailboxTransport`
owns the per-address inboxes and the timed receive both
implementations share, and :class:`InProcessTransport` completes it
with loopback delivery -- the agents are identical either way.

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
from collections import deque
from functools import cached_property
from typing import Deque, Dict, Optional, Tuple

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

    async def start(self) -> object:
        """Open this process to the others' sends (no-op by default).

        Socket transports override this to bind their listener; a run
        starts its transport before the first tick.
        """

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


#: One address's inbox: queued envelopes, and the futures of receivers
#: parked on it while it is empty.
_Inbox = Tuple[Deque[Envelope], Deque["asyncio.Future[bool]"]]


class MailboxTransport(Transport):
    """Shared inbox machinery: a deque and its parked receivers per
    address.

    Subclasses decide how an envelope reaches an inbox --
    :class:`InProcessTransport` enqueues directly on send,
    :class:`repro.net.TcpTransport` enqueues from its frame-reader
    loop -- while registration, receive, and the envelope counters are
    identical on every path.

    An envelope is queued first and its receiver woken second, never
    handed over through the future: it stays counted by
    :meth:`pending` until a receiver has actually taken it.  A timed
    receive arms one ``loop.call_at`` for its own wait and cancels it
    when the wait ends: the running loop is the only clock, so a loop
    with a virtual ``time()`` runs the transport on virtual time.
    """

    #: Metric label distinguishing implementations in the shared series.
    transport_kind = "mailbox"

    def __init__(self) -> None:
        self._inboxes: Dict[NodeId, _Inbox] = {}
        self._metrics: Optional[RuntimeMetrics] = None

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
        if address not in self._inboxes:
            self._inboxes[address] = deque(), deque()

    def deliver_local(self, address: NodeId, envelope: Envelope) -> bool:
        """Enqueue ``envelope`` on a local inbox (no send accounting)."""
        inbox = self._inboxes.get(address)
        if inbox is None:
            return False
        inbox[0].append(envelope)
        self._wake(inbox[1])
        return True

    @staticmethod
    def _wake(waiters: Deque["asyncio.Future[bool]"]) -> None:
        """Wake the longest-parked receiver that is still waiting."""
        while waiters:
            waiter = waiters.popleft()
            if not waiter.done():
                waiter.set_result(True)
                return

    @staticmethod
    def _time_out(waiter: "asyncio.Future[bool]") -> None:
        """End a timed wait, unless a delivery has already woken it."""
        if not waiter.done():
            waiter.set_result(False)

    @staticmethod
    def _unpark(waiters: Deque["asyncio.Future[bool]"], waiter: "asyncio.Future[bool]") -> None:
        """Forget a receiver that timed out or was cancelled (a delivery
        in the same turn may already have skipped over it)."""
        try:
            waiters.remove(waiter)
        except ValueError:
            pass

    async def recv(self, address: NodeId, timeout: Optional[float] = None) -> Optional[Envelope]:
        inbox = self._inboxes.get(address)
        if inbox is None:
            raise UnknownAddressError(address)
        queue, waiters = inbox
        deadline = None
        while not queue:
            # Park until a delivery (True) or the deadline (False).  The
            # deadline is fixed by the first pass: a receiver woken for
            # an envelope another one took does not start over.
            loop = asyncio.get_running_loop()
            if timeout is not None and deadline is None:
                deadline = loop.time() + timeout
            waiter: "asyncio.Future[bool]" = loop.create_future()
            waiters.append(waiter)
            timer = None if deadline is None else loop.call_at(deadline, self._time_out, waiter)
            try:
                delivered = await waiter
            except asyncio.CancelledError:
                if not waiter.done() or waiter.cancelled() or not waiter.result():
                    self._unpark(waiters, waiter)
                elif queue:
                    # Cancelled after its wake-up: what it was woken for
                    # is still queued, so the wake-up passes down the line.
                    self._wake(waiters)
                raise
            finally:
                if timer is not None:
                    timer.cancel()
            if not delivered:
                self._unpark(waiters, waiter)
                if not queue:
                    return None
        envelope = queue.popleft()
        self._delivered.add()
        return envelope

    def pending(self, address: NodeId) -> int:
        inbox = self._inboxes.get(address)
        return 0 if inbox is None else len(inbox[0])


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
