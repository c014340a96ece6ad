"""Tests for :class:`repro.net.TcpTransport` on localhost sockets."""

import asyncio
import time

import pytest

from repro.cluster.metrics import MetricRegistry
from repro.core.attributes import NodeAttributePair
from repro.core.cost import CostModel
from repro.net import PeerDirectory, TcpTransport
from repro.net.codec import encode_frame
from repro.net.deploy import allocate_endpoints
from repro.obs import names
from repro.runtime import (
    NodeAgent,
    RuntimeConfig,
    RuntimeMetrics,
    TreeLayout,
    TreeRole,
)
from repro.runtime.messages import (
    COLLECTOR_ADDRESS,
    StopEnvelope,
    TickEnvelope,
)
from repro.runtime.transport import UnknownAddressError

COST = CostModel(2.0, 1.0)


def _routing(endpoint, *addresses):
    """A directory that sends ``addresses`` to ``endpoint``."""
    directory = PeerDirectory()
    directory.assign(addresses, endpoint)
    return directory


async def _started_pair():
    """Two transports, A routing to B's listener for addresses 1 and 2."""
    b = TcpTransport(PeerDirectory())
    b.register(1)
    b.register(2)
    endpoint = await b.start()
    a = TcpTransport(_routing(endpoint, 1, 2))
    return a, b


async def _recv(transport, address, timeout=5.0):
    envelope = await transport.recv(address, timeout=timeout)
    assert envelope is not None, f"timed out waiting on address {address}"
    return envelope


class TestWireDelivery:
    def test_cross_transport_send_and_pooling(self):
        async def scenario():
            a, b = await _started_pair()
            try:
                first = TickEnvelope(period=0)
                second = TickEnvelope(period=1)
                assert await a.send(1, first)
                assert await a.send(2, second)
                assert await _recv(b, 1) == first
                assert await _recv(b, 2) == second
                # Two addresses, one endpoint: the pool holds one link.
                assert len(a._links) == 1
            finally:
                await a.aclose()
                await b.aclose()

        asyncio.run(scenario())

    def test_unroutable_address_returns_false(self):
        async def scenario():
            a = TcpTransport(PeerDirectory())
            try:
                assert not await a.send(42, TickEnvelope(period=0))
            finally:
                await a.aclose()

        asyncio.run(scenario())

    def test_recv_on_unregistered_address_raises(self):
        async def scenario():
            a = TcpTransport(PeerDirectory())
            try:
                with pytest.raises(UnknownAddressError):
                    await a.recv(7, timeout=0.01)
            finally:
                await a.aclose()

        asyncio.run(scenario())

    def test_local_fast_path_skips_the_wire(self):
        async def scenario():
            a = TcpTransport(PeerDirectory())
            a.register(5)
            try:
                envelope = TickEnvelope(period=0)
                assert await a.send(5, envelope)
                assert await _recv(a, 5) == envelope
                assert a.metrics.registry.counter_total(names.NET_FRAMES_SENT) == 0.0
            finally:
                await a.aclose()

        asyncio.run(scenario())

    def test_force_wire_loops_through_the_socket(self):
        async def scenario():
            endpoint = allocate_endpoints(1)[0]
            a = TcpTransport(
                PeerDirectory(default=endpoint),
                listen_host=endpoint.host,
                listen_port=endpoint.port,
                force_wire=True,
            )
            a.register(5)
            try:
                envelope = TickEnvelope(period=0)
                assert await a.send(5, envelope)
                assert await _recv(a, 5) == envelope
                registry = a.metrics.registry
                assert registry.counter_total(names.NET_FRAMES_SENT) == 1.0
                assert registry.counter_total(names.NET_FRAMES_RECEIVED) == 1.0
            finally:
                await a.aclose()

        asyncio.run(scenario())

    def test_unknown_inbound_address_counted_and_dropped(self):
        async def scenario():
            a, b = await _started_pair()
            # A believes address 3 lives at B, but B never registered it.
            a.directory.assign([3], b.endpoint)
            try:
                assert await a.send(3, TickEnvelope(period=0))
                registry = b.metrics.registry
                deadline = asyncio.get_event_loop().time() + 5.0
                while asyncio.get_event_loop().time() < deadline:
                    if registry.counter(
                        names.NET_FRAMES_DROPPED, reason="unknown_address"
                    ):
                        break
                    await asyncio.sleep(0.01)
                assert registry.counter(
                    names.NET_FRAMES_DROPPED, reason="unknown_address"
                ) == 1.0
            finally:
                await a.aclose()
                await b.aclose()

        asyncio.run(scenario())


def _beats(count, start=0):
    return [TickEnvelope(period=start + index) for index in range(count)]


async def _restart(endpoint):
    """A fresh transport listening on ``endpoint`` with inbox 1."""
    peer = TcpTransport(PeerDirectory(), listen_host=endpoint.host, listen_port=endpoint.port)
    peer.register(1)
    await peer.start()
    return peer


class TestCoalescedWrites:
    def test_sends_of_one_turn_leave_as_one_write(self):
        async def scenario():
            a, b = await _started_pair()
            try:
                assert await a.send(1, TickEnvelope(period=0))  # dials the link
                await _recv(b, 1)
                [link] = a._links.values()
                writes = []
                write = link._writer.write
                link._writer.write = lambda data: (writes.append(len(data)), write(data))[1]
                registry = a.metrics.registry
                frames_before = registry.counter_total(names.NET_FRAMES_SENT)
                bytes_before = registry.counter_total(names.NET_BYTES_SENT)

                batch = _beats(65)
                for envelope in batch:  # no send suspends: all in one loop turn
                    assert await a.send(1, envelope)
                assert writes == [] and b.pending(1) == 0  # accepted, unflushed
                assert [await _recv(b, 1) for _ in batch] == batch
                assert await b.recv(1, timeout=0.05) is None  # each frame once

                sizes = [len(encode_frame(1, envelope)) for envelope in batch]
                assert writes == [sum(sizes)]
                assert registry.counter_total(names.NET_FRAMES_SENT) - frames_before == 65
                assert registry.counter_total(names.NET_BYTES_SENT) - bytes_before == sum(sizes)
                assert registry.counter(
                    names.NET_FRAMES_SENT, endpoint=str(b.endpoint)
                ) == 66.0
            finally:
                await a.aclose()
                await b.aclose()

        asyncio.run(scenario())

    def test_aclose_flushes_a_pending_batch_to_a_live_peer(self):
        async def scenario():
            a, b = await _started_pair()
            try:
                batch = _beats(5)
                for envelope in batch:
                    assert await a.send(1, envelope)
                await a.aclose()  # nothing has been dialed or written yet
                assert [await _recv(b, 1) for _ in batch] == batch
            finally:
                await b.aclose()

        asyncio.run(scenario())

    def test_aclose_with_a_dead_peer_returns_within_the_grace(self, monkeypatch):
        monkeypatch.setattr(TcpTransport, "DIAL_BACKOFF_BASE", 0.01)
        monkeypatch.setattr(TcpTransport, "CLOSE_GRACE_SECONDS", 0.2)

        async def scenario():
            endpoint = allocate_endpoints(1)[0]  # nobody listens here
            a = TcpTransport(_routing(endpoint, 1))
            for envelope in _beats(3):
                assert await a.send(1, envelope)
            await asyncio.sleep(0.05)
            # Frames in hand while the link is down: nothing written.
            assert a.metrics.registry.counter_total(names.NET_FRAMES_SENT) == 0.0
            started = time.monotonic()
            await a.aclose()
            assert time.monotonic() - started < 1.0
            assert a.metrics.registry.counter_total(names.NET_FRAMES_SENT) == 0.0

        asyncio.run(scenario())


class TestReconnect:
    def test_sender_survives_peer_restart(self, monkeypatch):
        monkeypatch.setattr(TcpTransport, "DIAL_BACKOFF_BASE", 0.01)

        async def scenario():
            endpoint = allocate_endpoints(1)[0]
            b = TcpTransport(
                PeerDirectory(), listen_host=endpoint.host, listen_port=endpoint.port
            )
            b.register(1)
            await b.start()
            a = TcpTransport(_routing(endpoint, 1))
            try:
                first = TickEnvelope(period=0)
                assert await a.send(1, first)
                assert await _recv(b, 1) == first

                # Kill the peer outright, then bring a fresh one up on
                # the same port: the link must redial and deliver.  The
                # transport is at-most-once, so the frame in flight when
                # the peer died may be lost (the kernel accepts a write
                # before the RST lands) -- keep sending until one lands.
                await b.aclose()
                b = TcpTransport(
                    PeerDirectory(),
                    listen_host=endpoint.host,
                    listen_port=endpoint.port,
                )
                b.register(1)
                await b.start()
                delivered = None
                deadline = asyncio.get_event_loop().time() + 5.0
                period = 1
                while delivered is None:
                    assert asyncio.get_event_loop().time() < deadline, (
                        "link never redialed the restarted peer"
                    )
                    assert await a.send(1, TickEnvelope(period=period))
                    period += 1
                    delivered = await b.recv(1, timeout=0.2)
                assert isinstance(delivered, TickEnvelope)
            finally:
                await a.aclose()
                await b.aclose()

        asyncio.run(scenario())

    def test_frames_in_hand_reach_a_restarted_peer_once_in_order(self, monkeypatch):
        monkeypatch.setattr(TcpTransport, "DIAL_BACKOFF_BASE", 0.01)

        async def scenario():
            endpoint = allocate_endpoints(1)[0]
            b = await _restart(endpoint)
            a = TcpTransport(_routing(endpoint, 1))
            try:
                [first] = _beats(1)
                assert await a.send(1, first)
                assert await _recv(b, 1) == first
                await b.aclose()
                await asyncio.sleep(0.05)  # let A's loop see the stream end

                in_hand = _beats(3, start=1)
                for envelope in in_hand:  # the peer is down: held, not written
                    assert await a.send(1, envelope)
                await asyncio.sleep(0.05)
                registry = a.metrics.registry
                assert registry.counter_total(names.NET_FRAMES_SENT) == 1.0  # the rest held
                b = await _restart(endpoint)
                assert [await _recv(b, 1) for _ in in_hand] == in_hand
                assert await b.recv(1, timeout=0.2) is None  # nothing duplicated
                assert registry.counter_total(names.NET_FRAMES_SENT) == 4.0
                assert registry.counter_total(names.NET_RECONNECTS) >= 1.0
            finally:
                await a.aclose()
                await b.aclose()

        asyncio.run(scenario())

    def test_dead_peer_blocks_send_at_the_queue_bound(self, monkeypatch):
        monkeypatch.setattr(TcpTransport, "SEND_QUEUE_FRAMES", 4)
        monkeypatch.setattr(TcpTransport, "DIAL_BACKOFF_BASE", 0.01)

        async def scenario():
            endpoint = allocate_endpoints(1)[0]  # nobody listens yet
            a = TcpTransport(_routing(endpoint, 1))
            b = None
            try:
                held = _beats(4)
                for envelope in held:
                    assert await a.send(1, envelope)
                [late] = _beats(1, start=4)
                blocked = asyncio.ensure_future(a.send(1, late))
                await asyncio.sleep(0.2)
                assert not blocked.done()  # backpressure, not growth
                [link] = a._links.values()
                assert len(link._pending) == 4
                b = await _restart(endpoint)
                assert await asyncio.wait_for(blocked, timeout=5.0)
                assert [await _recv(b, 1) for _ in range(5)] == held + [late]
            finally:
                await a.aclose()
                if b is not None:
                    await b.aclose()

        asyncio.run(scenario())

    def test_agent_behind_a_dead_peer_stalls_alone_and_resumes_in_order(self, monkeypatch):
        """An agent awaits its own sends: at the queue bound its inbox
        stalls (ticks queue up, no task is parked per period), agents on
        other links carry on, and the peer's return replays every batch
        once, in order."""
        monkeypatch.setattr(TcpTransport, "SEND_QUEUE_FRAMES", 2)
        monkeypatch.setattr(TcpTransport, "DIAL_BACKOFF_BASE", 0.01)

        async def scenario():
            endpoint = allocate_endpoints(1)[0]  # node 1's parent: nobody listens yet
            a = TcpTransport(_routing(endpoint, 1))
            metrics = RuntimeMetrics()
            a.bind_metrics(metrics)
            config = RuntimeConfig(period_seconds=30.0)
            agents = {}
            for node, parent in ((5, 1), (6, 2)):  # 6's parent is a local inbox
                pair = NodeAttributePair(node, "a")
                layout = TreeLayout(0, frozenset({"a"}), (pair,), {node: (0, 1)})
                role = TreeRole(
                    0, layout, parent, (), (pair,), depth=1, height=1, lo=0, size=1,
                    child_ranges=(), tree_id="t0",
                )  # fmt: skip
                agents[node] = NodeAgent(
                    node, 100.0, [role], COST, MetricRegistry([pair], seed=1), a, metrics, config
                )
            # Beacons land in a local inbox: only batches use node 5's link.
            for address in (2, 5, 6, COLLECTOR_ADDRESS):
                a.register(address)
            tasks = [asyncio.ensure_future(agent.run()) for agent in agents.values()]
            b = None
            try:
                task_counts = []
                for period in range(1, 7):
                    for node in agents:
                        a.deliver_local(node, TickEnvelope(period=period))
                    await asyncio.sleep(0.02)
                    task_counts.append(len(asyncio.all_tasks()))
                # Two batches in hand, the third blocked in send, three ticks unread.
                [link] = a._links.values()
                assert len(link._pending) == 2
                assert a.pending(5) == 3
                assert len(set(task_counts[2:])) == 1, task_counts
                # The agent on the healthy link never noticed.
                assert a.pending(6) == 0
                assert [(await _recv(a, 2)).period for _ in range(6)] == [1, 2, 3, 4, 5, 6]
                assert metrics.registry.counter(names.MESSAGES_SENT, node=6, tree="t0") == 6.0

                b = await _restart(endpoint)
                batches = [await _recv(b, 1) for _ in range(6)]
                assert [(u.sender, u.period) for u in batches] == [(5, p) for p in range(1, 7)]
                assert await b.recv(1, timeout=0.2) is None  # nothing duplicated
                assert a.pending(5) == 0
            finally:
                for node in agents:
                    a.deliver_local(node, StopEnvelope())
                if b is None:  # failed before the peer came up: unblock the sender
                    for task in tasks:
                        task.cancel()
                await asyncio.wait(tasks, timeout=2.0)
                await a.aclose()
                if b is not None:
                    await b.aclose()

        asyncio.run(scenario())

    def test_frames_ahead_of_corruption_in_one_chunk_are_delivered(self):
        async def scenario():
            a, b = await _started_pair()
            try:
                good = _beats(3)
                chunk = b"".join(encode_frame(1, envelope) for envelope in good)
                reader, writer = await asyncio.open_connection(*b.endpoint.as_pair())
                writer.write(chunk + b"\x00" * 64 + encode_frame(1, TickEnvelope(period=9)))
                await writer.drain()
                # Routed first, then counted corrupt, then that
                # connection (only) closed: the peer reads EOF.
                assert [await _recv(b, 1) for _ in good] == good
                assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
                registry = b.metrics.registry
                assert registry.counter(names.NET_FRAMES_DROPPED, reason="corrupt") == 1.0
                assert registry.counter_total(names.NET_FRAMES_RECEIVED) == 3.0
                assert b.pending(1) == 0  # nothing after the corruption got in
                writer.close()
                assert await a.send(2, good[0])  # other connections still served
                assert await _recv(b, 2) == good[0]
            finally:
                await a.aclose()
                await b.aclose()

        asyncio.run(scenario())

    def test_corrupt_stream_dropped_and_counted(self):
        async def scenario():
            a, b = await _started_pair()
            try:
                reader, writer = await asyncio.open_connection(
                    *b.endpoint.as_pair()
                )
                writer.write(b"\x00" * 64)
                await writer.drain()
                registry = b.metrics.registry
                deadline = asyncio.get_event_loop().time() + 5.0
                while asyncio.get_event_loop().time() < deadline:
                    if registry.counter(names.NET_FRAMES_DROPPED, reason="corrupt"):
                        break
                    await asyncio.sleep(0.01)
                assert registry.counter(
                    names.NET_FRAMES_DROPPED, reason="corrupt"
                ) == 1.0
                writer.close()
            finally:
                await a.aclose()
                await b.aclose()

        asyncio.run(scenario())
