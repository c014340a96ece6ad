"""Regression tests for the async-safety fix the static analysis
framework surfaced (REMO414 recv timeouts).

The finding: agent/collector inbox loops awaited ``transport.recv``
with no timeout (a dropped stop message would hang them forever on a
real socket transport).  These tests pin the fixed behaviour.
"""

import asyncio

import pytest

from repro.cluster.node import Cluster, SimNode
from repro.core.attributes import pairs_for
from repro.core.cost import CostModel
from repro.core.forest import ForestBuilder
from repro.core.partition import Partition
from repro.runtime import (
    InProcessTransport,
    MonitoringRuntime,
    RuntimeConfig,
    StopEnvelope,
)

COST = CostModel(2.0, 1.0)


def small_runtime(**config_kwargs):
    nodes = [SimNode(i, capacity=100.0, attributes=frozenset({"a"})) for i in range(4)]
    cluster = Cluster(nodes, central_capacity=400.0)
    pairs = pairs_for(range(4), ["a"])
    plan = ForestBuilder(COST).build(Partition.one_set(["a"]), pairs, cluster)
    config = RuntimeConfig(period_seconds=0.02, seed=1, **config_kwargs)
    return MonitoringRuntime(plan, cluster, config=config)


class RecordingTransport(InProcessTransport):
    """InProcessTransport that records the timeout of every recv."""

    def __init__(self):
        super().__init__()
        self.recv_timeouts = []

    async def recv(self, address, timeout=None):
        self.recv_timeouts.append((address, timeout))
        return await super().recv(address, timeout)


class TestRecvTimeouts:
    def test_run_loops_always_recv_with_timeout(self):
        """REMO414 regression: no inbox await may lack a timeout guard.

        The collector always waits the idle timeout; an agent waits at
        most that, less while a role's child-wait deadline is nearer.
        """
        transport = RecordingTransport()
        runtime = small_runtime(recv_timeout_seconds=0.5)
        runtime.transport = transport
        for agent in runtime.agents.values():
            agent.transport = transport
        runtime.collector.transport = transport
        runtime.run(2)
        assert transport.recv_timeouts, "run loops never touched the transport"
        for address, timeout in transport.recv_timeouts:
            if address == runtime.collector.address:
                assert timeout == 0.5
            else:
                assert timeout is not None and 0 < timeout <= 0.5

    def test_agent_loop_survives_recv_timeouts(self):
        """A timed-out recv (None envelope) re-checks the inbox instead
        of crashing or treating None as a message."""
        runtime = small_runtime(recv_timeout_seconds=0.01)
        agent = next(iter(runtime.agents.values()))
        transport = runtime.transport

        async def scenario():
            transport.register(agent.node_id)
            task = asyncio.ensure_future(agent.run())
            await asyncio.sleep(0.05)  # several recv timeouts elapse
            assert not task.done()
            await transport.send(agent.node_id, StopEnvelope())
            await asyncio.wait_for(task, timeout=1.0)

        asyncio.run(scenario())

    def test_collector_loop_survives_recv_timeouts(self):
        from repro.runtime import COLLECTOR_ADDRESS

        runtime = small_runtime(recv_timeout_seconds=0.01)
        transport = runtime.transport

        async def scenario():
            transport.register(COLLECTOR_ADDRESS)
            task = asyncio.ensure_future(runtime.collector.run())
            await asyncio.sleep(0.05)
            assert not task.done()
            await transport.send(COLLECTOR_ADDRESS, StopEnvelope())
            await asyncio.wait_for(task, timeout=1.0)

        asyncio.run(scenario())

    def test_recv_timeout_must_be_positive(self):
        with pytest.raises(ValueError):
            RuntimeConfig(recv_timeout_seconds=0.0)
        with pytest.raises(ValueError):
            RuntimeConfig(recv_timeout_seconds=-1.0)
