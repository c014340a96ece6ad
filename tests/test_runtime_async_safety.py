"""The inbox loops' receive contract.

An idle agent and the collector park on their inboxes with no timeout:
nothing they could do on a wake-up without an envelope.  Only while an
agent role waits on its children does ``recv`` time out, and then at
the earliest child-wait deadline of its waiting roles.  Both loops end on ``StopEnvelope``;
a stop that never arrives is the engine's to handle (``hosting`` drains
and then cancels the tasks), not the loops'.
"""

import asyncio

from repro.cluster.node import Cluster, SimNode
from repro.core.attributes import pairs_for
from repro.core.cost import CostModel
from repro.core.forest import ForestBuilder
from repro.core.partition import Partition
from repro.runtime import (
    COLLECTOR_ADDRESS,
    AgentOutage,
    InProcessTransport,
    MonitoringRuntime,
    RuntimeConfig,
    StopEnvelope,
)
from tests.virtual_time import run_virtual

COST = CostModel(2.0, 1.0)


def small_runtime(**config_kwargs):
    nodes = [SimNode(i, capacity=100.0, attributes=frozenset({"a"})) for i in range(4)]
    cluster = Cluster(nodes, central_capacity=400.0)
    pairs = pairs_for(range(4), ["a"])
    plan = ForestBuilder(COST).build(Partition.one_set(["a"]), pairs, cluster)
    config = RuntimeConfig(period_seconds=0.02, seed=1, **config_kwargs)
    return MonitoringRuntime(plan, cluster, config=config), plan


class RecordingTransport(InProcessTransport):
    """InProcessTransport that records every recv's timeout.

    For a waiting agent it also records the deadline's distance, on
    the loop's clock, from two instants that bracket the agent's own
    ``deadline - now``: the moment its previous recv returned (before)
    and the moment this recv began (after).
    """

    def __init__(self, agents):
        super().__init__()
        self.agents = agents
        self.idle_recvs = []  # (address, timeout)
        self.waiting_recvs = []  # (timeout, deadline - before, deadline - after)
        self._returned = {}

    async def recv(self, address, timeout=None):
        agent = self.agents.get(address)
        if agent is not None and agent._waiting:
            deadline = min(wave.deadline for wave in agent._waiting.values())
            self.waiting_recvs.append(
                (
                    timeout,
                    deadline - self._returned[address],
                    deadline - asyncio.get_running_loop().time(),
                )
            )
        else:
            self.idle_recvs.append((address, timeout))
        envelope = await super().recv(address, timeout)
        self._returned[address] = asyncio.get_running_loop().time()
        return envelope


def recording_run(periods, **config_kwargs):
    runtime, plan = small_runtime(**config_kwargs)
    transport = RecordingTransport(runtime.agents)
    runtime.transport = transport
    for agent in runtime.agents.values():
        agent.transport = transport
    runtime.collector.transport = transport
    run_virtual(runtime.run_async(periods))
    return runtime, transport


def a_leaf(plan):
    (built,) = plan.trees.values()
    tree = built.tree
    return next(n for n in tree.nodes if tree.parent(n) is not None and not tree.children(n))


class TestRecvContract:
    def test_idle_agents_and_collector_recv_without_timeout(self):
        runtime, transport = recording_run(2)
        addresses = {address for address, _ in transport.idle_recvs}
        assert COLLECTOR_ADDRESS in addresses
        assert set(runtime.agents) <= addresses
        assert all(timeout is None for _, timeout in transport.idle_recvs)

    def test_waiting_agent_times_out_at_its_deadline(self):
        _runtime, plan = small_runtime()
        dead_leaf = a_leaf(plan)
        # The dead leaf never reports, so its parent waits out the
        # child-wait deadline every period.
        _runtime, transport = recording_run(
            3, outages=[AgentOutage(node=dead_leaf, start=0, end=100)]
        )
        assert transport.waiting_recvs, "no agent ever waited on a child"
        for timeout, until_deadline_before, until_deadline_after in transport.waiting_recvs:
            assert timeout is not None and timeout > 0
            # On virtual time no instant passes between the agent
            # reading the clock and parking.
            assert until_deadline_after == timeout <= until_deadline_before


class TestStop:
    def test_agent_loop_exits_on_stop(self):
        runtime, _plan = small_runtime()
        agent = next(iter(runtime.agents.values()))
        transport = runtime.transport

        async def scenario():
            transport.register(agent.node_id)
            task = asyncio.ensure_future(agent.run())
            await asyncio.sleep(0.05)
            assert not task.done()  # parked on the inbox, not spinning out
            await transport.send(agent.node_id, StopEnvelope())
            await asyncio.wait_for(task, timeout=1.0)

        asyncio.run(scenario())

    def test_collector_loop_exits_on_stop(self):
        runtime, _plan = small_runtime()
        transport = runtime.transport

        async def scenario():
            transport.register(COLLECTOR_ADDRESS)
            task = asyncio.ensure_future(runtime.collector.run())
            await asyncio.sleep(0.05)
            assert not task.done()
            await transport.send(COLLECTOR_ADDRESS, StopEnvelope())
            await asyncio.wait_for(task, timeout=1.0)

        asyncio.run(scenario())
