"""Tests for the live asyncio runtime (`repro.runtime`)."""

import asyncio
import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.metrics import MetricRegistry
from repro.cluster.node import Cluster, SimNode
from repro.core.attributes import NodeAttributePair, pairs_for
from repro.core.cost import CostModel
from repro.core.forest import ForestBuilder
from repro.core.partition import Partition
from repro.obs.export import prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.runtime import (
    AgentOutage,
    COLLECTOR_ADDRESS,
    CollectorAgent,
    DropPolicy,
    HeartbeatEnvelope,
    Histogram,
    InProcessTransport,
    MonitoringRuntime,
    NodeAgent,
    RuntimeConfig,
    RuntimeMetrics,
    StopEnvelope,
    TickEnvelope,
    TreeRole,
    UpdateEnvelope,
)
from repro.runtime.messages import union_payloads
from repro.simulation.messages import Reading

COST = CostModel(2.0, 1.0)

FAST = dict(period_seconds=0.02, seed=1)


def plan_for(cluster, pairs, partition=None):
    partition = partition or Partition.singletons({p.attribute for p in pairs})
    return ForestBuilder(COST).build(partition, pairs, cluster)


def overloaded_setup(root_budget_delta: float):
    """Plan against generous capacity, then run with the tree root's
    budget set to ``used + root_budget_delta`` (negative overloads it)."""
    plan_nodes = [
        SimNode(i, capacity=100.0, attributes=frozenset({"a"})) for i in range(8)
    ]
    plan_cluster = Cluster(plan_nodes, central_capacity=500.0)
    pairs = pairs_for(range(8), ["a"])
    plan = ForestBuilder(COST).build(Partition.one_set(["a"]), pairs, plan_cluster)
    tree = plan.trees[frozenset({"a"})].tree
    root = tree.root
    root_budget = max(tree.used(root) + root_budget_delta, 1e-6)
    run_nodes = [
        SimNode(
            i,
            capacity=root_budget if i == root else 100.0,
            attributes=frozenset({"a"}),
        )
        for i in range(8)
    ]
    return plan, Cluster(run_nodes, central_capacity=500.0)


class TestTransport:
    def test_send_recv_roundtrip(self):
        async def scenario():
            transport = InProcessTransport()
            transport.register(1)
            tick = TickEnvelope(period=0)
            assert await transport.send(1, tick)
            assert transport.pending(1) == 1
            received = await transport.recv(1, timeout=0.1)
            assert received is tick
            assert transport.pending(1) == 0

        asyncio.run(scenario())

    def test_send_to_unknown_address_is_refused(self):
        async def scenario():
            transport = InProcessTransport()
            assert not await transport.send(99, TickEnvelope(period=0))

        asyncio.run(scenario())

    def test_recv_timeout_returns_none(self):
        async def scenario():
            transport = InProcessTransport()
            transport.register(COLLECTOR_ADDRESS)
            assert await transport.recv(COLLECTOR_ADDRESS, timeout=0.01) is None

        asyncio.run(scenario())

    def test_transport_counts_envelopes(self):
        async def scenario():
            transport = InProcessTransport()
            transport.register(1)
            await transport.send(1, TickEnvelope(period=0))
            await transport.send(1, TickEnvelope(period=1))
            await transport.recv(1)
            assert transport.envelopes_sent == 2
            assert transport.envelopes_delivered == 1

        asyncio.run(scenario())


class TestMetrics:
    def test_histogram_quantiles(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(float(v))
        assert h.count == 100
        assert h.mean == pytest.approx(50.5)
        assert h.quantile(0.5) == pytest.approx(50.5)
        assert h.quantile(1.0) == pytest.approx(100.0)
        assert h.min == pytest.approx(1.0)

    def test_histogram_empty_and_bad_quantile(self):
        h = Histogram()
        assert h.quantile(0.5) == 0.0
        assert h.summary()["count"] == 0.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_counters_and_dict_shape(self):
        m = RuntimeMetrics()
        m.incr("messages_sent")
        m.incr("messages_sent", 2)
        m.observe("latency", 0.5)
        snapshot = m.as_dict()
        assert snapshot["counters"]["messages_sent"] == 3.0
        assert snapshot["histograms"]["latency"]["count"] == 1.0
        assert "messages_sent" in m.render()

    def test_bound_counter_is_incr_with_the_key_built_once(self):
        """Same series, same readers, exporter text and dump/absorb round
        trip as ``incr(**labels)``; binding alone creates nothing."""
        script = [
            ("messages_sent", 1, dict(node=3, tree="t0")),
            ("messages_sent", 1, dict(tree="t0", node=3)),
            ("messages_sent", 1, dict(node=4, tree="t1")),
            ("cost_units_spent", 12.5, dict(node=3)),
            ("cost_units_spent", 3, dict(node=3)),
            ("messages_delivered", 2, {}),
        ]
        by_incr, by_bound = RuntimeMetrics(), RuntimeMetrics()
        for name, amount, labels in script:
            by_incr.incr(name, amount, **labels)
            by_bound.bind_counter(name, **labels).add(amount)
        never = by_bound.bind_counter("values_trimmed", node=3)
        assert by_bound.counters() == by_incr.counters()
        assert by_bound.registry.counters() == by_incr.registry.counters()
        assert prometheus_text(by_bound.registry) == prometheus_text(by_incr.registry)
        assert by_bound.registry.dump() == by_incr.registry.dump()
        merged = MetricsRegistry()
        merged.absorb(by_bound.registry.dump())
        assert merged.counters() == by_incr.registry.counters()
        assert "values_trimmed" not in by_bound.counters()
        assert "values_trimmed" not in prometheus_text(by_bound.registry)
        never.add(0)  # the first add creates the series, as the first incr does
        assert by_bound.counters()["values_trimmed"] == 0.0
        # A bound counter survives the registry being cleared under it.
        by_bound.registry.clear()
        never.add(2)
        assert by_bound.counters() == {"values_trimmed": 2.0}


class TestConfig:
    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            RuntimeConfig(period_seconds=0.0)

    def test_rejects_bad_child_wait(self):
        with pytest.raises(ValueError):
            RuntimeConfig(child_wait_fraction=0.0)

    def test_rejects_bad_timeouts(self):
        with pytest.raises(ValueError):
            RuntimeConfig(heartbeat_every=0)
        with pytest.raises(ValueError):
            RuntimeConfig(failure_timeout=0)

    def test_outage_window_validates(self):
        with pytest.raises(ValueError):
            AgentOutage(node=1, start=5, end=5)
        with pytest.raises(ValueError):
            AgentOutage(node=1, start=-1, end=2)


class TestHappyPath:
    def test_feasible_plan_runs_clean(self, small_cluster):
        pairs = pairs_for(range(6), ["a", "b"])
        plan = plan_for(small_cluster, pairs)
        report = MonitoringRuntime(
            plan, small_cluster, config=RuntimeConfig(**FAST)
        ).run(8)
        assert report.final_coverage == pytest.approx(1.0)
        assert report.mean_fresh_coverage == pytest.approx(1.0)
        assert report.messages_dropped == 0
        assert report.mean_percentage_error == pytest.approx(0.0, abs=1e-9)
        assert len(report.samples) == 8

    def test_message_volume_matches_topology(self, small_cluster):
        pairs = pairs_for(range(6), ["a"])
        plan = plan_for(small_cluster, pairs)
        members = sum(len(r.tree) for r in plan.trees.values())
        report = MonitoringRuntime(
            plan, small_cluster, config=RuntimeConfig(**FAST)
        ).run(5)
        assert report.messages_sent == 5 * members
        assert int(report.metrics.counter("heartbeats_sent")) == 5 * members

    def test_heartbeat_interval_respected(self, small_cluster):
        pairs = pairs_for(range(6), ["a"])
        plan = plan_for(small_cluster, pairs)
        config = RuntimeConfig(heartbeat_every=2, **FAST)
        report = MonitoringRuntime(plan, small_cluster, config=config).run(4)
        members = sum(len(r.tree) for r in plan.trees.values())
        assert int(report.metrics.counter("heartbeats_sent")) == 2 * members

    def test_rejects_nonpositive_periods(self, small_cluster):
        pairs = pairs_for(range(6), ["a"])
        plan = plan_for(small_cluster, pairs)
        runtime = MonitoringRuntime(plan, small_cluster, config=RuntimeConfig(**FAST))
        with pytest.raises(ValueError):
            runtime.run(0)

    def test_report_is_json_shaped(self, small_cluster):
        import json

        pairs = pairs_for(range(6), ["a"])
        plan = plan_for(small_cluster, pairs)
        report = MonitoringRuntime(
            plan, small_cluster, config=RuntimeConfig(**FAST)
        ).run(3)
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["coverage"]["final"] == pytest.approx(1.0)
        assert payload["messages"]["sent"] > 0
        assert len(payload["per_period"]) == 3


class TestDropPolicies:
    def test_trim_sheds_values_not_messages(self):
        plan, cluster = overloaded_setup(root_budget_delta=-2.0)
        config = RuntimeConfig(drop_policy=DropPolicy.TRIM, **FAST)
        report = MonitoringRuntime(plan, cluster, config=config).run(5)
        assert int(report.metrics.counter("values_trimmed")) > 0
        assert int(report.metrics.counter("messages_dropped_capacity")) == 0
        assert report.mean_fresh_coverage > 0.5

    def test_drop_is_all_or_nothing(self):
        plan, cluster = overloaded_setup(root_budget_delta=-2.0)
        config = RuntimeConfig(drop_policy=DropPolicy.DROP, **FAST)
        report = MonitoringRuntime(plan, cluster, config=config).run(5)
        assert int(report.metrics.counter("messages_dropped_capacity")) > 0
        assert int(report.metrics.counter("values_trimmed")) == 0

    def test_defer_carries_overflow_to_next_period(self):
        plan, cluster = overloaded_setup(root_budget_delta=-2.0)
        config = RuntimeConfig(drop_policy=DropPolicy.DEFER, **FAST)
        report = MonitoringRuntime(plan, cluster, config=config).run(6)
        assert int(report.metrics.counter("values_deferred")) > 0
        assert int(report.metrics.counter("values_trimmed")) == 0
        # Backpressure trades freshness, not coverage: deferred values
        # still arrive eventually.
        assert report.final_coverage == pytest.approx(1.0)
        assert report.metrics.histogram("staleness_periods").max >= 1.0

    def test_enforcement_off_ignores_budgets(self):
        plan, cluster = overloaded_setup(root_budget_delta=-1e9)
        config = RuntimeConfig(enforce_capacity=False, **FAST)
        report = MonitoringRuntime(plan, cluster, config=config).run(5)
        assert report.messages_dropped == 0
        assert report.mean_fresh_coverage == pytest.approx(1.0)


class TestFailureDetection:
    def _chain_plan(self, cluster):
        pairs = pairs_for(range(6), ["a"])
        return plan_for(cluster, pairs, Partition.one_set(["a"]))

    def test_dead_node_is_flagged_and_recovers(self, small_cluster):
        pairs = pairs_for(range(6), ["a", "b"])
        plan = plan_for(small_cluster, pairs)
        config = RuntimeConfig(
            failure_timeout=2,
            outages=[AgentOutage(node=3, start=2, end=5)],
            **FAST,
        )
        report = MonitoringRuntime(plan, small_cluster, config=config).run(9)
        kinds = [(e.node, e.kind) for e in report.failure_events]
        assert (3, "down") in kinds
        assert (3, "recovered") in kinds
        down = next(e for e in report.failure_events if e.kind == "down")
        recovered = next(e for e in report.failure_events if e.kind == "recovered")
        # Flagged after the timeout lapses, recovered after the outage.
        assert down.period >= 2
        assert recovered.period >= 5

    def test_interior_node_outage_loses_subtree(self):
        # A chain-ish single tree: killing an interior node silences
        # its whole subtree (messages dropped at the dead hop).
        nodes = [
            SimNode(node_id=i, capacity=40.0, attributes=frozenset({"a"}))
            for i in range(6)
        ]
        cluster = Cluster(nodes, central_capacity=60.0)
        plan = self._chain_plan(cluster)
        interior = None
        tree = plan.trees[frozenset({"a"})].tree
        for node in tree.nodes:
            if tree.parent(node) is not None and tree.children(node):
                interior = node
                break
        assert interior is not None, "workload should build a multi-level tree"
        config = RuntimeConfig(outages=[AgentOutage(node=interior, start=1, end=4)], **FAST)
        report = MonitoringRuntime(plan, cluster, config=config).run(6)
        lost = 1 + len(tree.subtree_nodes(interior)) - 1
        assert int(report.metrics.counter("messages_dropped_failure")) > 0
        # Freshness dips while the subtree is dark, then recovers.
        dark = [s.fresh_fraction for s in report.samples if 1 <= s.period < 4]
        bright = [s.fresh_fraction for s in report.samples if s.period >= 4]
        assert max(dark) < 1.0
        assert bright[-1] == pytest.approx(1.0)
        assert lost >= 2

    def test_down_agent_sends_nothing(self, small_cluster):
        pairs = pairs_for(range(6), ["a"])
        plan = plan_for(small_cluster, pairs)
        config = RuntimeConfig(outages=[AgentOutage(node=0, start=0, end=100)], **FAST)
        report = MonitoringRuntime(plan, small_cluster, config=config).run(4)
        assert int(report.metrics.counter("agent_down_periods")) == 4
        assert report.mean_fresh_coverage < 1.0


TREE = frozenset({"a"})


class OneAgent:
    """Interior node 0 (children 1 and 2, parent 9) of one tree on an
    in-process transport, fed one envelope at a time."""

    def __init__(self, **config):
        self.transport = InProcessTransport()
        for address in (0, 9, COLLECTOR_ADDRESS):
            self.transport.register(address)
        self.metrics = RuntimeMetrics()
        own = NodeAttributePair(0, "a")
        role = TreeRole(
            attr_set=TREE, parent=9, children=(1, 2), local_pairs=(own,),
            depth=1, height=2, tree_id="t0",
        )
        self.agent = NodeAgent(
            0, 100.0, [role], COST, MetricRegistry([own], seed=1),
            self.transport, self.metrics, RuntimeConfig(**config),
        )

    def run(self, scenario):
        async def main():
            self.task = asyncio.ensure_future(self.agent.run())
            try:
                await scenario(self)
            finally:
                await self.stop()

        asyncio.run(main())

    async def stop(self):
        if not self.task.done():
            self.transport.deliver_local(0, StopEnvelope())
        await asyncio.wait_for(self.task, timeout=2.0)

    async def feed(self, *envelopes):
        """Deliver to the agent's inbox and let it react to all of it."""
        for envelope in envelopes:
            self.transport.deliver_local(0, envelope)
        while self.transport.pending(0):
            await asyncio.sleep(0)
        await asyncio.sleep(0)

    def child(self, sender, period=0):
        pair = NodeAttributePair(sender, "a")
        return UpdateEnvelope(sender, TREE, period, {pair: Reading(1.0, float(period))})

    async def outbox(self, address=9):
        """Everything the agent has sent to ``address`` since last asked."""
        return [
            await self.transport.recv(address, timeout=0.1)
            for _ in range(self.transport.pending(address))
        ]

    def counter(self, name):
        return self.metrics.counter(name)


def nodes_in(update):
    return sorted(pair.node for pair in update.payload)


class TestAgentStateMachine:
    """The inbox-driven wave: one emit per role per period, whatever
    the order of arrival; deadline, next tick and stop flush the rest."""

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_one_emit_per_period_in_any_arrival_order(self, order):
        async def scenario(one):
            events = [TickEnvelope(period=0), one.child(1), one.child(2)]
            sent = []
            for index in order:  # a child's update may even beat the tick
                await one.feed(events[index])
                sent.extend(await one.outbox())
            assert len(sent) == 1
            assert (sent[0].sender, sent[0].period, nodes_in(sent[0])) == (0, 0, [0, 1, 2])
            assert not one.agent.busy()
            # The next period is a new wave with nobody reported yet.
            await one.feed(TickEnvelope(period=1))
            assert await one.outbox() == [] and one.agent.busy()
            await one.feed(one.child(2, period=1), one.child(1, period=1))
            [second] = await one.outbox()
            assert (second.period, nodes_in(second)) == (1, [0, 1, 2])
            assert one.counter("child_wait_timeouts") == 0
            assert one.counter("messages_sent") == 2
            assert one.counter("messages_delivered") == 4

        OneAgent(period_seconds=30.0).run(scenario)

    def test_silent_child_costs_one_emit_at_the_deadline(self):
        async def scenario(one):
            wait = one.agent.config.child_wait_seconds
            started = time.monotonic()
            await one.feed(TickEnvelope(period=0), one.child(1))
            assert await one.outbox() == [] and one.agent.busy()
            update = await one.transport.recv(9, timeout=2.0)
            assert time.monotonic() - started >= wait
            assert (update.period, nodes_in(update)) == (0, [0, 1])
            assert one.counter("child_wait_timeouts") == 1
            assert not one.agent.busy()
            # The straggler is kept for the next batch, not sent on its own.
            await one.feed(one.child(2))
            await asyncio.sleep(wait)
            assert await one.outbox() == []
            assert one.counter("child_wait_timeouts") == 1
            assert one.counter("messages_sent") == 1
            await one.feed(TickEnvelope(period=1), one.child(1, 1), one.child(2, 1))
            [update] = await one.outbox()
            assert (update.period, nodes_in(update)) == (1, [0, 1, 2])

        OneAgent(period_seconds=0.1, child_wait_fraction=0.5).run(scenario)

    def test_next_tick_flushes_the_old_period_first(self):
        async def scenario(one):
            await one.feed(TickEnvelope(period=0), one.child(1))
            assert await one.outbox() == []
            await one.feed(TickEnvelope(period=1))
            [flushed] = await one.outbox()
            assert (flushed.period, nodes_in(flushed)) == (0, [0, 1])
            assert one.counter("child_wait_timeouts") == 1
            assert one.agent.busy()  # period 1 now waits on both children
            await one.feed(one.child(1, 1), one.child(2, 1))
            [update] = await one.outbox()
            assert (update.period, nodes_in(update)) == (1, [0, 1, 2])
            assert one.counter("child_wait_timeouts") == 1
            beats = await one.outbox(COLLECTOR_ADDRESS)
            assert beats == [HeartbeatEnvelope(0, 0), HeartbeatEnvelope(0, 1)]

        OneAgent(period_seconds=30.0).run(scenario)

    def test_stop_flushes_an_open_wave(self):
        async def scenario(one):
            await one.feed(TickEnvelope(period=0), one.child(2))
            await one.stop()
            [update] = await one.outbox()
            assert (update.period, nodes_in(update)) == (0, [0, 2])
            assert one.counter("child_wait_timeouts") == 1

        OneAgent(period_seconds=30.0).run(scenario)

    def test_scripted_down_node_neither_emits_nor_beacons(self):
        async def scenario(one):
            await one.feed(TickEnvelope(period=0), one.child(1), one.child(2))
            assert await one.outbox() == [] and await one.outbox(COLLECTOR_ADDRESS) == []
            assert not one.agent.busy()
            assert one.counter("agent_down_periods") == 1
            assert one.counter("messages_dropped_failure") == 2
            assert one.counter("messages_delivered") == 0
            await one.feed(TickEnvelope(period=1), one.child(1, 1), one.child(2, 1))
            [update] = await one.outbox()
            assert (update.period, nodes_in(update)) == (1, [0, 1, 2])
            assert await one.outbox(COLLECTOR_ADDRESS) == [HeartbeatEnvelope(0, 1)]

        OneAgent(period_seconds=30.0, outages=[AgentOutage(node=0, start=0, end=1)]).run(scenario)


PAIRS = [NodeAttributePair(node, attr) for node in range(3) for attr in "ab"]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.dictionaries(st.sampled_from(PAIRS), st.sampled_from([0.0, 1.0, 2.0]), max_size=6),
        min_size=1,
        max_size=5,
    )
)
def test_relay_union_is_repeated_merge_into(ages):
    """Freshest wins, a tie goes to the later arrival -- whether the
    payloads overlap (per-pair path) or not (dict.update path)."""
    # Reading.value numbers the arrival, so equal readings are one arrival.
    payloads = [
        {pair: Reading(float(arrival), sampled_at) for pair, sampled_at in payload.items()}
        for arrival, payload in enumerate(ages)
    ]
    before = [dict(payload) for payload in payloads]
    expected = {}
    for payload in payloads:
        UpdateEnvelope(sender=1, tree=TREE, period=0, payload=payload).merge_into(expected)
    assert union_payloads(payloads) == expected
    assert payloads == before  # the inputs belong to their envelopes


class TestCollectorTickAnchors:
    def test_anchor_table_stays_bounded_over_a_long_run(self):
        transport = InProcessTransport()
        metrics = RuntimeMetrics()
        pair = NodeAttributePair(0, "a")
        collector = CollectorAgent(
            [pair], [0], 100.0, COST, MetricRegistry([pair], seed=1), transport, metrics,
            RuntimeConfig(failure_timeout=3),
        )
        reading = {pair: Reading(1.0, 0.0)}
        for period in range(1000):
            collector._on_tick(TickEnvelope(period=period))
            collector._on_update(UpdateEnvelope(0, TREE, period, reading))
            collector.close_period(period)
            assert len(collector._tick_monotonic) <= 3
        latency = metrics.histogram("collection_latency_s")
        assert latency.count == 1000
        # Recent periods keep their anchor; a pruned one records nothing.
        collector._on_update(UpdateEnvelope(0, TREE, 999, reading))
        assert latency.count == 1001
        collector._on_update(UpdateEnvelope(0, TREE, 0, reading))
        assert latency.count == 1001
        assert metrics.counter("messages_delivered") == 1002
