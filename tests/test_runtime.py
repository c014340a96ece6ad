"""Tests for the live asyncio runtime (`repro.runtime`)."""

import asyncio
import dataclasses
import itertools
import json
import os
import subprocess
import sys
import time
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.cluster.metrics import MetricRegistry
from repro.cluster.node import Cluster, SimNode
from repro.core.attributes import NodeAttributePair, pairs_for
from repro.core.cost import CostModel
from repro.core.forest import ForestBuilder
from repro.core.partition import Partition
from repro.obs import names
from repro.obs.export import prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.core.planner import RemoPlanner
from repro.net import PeerDirectory, TcpTransport
from repro.net.deploy import allocate_endpoints
from repro.runtime import (
    AgentOutage,
    Batch,
    COLLECTOR_ADDRESS,
    CollectorAgent,
    Histogram,
    InProcessTransport,
    MonitoringRuntime,
    NodeAgent,
    RuntimeConfig,
    RuntimeMetrics,
    StopEnvelope,
    TickEnvelope,
    TreeLayout,
    TreeRole,
    UpdateEnvelope,
    compile_layouts,
)
from repro.runtime.messages import ABSENT, gather
from repro.workloads.presets import quickstart_workload, sampled_workload
from tests.virtual_time import run_virtual

COST = CostModel(2.0, 1.0)

FAST = dict(period_seconds=0.02, seed=1)


def messages_dropped(report):
    """Messages the run dropped, for any reason."""
    return sum(
        report.metrics.counter(name)
        for name in (
            names.MESSAGES_DROPPED_CAPACITY,
            names.MESSAGES_DROPPED_FAILURE,
            names.MESSAGES_DROPPED_INVALID,
        )
    )


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
            assert transport.metrics.counter(names.TRANSPORT_ENVELOPES_SENT) == 2
            assert transport.metrics.counter(names.TRANSPORT_ENVELOPES_DELIVERED) == 1

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
        for seconds in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                RuntimeConfig(period_seconds=seconds)

    def test_rejects_bad_child_wait(self):
        with pytest.raises(ValueError):
            RuntimeConfig(child_wait_fraction=0.0)

    def test_rejects_bad_timeouts(self):
        with pytest.raises(ValueError):
            RuntimeConfig(failure_timeout=0)

    def test_outage_window_validates(self):
        with pytest.raises(ValueError):
            AgentOutage(node=1, start=5, end=5)
        with pytest.raises(ValueError):
            AgentOutage(node=1, start=-1, end=2)

    def test_outage_windows_are_half_open(self):
        config = RuntimeConfig(outages=[AgentOutage(node=1, start=2, end=5)])
        assert not config.node_down(1, 1)
        assert config.node_down(1, 2)
        assert config.node_down(1, 4)
        assert not config.node_down(1, 5)
        assert not config.node_down(2, 3)


class TestHappyPath:
    def test_feasible_plan_runs_clean(self, small_cluster):
        pairs = pairs_for(range(6), ["a", "b"])
        plan = plan_for(small_cluster, pairs)
        report = run_virtual(
            MonitoringRuntime(plan, small_cluster, config=RuntimeConfig(**FAST)).run_async(8)
        )
        assert report.final_coverage == pytest.approx(1.0)
        assert report.mean_fresh_coverage == pytest.approx(1.0)
        assert messages_dropped(report) == 0
        assert report.mean_percentage_error == pytest.approx(0.0, abs=1e-9)
        assert len(report.samples) == 8
        assert report.failure_events == []  # every node is heard every period

    def test_message_volume_matches_topology(self, small_cluster):
        pairs = pairs_for(range(6), ["a"])
        plan = plan_for(small_cluster, pairs)
        members = sum(len(r.tree) for r in plan.trees.values())
        runtime = MonitoringRuntime(plan, small_cluster, config=RuntimeConfig(**FAST))
        report = run_virtual(runtime.run_async(5))
        assert report.messages_sent == 5 * members
        # Nothing else is on the wire: five ticks and a stop per inbox.
        inboxes = len(runtime.agents) + 1
        assert report.metrics.counter("transport_envelopes_sent") == 5 * members + 6 * inboxes

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
        report = run_virtual(
            MonitoringRuntime(plan, small_cluster, config=RuntimeConfig(**FAST)).run_async(3)
        )
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["coverage"]["final"] == pytest.approx(1.0)
        assert payload["messages"]["sent"] > 0
        assert len(payload["per_period"]) == 3


class TestCrashedTask:
    """A coroutine the runtime hosts must not die unnoticed."""

    @pytest.mark.parametrize("victim", ["agent", "collector"])
    def test_a_crashed_task_fails_the_run(self, small_cluster, victim):
        plan = plan_for(small_cluster, pairs_for(range(6), ["a"]))
        runtime = MonitoringRuntime(plan, small_cluster, config=RuntimeConfig(**FAST))

        async def crash():
            raise RuntimeError(f"{victim} crashed")

        target = runtime.collector if victim == "collector" else runtime.agents[0]
        target.run = crash
        with pytest.raises(RuntimeError, match=f"{victim} crashed"):
            run_virtual(runtime.run_async(4))


class TestDropPolicies:
    def test_trim_sheds_values_not_messages(self):
        plan, cluster = overloaded_setup(root_budget_delta=-2.0)
        runtime = MonitoringRuntime(plan, cluster, config=RuntimeConfig(**FAST))
        report = run_virtual(runtime.run_async(5))
        assert int(report.metrics.counter("values_trimmed")) > 0
        assert int(report.metrics.counter("messages_dropped_capacity")) == 0
        assert report.mean_fresh_coverage > 0.5


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
        report = run_virtual(MonitoringRuntime(plan, small_cluster, config=config).run_async(9))
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
        report = run_virtual(MonitoringRuntime(plan, cluster, config=config).run_async(6))
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
        report = run_virtual(MonitoringRuntime(plan, small_cluster, config=config).run_async(4))
        assert int(report.metrics.counter("agent_down_periods")) == 4
        assert report.mean_fresh_coverage < 1.0


def virtual_periods(small_cluster, periods, **config):
    """Run a two-tree plan on virtual time; each period's tick and close
    instants on the loop's clock, and the report."""
    plan = plan_for(small_cluster, pairs_for(range(6), ["a", "b"]))
    runtime = MonitoringRuntime(plan, small_cluster, config=RuntimeConfig(seed=1, **config))
    ticks, closes = [], []
    send, close_period = runtime.transport.send, runtime.collector.close_period

    async def stamped_send(to, envelope):
        if isinstance(envelope, TickEnvelope) and to == COLLECTOR_ADDRESS:
            ticks.append(envelope.sent_at)  # the last copy of each tick
        return await send(to, envelope)

    def stamped_close(period):
        closes.append(asyncio.get_running_loop().time())
        return close_period(period)

    runtime.transport.send, runtime.collector.close_period = stamped_send, stamped_close
    report = run_virtual(runtime.run_async(periods))
    return ticks, closes, report


class TestPeriodClose:
    """A period closes once the collector has heard from every tree's
    root; a silent member holds it to its parent's child wait, and a
    silent root to twice the period until the failure detector flags it
    down.  On virtual time these instants are exact (the periods are
    powers of two, so is every sum)."""

    def test_a_complete_period_closes_early_and_keeps_the_cadence(self, small_cluster):
        ticks, closes, report = virtual_periods(small_cluster, 2, period_seconds=0.5)
        assert closes == ticks  # heard from everyone at the tick's instant
        assert ticks[1] - ticks[0] == 0.5  # the next tick still waits its turn
        assert [s.fresh_fraction for s in report.samples] == [1.0, 1.0]

    def test_a_silent_node_holds_its_periods_to_the_bound(self, small_cluster):
        # Node 4 roots tree "b": the collector waits for its update.
        period_seconds = 0.25
        outage = AgentOutage(node=4, start=1, end=2)
        ticks, closes, report = virtual_periods(
            small_cluster, 4, period_seconds=period_seconds, failure_timeout=1, outages=[outage]
        )
        lags = [close - tick for tick, close in zip(ticks, closes)]
        assert lags == [0.0, 2 * period_seconds, 0.0, 0.0]
        # Detection counts periods, not seconds: a longer period moves no verdict.
        assert [(e.node, e.period, e.kind) for e in report.failure_events] == [
            (4, 1, "down"),
            (4, 2, "recovered"),
        ]

    def test_a_silent_member_holds_its_periods_to_its_parents_child_wait(self, small_cluster):
        # Node 5 is a leaf of tree "a" under node 3 (depth 2 of a
        # height-3 tree: 7/8 of the wait) and a relay of tree "b" under
        # root 4 (the whole wait): each parent stops waiting at its own
        # deadline and the period closes once the later one has.
        period_seconds = 0.25
        outage = AgentOutage(node=5, start=1, end=2)
        ticks, closes, report = virtual_periods(
            small_cluster, 4, period_seconds=period_seconds, failure_timeout=1, outages=[outage]
        )
        lags = [close - tick for tick, close in zip(ticks, closes)]
        assert lags == [0.0, 0.5 * period_seconds, 0.0, 0.0]
        assert report.metrics.counter("child_wait_timeouts") == 2
        assert [(e.node, e.period, e.kind) for e in report.failure_events] == [
            (5, 1, "down"),
            (5, 2, "recovered"),
        ]

    def test_a_node_flagged_down_stops_holding_its_periods(self, small_cluster):
        # Node 4 roots tree "b" and is a leaf of tree "a".  Until its flag
        # (the close of period 1) the collector waits for its tree's
        # update; after that it does not, so the periods close once the
        # leaf's parent (depth 1 of a height-3 tree: 7/8 of the wait)
        # stops waiting, and the ticks keep their cadence.
        period_seconds = 0.25
        outage = AgentOutage(node=4, start=1, end=5)
        ticks, closes, report = virtual_periods(
            small_cluster, 6, period_seconds=period_seconds, failure_timeout=1,
            child_wait_fraction=0.25, outages=[outage],
        )  # fmt: skip
        child_wait = 0.25 * period_seconds * 7 / 8
        lags = [close - tick for tick, close in zip(ticks, closes)]
        assert lags == [0.0, 2 * period_seconds, child_wait, child_wait, child_wait, 0.0]
        # One period at the bound, the others at the cadence.
        gaps = [later - earlier for earlier, later in zip(ticks, ticks[1:])]
        assert gaps == [period_seconds, 2 * period_seconds] + [period_seconds] * 3
        assert [(e.node, e.period, e.kind) for e in report.failure_events] == [
            (4, 1, "down"),
            (4, 5, "recovered"),
        ]

    def test_a_root_with_nothing_to_send_still_completes_its_period(self):
        async def scenario():
            collector, metrics = hand_collector()
            transport = collector.transport
            for address in (9, COLLECTOR_ADDRESS):
                transport.register(address)
            root = NodeAgent(
                9, 1.0, [hand_role(LAYOUT, 9, None, ())], COST,
                MetricRegistry(LAYOUT.pairs, seed=1), transport, metrics, RuntimeConfig(),
            )  # fmt: skip
            collector._on_tick(TickEnvelope(period=0))
            complete = asyncio.ensure_future(collector.heard_from_all(0))
            await root._on_tick(TickEnvelope(period=0))  # budget 1 < C: shaped out
            notice = await transport.recv(COLLECTOR_ADDRESS, timeout=0.1)
            assert transport.pending(COLLECTOR_ADDRESS) == 0
            assert (notice.sender, notice.period, len(notice.payload.stamps)) == (9, 0, 0)
            await asyncio.sleep(0)
            assert not complete.done()
            collector._on_update(notice, now=0.0)
            await asyncio.wait_for(complete, timeout=1.0)
            # Nothing was read, so nothing was sent, delivered or charged.
            assert metrics.counter("messages_dropped_capacity") == 1
            for name in ("messages_sent", "messages_delivered", "cost_units_spent"):
                assert metrics.counter(name) == 0, name

        run_virtual(scenario())

    def test_a_capacity_drop_counts_as_heard_and_a_refusal_does_not(self):
        def update(period, lo=0):
            return UpdateEnvelope(9, 0, period, Batch(lo, doubles(1.0) * 4, doubles(0.0) * 4))

        async def scenario():
            collector, metrics = hand_collector()
            collector.central_capacity = 5.0  # below C + 4a: every update is dropped
            collector._on_tick(TickEnvelope(period=0))
            complete = asyncio.ensure_future(collector.heard_from_all(0))
            collector._on_update(update(0, lo=1), now=0.0)  # slots the tree does not have
            collector._on_update(update(1), now=0.0)  # the next period's, early
            await asyncio.sleep(0)
            assert not complete.done()
            collector._on_update(update(0), now=0.0)
            await asyncio.wait_for(complete, timeout=1.0)
            assert metrics.counter("messages_dropped_invalid") == 1
            assert metrics.counter("messages_dropped_capacity") == 2

        run_virtual(scenario())


class TestFailureEvents:
    """Which node the detector flags, and when: an outage of periods
    1..4 in eight 0.25 s periods of ``virtual_periods``' two-tree plan
    (tree ``a``: 0 > 1, 2; 1 > 3 > 5; 2 > 4.  Tree ``b``: 4 > 3, 5;
    3 > 1; 5 > 0, 2), at two failure timeouts."""

    @pytest.mark.parametrize(
        "node, timeout, events",
        [
            (4, 1, [(4, 1, "down"), (4, 5, "recovered")]),  # root of b, leaf of a
            (4, 3, [(4, 3, "down"), (4, 5, "recovered")]),
            (3, 1, [(3, 1, "down"), (3, 5, "recovered")]),  # relay in both
            (3, 3, [(3, 3, "down"), (3, 5, "recovered")]),
            (2, 1, [(2, 1, "down"), (2, 5, "recovered")]),  # relay of a, leaf of b
            (2, 3, [(2, 3, "down"), (2, 5, "recovered")]),
            (5, 1, [(5, 1, "down"), (5, 5, "recovered")]),  # leaf of a, relay of b
            (5, 3, [(5, 3, "down"), (5, 5, "recovered")]),
        ],
    )
    def test_a_single_node_outage(self, small_cluster, node, timeout, events):
        _, _, report = virtual_periods(
            small_cluster, 8, period_seconds=0.25, failure_timeout=timeout,
            outages=[AgentOutage(node=node, start=1, end=5)],
        )  # fmt: skip
        assert [(e.node, e.period, e.kind) for e in report.failure_events] == events

    def test_a_relay_down_with_its_child(self, small_cluster):
        """One tree (0 > 1, 2; 1 > 3 > 5; 2 > 4), relay 1 and its child 3
        down together: only the relay is flagged.  Its parent names it
        silent; nobody is left to name the child, which is unknown, not
        down."""
        plan = plan_for(small_cluster, pairs_for(range(6), ["a"]))
        outages = [AgentOutage(node=node, start=1, end=5) for node in (1, 3)]
        config = RuntimeConfig(period_seconds=0.25, seed=1, failure_timeout=1, outages=outages)
        report = run_virtual(MonitoringRuntime(plan, small_cluster, config=config).run_async(8))
        assert [(e.node, e.period, e.kind) for e in report.failure_events] == [
            (1, 1, "down"),
            (1, 5, "recovered"),
        ]

    def test_a_recovered_root_is_awaited_again(self):
        """Root 0 of a six-node tree ``a`` (0 > 1, 2; 1 > 3 > 5; 2 > 4) is
        down for periods 1..2 beside a one-node tree ``b``.  Once flagged,
        its tree is waived, so period 3 closes as soon as ``b`` reports,
        before ``a``'s wave, a few hops long, is in.  That first update
        ends the waiver, period 4 waits for ``a`` again, and its close
        hears 0 in period 3, the update's own."""
        nodes = [SimNode(i, capacity=100.0, attributes=frozenset("ab")) for i in range(7)]
        cluster = Cluster(nodes, central_capacity=500.0)
        pairs = set(pairs_for(range(6), ["a"])) | {NodeAttributePair(6, "b")}
        plan = plan_for(cluster, pairs)
        assert plan.trees[frozenset("a")].tree.root == 0
        outages = [AgentOutage(node=0, start=1, end=3)]
        config = RuntimeConfig(period_seconds=1.0, seed=1, failure_timeout=1, outages=outages)
        report = run_virtual(MonitoringRuntime(plan, cluster, config=config).run_async(8))
        assert [(e.node, e.period, e.kind) for e in report.failure_events] == [
            (0, 1, "down"),
            (0, 3, "recovered"),
        ]


def doubles(*items):
    return array("d", items)


def hand_layout(subtrees, attrs="a", tree=0):
    """A one-tree layout from ``[(node, slot count of its subtree)]`` in
    preorder; every node owns one pair per attribute."""
    pairs = tuple(NodeAttributePair(node, attr) for node, _ in subtrees for attr in attrs)
    ranges = {
        node: (index * len(attrs), span * len(attrs))
        for index, (node, span) in enumerate(subtrees)
    }
    return TreeLayout(tree, frozenset(attrs), pairs, ranges)


def hand_role(layout, node, parent, children, attrs="a"):
    lo, size = layout.ranges[node]
    return TreeRole(
        tree=layout.tree, layout=layout, parent=parent, children=children,
        local_pairs=layout.pairs[lo : lo + len(attrs)], depth=1, height=2, lo=lo, size=size,
        child_ranges=tuple(layout.ranges[child] for child in children),
        tree_id=f"t{layout.tree}",
    )  # fmt: skip


#: Root 9 over interior node 0 over leaves 1 and 2, one pair each.
LAYOUT = hand_layout([(9, 4), (0, 3), (1, 1), (2, 1)])


class OneAgent:
    """Interior node 0 (children 1 and 2, parent 9) of one tree on an
    in-process transport, fed one envelope at a time."""

    def __init__(self, layout=LAYOUT, children=(1, 2), attrs="a", capacity=100.0, **config):
        self.transport = InProcessTransport()
        for address in (0, 9, COLLECTOR_ADDRESS):
            self.transport.register(address)
        self.metrics = RuntimeMetrics()
        self.layout = layout
        role = hand_role(layout, 0, 9, children, attrs)
        self.agent = NodeAgent(
            0, capacity, [role], COST, MetricRegistry(layout.pairs, seed=1),
            self.transport, self.metrics, RuntimeConfig(**config),
        )

    def run(self, scenario):
        async def main():
            self.task = asyncio.ensure_future(self.agent.run())
            try:
                await scenario(self)
            finally:
                await self.stop()

        run_virtual(main())

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

    def child(self, sender, period=0, stamps=None):
        """``sender``'s whole range, sampled in ``period`` (or as stamped)."""
        lo, size = self.layout.ranges[sender]
        stamps = doubles(*stamps) if stamps is not None else doubles(float(period)) * size
        batch = Batch(lo, doubles(1.0) * size, stamps)
        return UpdateEnvelope(sender, self.layout.tree, period, batch)

    async def outbox(self, address=9):
        """Everything the agent has sent to ``address`` since last asked."""
        return [
            await self.transport.recv(address, timeout=0.1)
            for _ in range(self.transport.pending(address))
        ]

    def counter(self, name):
        return self.metrics.counter(name)


def pairs_in(update, layout=LAYOUT):
    """The pairs ``update`` holds a reading for, in slot order."""
    batch = update.payload
    held = [
        layout.pairs[batch.lo + offset]
        for offset, stamp in enumerate(batch.stamps)
        if stamp != ABSENT
    ]
    assert batch.count == len(held)  # what the message is billed for
    return held


def nodes_in(update):
    return sorted(pair.node for pair in pairs_in(update))


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
            assert not one.agent._waiting
            # The next period is a new wave with nobody reported yet.
            await one.feed(TickEnvelope(period=1))
            assert await one.outbox() == [] and one.agent._waiting
            await one.feed(one.child(2, period=1), one.child(1, period=1))
            [second] = await one.outbox()
            assert (second.period, nodes_in(second)) == (1, [0, 1, 2])
            assert one.counter("child_wait_timeouts") == 0
            assert one.counter("messages_sent") == 2
            assert one.counter("messages_delivered") == 4

        OneAgent(period_seconds=30.0).run(scenario)

    def test_silent_child_costs_one_emit_at_the_deadline(self):
        async def scenario(one):
            # Depth 1 of a height-2 tree: 5/6 of the root's wait.
            wait = one.agent.config.child_wait_seconds * 5 / 6
            loop = asyncio.get_running_loop()
            started = loop.time()
            await one.feed(TickEnvelope(period=0), one.child(1))
            assert await one.outbox() == [] and one.agent._waiting
            update = await one.transport.recv(9, timeout=2.0)
            assert loop.time() - started == pytest.approx(wait, rel=1e-12)
            assert (update.period, nodes_in(update), update.silent) == (0, [0, 1], (2,))
            assert one.counter("child_wait_timeouts") == 1
            assert not one.agent._waiting
            # The straggler is kept for the next batch, not sent on its own.
            await one.feed(one.child(2))
            await asyncio.sleep(wait)
            assert await one.outbox() == []
            assert one.counter("child_wait_timeouts") == 1
            assert one.counter("messages_sent") == 1
            await one.feed(TickEnvelope(period=1), one.child(1, 1), one.child(2, 1))
            [update] = await one.outbox()
            assert (update.period, nodes_in(update), update.silent) == (1, [0, 1, 2], ())

        OneAgent(period_seconds=0.5, child_wait_fraction=0.5).run(scenario)

    def test_a_shaped_out_child_reports_at_once(self):
        """A leaf whose budget is below ``C`` still says it has nothing,
        so its relay emits at the tick instead of at the deadline."""

        async def scenario():
            transport, metrics = InProcessTransport(), RuntimeMetrics()
            for address in (0, 1, 2, 9, COLLECTOR_ADDRESS):
                transport.register(address)
            registry = MetricRegistry(LAYOUT.pairs, seed=1)
            agents = [
                NodeAgent(
                    node, capacity, [hand_role(LAYOUT, node, parent, children)], COST,
                    registry, transport, metrics, RuntimeConfig(period_seconds=0.5),
                )  # fmt: skip
                for node, parent, children, capacity in (
                    (0, 9, (1, 2), 100.0),
                    (1, 0, (), 1.0),  # budget 1 < C: shaped out
                    (2, 0, (), 100.0),
                )
            ]
            tasks = [asyncio.ensure_future(agent.run()) for agent in agents]
            loop = asyncio.get_running_loop()
            started = loop.time()
            for agent in agents:
                transport.deliver_local(agent.node_id, TickEnvelope(period=0))
            update = await transport.recv(9, timeout=1.0)
            assert loop.time() == started
            assert (update.period, nodes_in(update)) == (0, [0, 2])
            assert metrics.counter("child_wait_timeouts") == 0
            # Leaf 1's empty update was heard, but neither sent, charged
            # nor delivered: only leaf 2's batch reached the relay.
            assert metrics.counter("messages_sent") == 2
            assert metrics.counter("messages_delivered") == 1
            assert metrics.counter("messages_dropped_capacity") == 1
            for agent in agents:
                transport.deliver_local(agent.node_id, StopEnvelope())
            await asyncio.gather(*tasks)

        run_virtual(scenario())

    def test_a_deadline_takes_what_is_already_queued_first(self):
        """A loop held up past its deadline -- a busy host -- still counts
        a child's update that arrived meanwhile: no timeout, one emit."""

        async def scenario(one):
            clock = asyncio.get_running_loop()._clock
            accept = one.agent.accept

            def stalled_accept(tree, batch):
                clock.now += 1.0  # the host stalls while child 1 is handled
                return accept(tree, batch)

            one.agent.accept = stalled_accept
            await one.feed(TickEnvelope(period=0), one.child(1), one.child(2))
            [update] = await one.outbox()
            assert (nodes_in(update), update.silent) == ([0, 1, 2], ())
            assert one.counter("child_wait_timeouts") == 0

        OneAgent(period_seconds=0.5).run(scenario)

    def test_next_tick_flushes_the_old_period_first(self):
        async def scenario(one):
            await one.feed(TickEnvelope(period=0), one.child(1))
            assert await one.outbox() == []
            await one.feed(TickEnvelope(period=1))
            [flushed] = await one.outbox()
            assert (flushed.period, nodes_in(flushed), flushed.silent) == (0, [0, 1], (2,))
            assert one.counter("child_wait_timeouts") == 1
            assert one.agent._waiting  # period 1 now waits on both children
            await one.feed(one.child(1, 1), one.child(2, 1))
            [update] = await one.outbox()
            assert (update.period, nodes_in(update)) == (1, [0, 1, 2])
            assert one.counter("child_wait_timeouts") == 1
            assert await one.outbox(COLLECTOR_ADDRESS) == []  # a relay reports to its parent only

        OneAgent(period_seconds=30.0).run(scenario)

    def test_stop_flushes_an_open_wave(self):
        async def scenario(one):
            await one.feed(TickEnvelope(period=0), one.child(2))
            await one.stop()
            [update] = await one.outbox()
            assert (update.period, nodes_in(update)) == (0, [0, 2])
            assert one.counter("child_wait_timeouts") == 1

        OneAgent(period_seconds=30.0).run(scenario)

    def test_each_role_stops_waiting_at_its_own_deadline(self):
        """Node 0 relays in tree 0 (depth 1 of height 2) and roots tree 1.
        With no child reporting, the relay's wave is flushed alone at 5/6
        of the wait, naming its children; the root's at the whole wait."""
        rooted = hand_layout([(0, 2), (3, 1)], attrs="b", tree=1)

        async def scenario():
            transport, metrics = InProcessTransport(), RuntimeMetrics()
            for address in (0, 9, COLLECTOR_ADDRESS):
                transport.register(address)
            roles = [
                hand_role(LAYOUT, 0, 9, (1, 2)),
                dataclasses.replace(hand_role(rooted, 0, None, (3,), attrs="b"), depth=0),
            ]
            agent = NodeAgent(
                0, 100.0, roles, COST, MetricRegistry(LAYOUT.pairs + rooted.pairs, seed=1),
                transport, metrics, RuntimeConfig(period_seconds=0.5),
            )  # fmt: skip
            task = asyncio.ensure_future(agent.run())
            loop = asyncio.get_running_loop()
            started = loop.time()
            transport.deliver_local(0, TickEnvelope(period=0))
            relayed = await transport.recv(9, timeout=1.0)
            assert loop.time() - started == pytest.approx(0.25 * 5 / 6, rel=1e-12)
            assert list(agent._waiting) == [1]  # the root still waits
            assert (relayed.tree, relayed.silent) == (0, (1, 2))
            rooted_update = await transport.recv(COLLECTOR_ADDRESS, timeout=1.0)
            assert loop.time() - started == 0.25
            assert (rooted_update.tree, rooted_update.silent) == (1, (3,))
            assert metrics.counter("child_wait_timeouts") == 2
            transport.deliver_local(0, StopEnvelope())
            await task

        run_virtual(scenario())

    def test_a_relay_forwards_whom_its_children_named_silent(self):
        """Silent ids ride up with the period they belong to; those on a
        child's late update for an earlier period are not forwarded."""

        async def scenario(one):
            await one.feed(TickEnvelope(period=0), one.child(1), TickEnvelope(period=1))
            [flushed] = await one.outbox()
            assert (flushed.period, flushed.silent) == (0, (2,))
            late = dataclasses.replace(one.child(2, period=0), silent=(7,))
            named = dataclasses.replace(one.child(1, period=1), silent=(5,))
            await one.feed(late, named, one.child(2, period=1))
            [update] = await one.outbox()
            assert (update.period, nodes_in(update), update.silent) == (1, [0, 1, 2], (5,))
            await one.feed(TickEnvelope(period=2))  # drops what came too late
            assert one.agent._silent_below == {}

        OneAgent(period_seconds=30.0).run(scenario)

    def test_scripted_down_node_emits_nothing(self):
        async def scenario(one):
            await one.feed(TickEnvelope(period=0), one.child(1), one.child(2))
            assert await one.outbox() == [] and await one.outbox(COLLECTOR_ADDRESS) == []
            assert not one.agent._waiting
            assert one.counter("agent_down_periods") == 1
            assert one.counter("messages_dropped_failure") == 2
            assert one.counter("messages_delivered") == 0
            await one.feed(TickEnvelope(period=1), one.child(1, 1), one.child(2, 1))
            [update] = await one.outbox()
            assert (update.period, nodes_in(update)) == (1, [0, 1, 2])
            assert await one.outbox(COLLECTOR_ADDRESS) == []

        OneAgent(period_seconds=30.0, outages=[AgentOutage(node=0, start=0, end=1)]).run(scenario)


class TestStrayUpdates:
    """An update the plan does not give its receiver is refused before
    it costs budget or memory (it used to be billed, counted delivered
    and buffered for a tree no emit ever pops)."""

    def test_agent_refuses_what_is_not_its_childs_to_send(self):
        def update(sender, tree, lo, slots):
            batch = Batch(lo, doubles(1.0) * slots, doubles(0.0) * slots)
            return UpdateEnvelope(sender, tree, 0, batch)

        strays = [
            update(1, tree=7, lo=2, slots=1),  # a tree this node has no role in
            update(5, tree=0, lo=2, slots=1),  # not a child
            update(9, tree=0, lo=0, slots=4),  # its own parent
            update(1, tree=0, lo=3, slots=1),  # child 1 naming child 2's slot
            update(1, tree=0, lo=2, slots=2),  # ... running past its own
            update(2, tree=0, lo=1, slots=3),  # ... starting before its own
            update(2, tree=0, lo=2**32, slots=1),
        ]

        async def scenario(one):
            await one.feed(TickEnvelope(period=0))
            budget = one.agent._budget
            for _ in range(100):
                await one.feed(*strays)
            assert one.counter("messages_dropped_invalid") == 100 * len(strays)
            assert one.counter("messages_delivered") == 0
            assert one.counter("messages_dropped_capacity") == 0
            assert one.agent._buffers == {}
            assert one.agent._children_seen == {0: {}}
            assert one.agent._budget == budget
            # The budget they did not touch still pays for the real children.
            assert await one.outbox() == [] and one.agent._waiting
            await one.feed(one.child(1), one.child(2))
            [update] = await one.outbox()
            assert nodes_in(update) == [0, 1, 2]
            assert one.counter("messages_delivered") == 2

        OneAgent(period_seconds=30.0, capacity=12.0).run(scenario)

    def test_collector_refuses_a_tree_or_slots_it_does_not_have(self):
        collector, metrics = hand_collector()
        collector._on_tick(TickEnvelope(period=0))
        budget = collector._budget
        for tree, lo, slots in [(1, 0, 4), (0, 1, 4), (0, 4, 1), (0, -1, 2), (0, 0, 5)]:
            batch = Batch(lo, doubles(1.0) * slots, doubles(0.0) * slots)
            collector._on_update(UpdateEnvelope(9, tree, 0, batch), now=0.0)
        assert metrics.counter("messages_dropped_invalid") == 5
        assert metrics.counter("messages_delivered") == 0
        assert collector._budget == budget
        assert all(collector.state.reading(pair) is None for pair in LAYOUT.pairs)
        update = UpdateEnvelope(9, 0, 0, Batch(0, doubles(1.0) * 4, doubles(0.0) * 4))
        collector._on_update(update, now=0.0)
        assert metrics.counter("messages_delivered") == 1
        assert collector.state.reading(LAYOUT.pairs[3]).sampled_at == 0.0



class TestSilentIds:
    """The failure detector reads the root updates' ``silent`` ids."""

    OTHER = hand_layout([(5, 2), (6, 1)], attrs="b", tree=1)

    def test_an_id_outside_the_updates_tree_is_ignored(self):
        layouts = [LAYOUT, self.OTHER]
        pairs = LAYOUT.pairs + self.OTHER.pairs
        collector = CollectorAgent(
            pairs, layouts, 100.0, COST, MetricRegistry(pairs, seed=1),
            InProcessTransport(), RuntimeMetrics(), RuntimeConfig(failure_timeout=1),
        )  # fmt: skip

        def update(layout, period, silent=()):
            root = next(iter(layout.ranges))
            batch = Batch(0, doubles(1.0), doubles(float(period)))
            return UpdateEnvelope(root, layout.tree, period, batch, silent=silent)

        collector._on_tick(TickEnvelope(period=0))
        # Node 6 is tree 1's, not tree 0's: only node 1 goes unheard.
        collector._on_update(update(LAYOUT, 0, silent=(1, 6)), now=0.0)
        collector._on_update(update(self.OTHER, 0), now=0.0)
        collector.close_period(0)
        collector._on_tick(TickEnvelope(period=1))
        collector._on_update(update(LAYOUT, 1), now=1.0)
        collector._on_update(update(self.OTHER, 1), now=1.0)
        collector.close_period(1)
        assert [(e.node, e.period, e.kind) for e in collector.failure_events] == [
            (1, 0, "down"),
            (1, 1, "recovered"),
        ]
        assert collector._heard == {}  # pruned at close


def hand_collector(**config):
    metrics = RuntimeMetrics()
    collector = CollectorAgent(
        LAYOUT.pairs, [LAYOUT], 100.0, COST, MetricRegistry(LAYOUT.pairs, seed=1),
        InProcessTransport(), metrics, RuntimeConfig(**config),
    )  # fmt: skip
    return collector, metrics


SLOTS = 8
stamp_runs = st.integers(0, SLOTS - 1).flatmap(
    lambda at: st.tuples(
        st.just(at), st.lists(st.sampled_from([ABSENT, 0.0, 1.0, 2.0]), max_size=SLOTS - at)
    )
)


@settings(max_examples=300, deadline=None)
@given(st.lists(stamp_runs, max_size=5))
def test_relay_union_is_repeated_merge_into(runs):
    """Freshest wins, a tie goes to the later arrival -- whether the
    batches overlap (slot-by-slot path) or not (slice path) -- held
    against a dict keyed by slot."""
    base = 3
    # The value numbers the arrival, so a tie shows who won it.
    batches = [
        Batch(base + at, doubles(float(arrival)) * len(stamps), doubles(*stamps))
        for arrival, (at, stamps) in enumerate(runs)
    ]
    before = [(b.lo, list(b.values), list(b.stamps), b.count) for b in batches]
    expected = {}
    for batch in batches:
        for offset, stamp in enumerate(batch.stamps):
            seen = expected.get(batch.lo + offset)
            if stamp != ABSENT and (seen is None or stamp >= seen[0]):
                expected[batch.lo + offset] = (stamp, batch.values[offset])
    values, stamps = gather(base, SLOTS, batches)
    assert len(values) == len(stamps) == SLOTS
    merged = {
        base + offset: (stamp, values[offset])
        for offset, stamp in enumerate(stamps)
        if stamp != ABSENT
    }
    assert merged == expected
    # The inputs belong to their envelopes.
    assert [(b.lo, list(b.values), list(b.stamps), b.count) for b in batches] == before


#: Node 0's range in slot order is 0, 1, 5, 2 -- not its pair order.
DEEP = hand_layout([(9, 5), (0, 4), (1, 2), (5, 1), (2, 1)])


class TestShapingParity:
    """Trimming keeps exactly the readings the dict payload kept: the
    first ``affordable`` present in pair order."""

    #: Per period from 3 on: the stamps each child reports for its range.
    SCRIPT = [
        {1: [3.0, 3.0], 2: [2.0]},  # child 2's reading is a period old
        {1: [4.0, ABSENT], 2: [4.0]},  # node 5 missing from child 1's batch; room for all
        {1: [5.0, 5.0], 2: [5.0]},
        {1: [6.0, 6.0], 2: [6.0]},
    ]
    CAPACITY = 12.0

    def test_survivors_match_the_dict_oracle(self):
        own = NodeAttributePair(0, "a")

        async def scenario(one):
            shed = 0
            for period, reports in enumerate(self.SCRIPT, start=3):
                # The oracle: a dict of stamps by pair, shaped the old way.
                payload, budget = {}, self.CAPACITY
                updates = [one.child(child, period, stamps) for child, stamps in reports.items()]
                for update, (child, stamps) in zip(updates, reports.items()):
                    budget -= COST.message_cost(update.payload.count)
                    for pair, stamp in zip(pairs_in_range(DEEP, child), stamps):
                        if stamp != ABSENT and stamp >= payload.get(pair, ABSENT):
                            payload[pair] = stamp
                payload[own] = float(period)
                affordable = int(budget - COST.per_message)
                ordered = sorted(payload)
                if affordable < len(payload):
                    shed += len(payload) - affordable
                kept = {pair: payload[pair] for pair in ordered[:affordable]}

                await one.feed(TickEnvelope(period=period), *updates)
                [sent] = await one.outbox()
                stamps = dict(zip(pairs_in_range(DEEP, 0), sent.payload.stamps))
                assert {pair: stamps[pair] for pair in pairs_in(sent, DEEP)} == kept
            assert shed >= 3  # the script did overload the node
            assert one.counter("values_trimmed") == shed
            assert one.counter("messages_dropped_capacity") == 0

        OneAgent(DEEP, capacity=self.CAPACITY, period_seconds=30.0).run(scenario)

    def test_trim_keeps_pair_order_not_slot_order(self):
        async def scenario(one):
            await one.feed(TickEnvelope(period=0), one.child(1), one.child(2))
            [sent] = await one.outbox()
            # Slots 0, 1, 5, 2: the trimmed reading sits mid-batch.
            assert [pair.node for pair in pairs_in(sent, DEEP)] == [0, 1, 2]
            assert list(sent.payload.stamps) == [0.0, 0.0, ABSENT, 0.0]
            assert one.counter("values_trimmed") == 1
            assert one.counter("cost_units_spent") == 12.0  # 4 + 3 received, 2 + 3 sent

        OneAgent(DEEP, capacity=12.0, period_seconds=30.0).run(scenario)


def pairs_in_range(layout, node):
    lo, size = layout.ranges[node]
    return layout.pairs[lo : lo + size]


class TestCollectorTickAnchors:
    def test_anchor_table_stays_bounded_over_a_long_run(self):
        collector, metrics = hand_collector(failure_timeout=3)

        def update(period):
            return UpdateEnvelope(9, 0, period, Batch(1, doubles(1.0), doubles(0.0)))

        for period in range(1000):
            collector._on_tick(TickEnvelope(period, sent_at=float(period)))
            collector._on_update(update(period), now=period + 0.25)
            collector.close_period(period)
            assert len(collector._tick_at) <= 3
        latency = metrics.histogram("collection_latency_s")
        assert latency.count == 1000 and latency.min == latency.max == 0.25
        # Recent periods keep their anchor; a pruned one records nothing.
        collector._on_update(update(999), now=1000.0)
        assert latency.count == 1001
        collector._on_update(update(0), now=1000.0)
        assert latency.count == 1001
        assert metrics.counter("messages_delivered") == 1002


# ---------------------------------------------------------------------------
# The plan-compiled slot layout
# ---------------------------------------------------------------------------
LAYOUT_PLANS = {"quickstart": quickstart_workload, "sampled_64": lambda: sampled_workload(seed=2)}
_planned = {}


def planned(name):
    if name not in _planned:
        cluster, cost, tasks = LAYOUT_PLANS[name]()
        _planned[name] = RemoPlanner(cost).plan(tasks, cluster), cluster
    return _planned[name]


def observe_layouts():
    """Every layout of both plans, JSON-shaped, for the hash-seed check."""
    return {
        name: [
            [sorted(lay.attr_set), [(p.node, p.attribute) for p in lay.pairs], sorted(lay.ranges.items())]
            for lay in compile_layouts(planned(name)[0])
        ]
        for name in LAYOUT_PLANS
    }


class TestLayouts:
    @pytest.mark.parametrize("name", LAYOUT_PLANS)
    def test_every_subtree_is_one_range(self, name):
        plan, _ = planned(name)
        layouts = compile_layouts(plan)
        assert [lay.tree for lay in layouts] == list(range(len(plan.trees)))
        assert [sorted(lay.attr_set) for lay in layouts] == sorted(sorted(s) for s in plan.trees)
        for layout in layouts:
            tree = plan.trees[layout.attr_set].tree
            assert layout.ranges[tree.root] == (0, tree.pair_count())
            assert len(set(layout.pairs)) == len(layout.pairs) == tree.pair_count()
            assert set(layout.ranges) == set(tree.nodes)
            for node, (lo, size) in layout.ranges.items():
                assert set(layout.pairs[lo : lo + size]) == {
                    NodeAttributePair(member, attr)
                    for member in tree.subtree_nodes(node)
                    for attr in tree.local_demand(member)
                }
                # Own pairs first, then the children by id, back to
                # back: sibling ranges are disjoint and leave no gap.
                own = tuple(NodeAttributePair(node, a) for a in sorted(tree.local_demand(node)))
                assert layout.pairs[lo : lo + len(own)] == own
                at = lo + len(own)
                for child in sorted(tree.children(node)):
                    assert layout.ranges[child][0] == at
                    at += layout.ranges[child][1]
                assert at == lo + size
        assert sum(len(lay.pairs) for lay in layouts) == plan.collected_pair_count()

    @pytest.mark.parametrize("hash_seed", ["0", "1", "2"])
    def test_layouts_do_not_depend_on_the_hash_seed(self, hash_seed):
        """Workers and the collector derive the layouts separately, each
        under its own hash randomization."""
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        # As a module from the repository root, so ``tests`` imports.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "tests.test_runtime"],
            cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True,
        )  # fmt: skip
        assert json.loads(proc.stdout) == json.loads(json.dumps(observe_layouts()))


# ---------------------------------------------------------------------------
# The cost identity
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("wire", [False, True], ids=["inproc", "forced_wire_tcp"])
@pytest.mark.parametrize("name", LAYOUT_PLANS)
def test_a_clean_run_spends_twice_the_plans_traffic(name, wire):
    """Every message is charged ``C + a*x`` once at each end, and
    nothing else is: a failure-free run costs ``2 x plan.total_message_cost()``
    a period, to the unit -- not so if a batch were billed by its span."""
    plan, cluster = planned(name)
    transport = None
    if wire:
        endpoint = allocate_endpoints(1)[0]
        transport = TcpTransport(
            PeerDirectory(default=endpoint), listen_host=endpoint.host,
            listen_port=endpoint.port, force_wire=True,
        )  # fmt: skip
    config = RuntimeConfig(period_seconds=0.2, seed=1)
    runtime = MonitoringRuntime(plan, cluster, config=config, transport=transport)
    report = run_virtual(runtime.run_async(3))
    counters = report.metrics.counters()
    assert messages_dropped(report) == 0 and "child_wait_timeouts" not in counters
    assert counters["messages_delivered"] == counters["messages_sent"]
    assert counters["cost_units_spent"] == 2 * plan.total_message_cost() * 3
    assert report.mean_fresh_coverage == pytest.approx(plan.coverage())


#: Twenty periods of the quickstart plan, as ``repro run`` counts them.
QUICKSTART_TOTALS = {
    "messages_sent": 3140.0,
    "messages_delivered": 3140.0,
    "cost_units_spent": 170200.0,
    "transport_envelopes_sent": 4505.0,
}


def test_twenty_quickstart_periods_move_exact_totals(capsys, tmp_path):
    """What a feasible plan moves and what it costs is a function of the
    plan, not of how the agents are scheduled: twenty periods of the
    quickstart plan through ``repro run`` give exactly these totals.

    The one ``repro run`` in this suite on asyncio's own loop and the
    wall clock, as a user runs it: every other exact run is on virtual
    time (``test_quickstart_totals_do_not_depend_on_the_period_length``
    pins the same totals there), so only this one shows a relay's child
    wait running late on a busy host."""
    argv = ["run", "--preset", "quickstart", "--periods", "20", "--period-seconds", "0.05"]
    # --metrics gives the run a fresh registry: the ambient default one
    # holds whatever earlier runs in this process counted.
    assert main(argv + ["--json", "--metrics", str(tmp_path / "run.prom")]) == 0
    counters = json.loads(capsys.readouterr().out)["metrics"]["counters"]
    unrecorded = {names.CHILD_WAIT_TIMEOUTS: None, names.HEARTBEATS_SENT: None}
    expected = {**QUICKSTART_TOTALS, **unrecorded}
    differing = {
        name: {"got": counters.get(name), "want": want}
        for name, want in expected.items()
        if counters.get(name) != want
    }
    assert not differing, f"counters off the quickstart totals: {differing}"


@pytest.mark.parametrize("period_seconds", [0.05, 1e-3, 1e-6])
def test_quickstart_totals_do_not_depend_on_the_period_length(period_seconds):
    """The event loop is the runtime's only clock: on virtual time,
    twenty quickstart periods of any length move exactly what ``repro
    run`` moves, every pair fresh, no relay timing out on its children."""
    plan, cluster = planned("quickstart")
    config = RuntimeConfig(period_seconds=period_seconds, seed=1)
    report = run_virtual(MonitoringRuntime(plan, cluster, config=config).run_async(20))
    counters = report.metrics.counters()
    assert {name: counters.get(name) for name in QUICKSTART_TOTALS} == QUICKSTART_TOTALS
    assert "child_wait_timeouts" not in counters and "heartbeats_sent" not in counters
    assert report.mean_fresh_coverage == 1.0


def test_the_simulator_moves_the_runtime_quickstart_totals(capsys, tmp_path):
    """The simulator agrees with the runtime exactly on the quickstart:
    twenty periods through ``repro simulate`` send, deliver and spend
    what they do through ``repro run``."""
    argv = ["simulate", "--preset", "quickstart", "--periods", "20", "--json"]
    assert main(argv + ["--metrics", str(tmp_path / "sim.prom")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["messages"]["sent"] == QUICKSTART_TOTALS["messages_sent"]
    assert payload["messages"]["delivered"] == QUICKSTART_TOTALS["messages_delivered"]
    assert payload["cost_units_spent"] == QUICKSTART_TOTALS["cost_units_spent"]


# ---------------------------------------------------------------------------
# The mailbox contract
# ---------------------------------------------------------------------------
def live_timers(loop):
    return sum(1 for handle in loop._scheduled if not handle.cancelled())


class TestMailbox:
    def test_a_timeout_never_returns_early(self):
        async def scenario():
            transport = InProcessTransport()
            transport.register(1)

            async def waited(timeout):
                started = time.monotonic()
                assert await transport.recv(1, timeout) is None
                return time.monotonic() - started

            for timeout in (0.0, 0.001, 0.02):
                assert await waited(timeout) >= timeout
            # Many at once, deadlines in no order, a timer each.
            timeouts = [0.002 * ((7 * k) % 20) for k in range(40)]
            elapsed = await asyncio.gather(*(waited(timeout) for timeout in timeouts))
            assert all(took >= timeout for took, timeout in zip(elapsed, timeouts))

        asyncio.run(scenario())

    def test_a_timed_wait_holds_one_loop_timer_until_it_ends(self):
        async def scenario():
            transport = InProcessTransport()
            loop = asyncio.get_running_loop()
            idle = live_timers(loop)
            parked = []
            for address in range(50):
                transport.register(address)
                parked.append(asyncio.ensure_future(transport.recv(address, 60.0 - address)))
            await asyncio.sleep(0)
            assert live_timers(loop) == idle + 50
            for address in range(50):
                transport.deliver_local(address, TickEnvelope(period=address))
            got = await asyncio.wait_for(asyncio.gather(*parked), timeout=2.0)
            assert [tick.period for tick in got] == list(range(50))
            assert live_timers(loop) == idle  # each woken wait cancelled its own
            assert await transport.recv(0, 0.001) is None
            assert live_timers(loop) == idle  # and so does one that timed out

        asyncio.run(scenario())

    def test_a_receiver_cancelled_after_its_wakeup_strands_no_envelope(self):
        async def scenario():
            transport = InProcessTransport()
            transport.register(1)
            first = asyncio.ensure_future(transport.recv(1, 5.0))
            second = asyncio.ensure_future(transport.recv(1, 5.0))
            await asyncio.sleep(0)
            tick = TickEnvelope(period=0)
            transport.deliver_local(1, tick)  # wakes `first`...
            first.cancel()  # ...which is cancelled before it runs again
            assert await asyncio.wait_for(second, timeout=1.0) is tick
            assert first.cancelled() and transport.pending(1) == 0
            # A receiver cancelled while parked, or timed out, leaves nothing behind.
            third = asyncio.ensure_future(transport.recv(1, 5.0))
            await asyncio.sleep(0)
            third.cancel()
            assert await transport.recv(1, 0.001) is None
            assert not transport._inboxes[1][1]

        asyncio.run(scenario())

    def test_one_transport_works_across_two_event_loops(self):
        transport = InProcessTransport()
        transport.register(1)

        async def scenario(period):
            # Left parked at exit: its timer dies with the loop.
            asyncio.ensure_future(transport.recv(1, 0.05))
            assert await asyncio.wait_for(transport.recv(1, 0.2), timeout=2.0) is None
            parked = asyncio.ensure_future(transport.recv(1, 5.0))
            await asyncio.sleep(0)
            assert await transport.send(1, TickEnvelope(period=period))
            return (await asyncio.wait_for(parked, timeout=2.0)).period

        assert asyncio.run(scenario(0)) == 0
        assert asyncio.run(scenario(1)) == 1

    def test_pending_counts_an_envelope_until_it_is_received(self):
        async def scenario():
            transport = InProcessTransport()
            transport.register(1)
            parked = asyncio.ensure_future(transport.recv(1, 5.0))
            await asyncio.sleep(0)
            tick = TickEnvelope(period=0)
            transport.deliver_local(1, tick)
            # Woken, not yet run: the envelope is still in the inbox.
            assert transport.pending(1) == 1
            assert await parked is tick
            assert transport.pending(1) == 0

        asyncio.run(scenario())


if __name__ == "__main__":
    print(json.dumps(observe_layouts()))
