"""Crash/recovery paths in the discrete-event simulator.

`tests/test_simulation.py` covers the basic outage plumbing; this file
exercises the interesting trajectories: a node that crashes mid-run and
comes back, an *interior* tree node that dies mid-period taking its
whole subtree dark, and the collector's stale-reading behaviour while
a path is severed.
"""

import pytest

from repro.core.attributes import pairs_for
from repro.core.cost import CostModel
from repro.core.forest import ForestBuilder
from repro.core.partition import Partition
from repro.runtime import AgentOutage
from repro.simulation import (
    FailureInjector,
    LinkOutage,
    MonitoringSimulation,
    SimulationConfig,
)

COST = CostModel(2.0, 1.0)


def one_tree_plan(cluster, n_nodes=6):
    pairs = pairs_for(range(n_nodes), ["a"])
    return ForestBuilder(COST).build(Partition.one_set(["a"]), pairs, cluster)


def interior_node(tree):
    """A node with both a parent and children, if the tree has one."""
    for node in tree.nodes:
        if tree.parent(node) is not None and tree.children(node):
            return node
    return None


def run(plan, cluster, periods, injector=None, seed=1):
    return MonitoringSimulation(
        plan,
        cluster,
        config=SimulationConfig(seed=seed),
        failures=injector or FailureInjector(),
    ).run(periods)


class TestCrashRecovery:
    def test_freshness_dips_then_recovers(self, small_cluster):
        plan = one_tree_plan(small_cluster)
        tree = plan.trees[frozenset({"a"})].tree
        leaf = next(n for n in tree.nodes if not tree.children(n))
        injector = FailureInjector(node_outages=[AgentOutage(leaf, 2, 5)])
        stats = run(plan, small_cluster, 9, injector)
        dark = [p.fresh_fraction for p in stats.periods if 2 <= p.period < 5]
        after = [p.fresh_fraction for p in stats.periods if p.period >= 5]
        before = [p.fresh_fraction for p in stats.periods if p.period < 2]
        assert max(dark) < 1.0
        assert before[-1] == pytest.approx(1.0)
        assert after[-1] == pytest.approx(1.0)

    def test_error_rises_during_outage_and_recovers(self, small_cluster):
        plan = one_tree_plan(small_cluster)
        tree = plan.trees[frozenset({"a"})].tree
        leaf = next(n for n in tree.nodes if not tree.children(n))
        injector = FailureInjector(node_outages=[AgentOutage(leaf, 2, 6)])
        stats = run(plan, small_cluster, 10, injector)
        dark_error = max(p.mean_error for p in stats.periods if 3 <= p.period < 6)
        final_error = stats.periods[-1].mean_error
        # Stale readings drift away from the truth while the node is
        # dark, then snap back once it reports again.
        assert dark_error > final_error

    def test_collector_keeps_stale_readings_through_outage(self, small_cluster):
        # Crash severs freshness but NOT received coverage: the
        # collector holds the last reading it saw for every pair.
        plan = one_tree_plan(small_cluster)
        tree = plan.trees[frozenset({"a"})].tree
        leaf = next(n for n in tree.nodes if not tree.children(n))
        injector = FailureInjector(node_outages=[AgentOutage(leaf, 2, 5)])
        stats = run(plan, small_cluster, 8, injector)
        dark = [p for p in stats.periods if 2 <= p.period < 5]
        assert all(p.received_fraction == pytest.approx(1.0) for p in dark)
        assert any(p.fresh_fraction < 1.0 for p in dark)

    def test_drop_counts_bound_by_outage_window(self, small_cluster):
        plan = one_tree_plan(small_cluster)
        tree = plan.trees[frozenset({"a"})].tree
        leaf = next(n for n in tree.nodes if not tree.children(n))
        short = FailureInjector(node_outages=[AgentOutage(leaf, 2, 3)])
        long = FailureInjector(node_outages=[AgentOutage(leaf, 2, 7)])
        short_stats = run(plan, small_cluster, 9, short)
        long_stats = run(plan, small_cluster, 9, long)
        assert 0 < short_stats.messages_dropped_failure
        assert short_stats.messages_dropped_failure < long_stats.messages_dropped_failure


class TestInteriorNodeFailure:
    def test_interior_crash_takes_subtree_dark(self, small_cluster):
        plan = one_tree_plan(small_cluster)
        tree = plan.trees[frozenset({"a"})].tree
        victim = interior_node(tree)
        assert victim is not None, "ONE-SET over 6 nodes should build a multi-level tree"
        subtree = tree.subtree_nodes(victim)
        injector = FailureInjector(node_outages=[AgentOutage(victim, 2, 5)])
        stats = run(plan, small_cluster, 8, injector)
        # Everything below the dead hop goes stale, not just the victim.
        dark_fresh = min(p.fresh_fraction for p in stats.periods if 2 <= p.period < 5)
        assert dark_fresh <= 1.0 - len(subtree) / len(plan.pairs) + 1e-9
        assert stats.periods[-1].fresh_fraction == pytest.approx(1.0)

    def test_interior_crash_mid_period_loses_that_periods_wave(self, small_cluster):
        # An outage of the one period 2 kills the sends scheduled in it:
        # the wave fires near the period start, so period 2 is lost.
        plan = one_tree_plan(small_cluster)
        tree = plan.trees[frozenset({"a"})].tree
        victim = interior_node(tree)
        assert victim is not None
        injector = FailureInjector(node_outages=[AgentOutage(victim, 2, 3)])
        stats = run(plan, small_cluster, 6, injector)
        assert stats.messages_dropped_failure > 0
        assert stats.periods[2].fresh_fraction < 1.0
        # One period later the subtree's values flow again.
        assert stats.periods[4].fresh_fraction == pytest.approx(1.0)

    def test_link_outage_equivalent_to_silencing_the_edge(self, small_cluster):
        plan = one_tree_plan(small_cluster)
        attr_set = frozenset({"a"})
        tree = plan.trees[attr_set].tree
        victim = interior_node(tree)
        assert victim is not None
        injector = FailureInjector(
            link_outages=[LinkOutage(victim, attr_set, 2.0, 5.0)]
        )
        stats = run(plan, small_cluster, 8, injector)
        # The victim still receives its children's batches (only its
        # uplink is down), but nothing it relays gets through.
        assert stats.messages_dropped_failure > 0
        assert any(p.fresh_fraction < 1.0 for p in stats.periods if 2 <= p.period < 5)
        assert stats.periods[-1].fresh_fraction == pytest.approx(1.0)


class TestInjectorSemantics:
    def test_blocks_checks_sender_receiver_and_link(self):
        attrs = frozenset({"a"})
        injector = FailureInjector(
            link_outages=[LinkOutage(1, attrs, 0.0, 10.0)],
            node_outages=[AgentOutage(2, 0, 10)],
        )
        assert injector.blocks(1, 0, attrs, 5.0)  # link down
        assert injector.blocks(2, 0, attrs, 5.0)  # sender down
        assert injector.blocks(0, 2, attrs, 5.0)  # receiver down
        assert not injector.blocks(0, 3, attrs, 5.0)
        # The collector (address -1) is never "down".
        assert not injector.blocks(0, -1, attrs, 5.0)

    def test_outage_windows_are_half_open(self):
        injector = FailureInjector(node_outages=[AgentOutage(1, 2, 5)])
        assert not injector.node_down(1, 1.999)
        assert injector.node_down(1, 2.0)
        assert injector.node_down(1, 4.999)
        assert not injector.node_down(1, 5.0)
