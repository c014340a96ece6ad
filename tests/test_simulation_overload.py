"""Tests for graceful degradation under capacity overload."""

import pytest

from repro.cluster.node import Cluster, SimNode
from repro.core.attributes import pairs_for
from repro.core.cost import CostModel
from repro.core.forest import ForestBuilder
from repro.core.partition import Partition
from repro.obs import names
from repro.simulation import MonitoringSimulation

COST = CostModel(2.0, 1.0)


def overloaded_setup(root_budget_delta: float):
    """Plan against generous capacity, then simulate with the tree
    root's budget set to ``used + root_budget_delta`` (negative deltas
    overload it)."""
    plan_nodes = [
        SimNode(i, capacity=100.0, attributes=frozenset({"a"})) for i in range(8)
    ]
    plan_cluster = Cluster(plan_nodes, central_capacity=500.0)
    pairs = pairs_for(range(8), ["a"])
    plan = ForestBuilder(COST).build(Partition.one_set(["a"]), pairs, plan_cluster)
    tree = plan.trees[frozenset({"a"})].tree
    root = tree.root
    root_budget = max(tree.used(root) + root_budget_delta, 1e-6)
    sim_nodes = [
        SimNode(
            i,
            capacity=root_budget if i == root else 100.0,
            attributes=frozenset({"a"}),
        )
        for i in range(8)
    ]
    sim_cluster = Cluster(sim_nodes, central_capacity=500.0)
    return plan, sim_cluster


class TestPayloadTrimming:
    def test_mild_overload_trims_values_not_messages(self):
        plan, cluster = overloaded_setup(root_budget_delta=-2.0)
        report = MonitoringSimulation(
            plan, cluster, seed=1
        ).run(5)
        assert report.metrics.counter(names.VALUES_TRIMMED) > 0
        assert report.metrics.counter(names.MESSAGES_DROPPED_CAPACITY) == 0
        # Most pairs still arrive.
        assert report.mean_fresh_coverage > 0.5

    def test_trimming_is_graded_in_overload(self):
        fresh = []
        for delta in (0.0, -2.0, -4.0):
            plan, cluster = overloaded_setup(root_budget_delta=delta)
            report = MonitoringSimulation(
                plan, cluster, seed=1
            ).run(5)
            fresh.append(report.mean_fresh_coverage)
        assert fresh[0] >= fresh[1] >= fresh[2]
        assert fresh[0] == pytest.approx(1.0)

    def test_severe_overload_drops_whole_message(self):
        plan, cluster = overloaded_setup(root_budget_delta=-1e9)
        report = MonitoringSimulation(
            plan, cluster, seed=1
        ).run(5)
        assert report.metrics.counter(names.MESSAGES_DROPPED_CAPACITY) > 0


class TestEdgeMultiset:
    def test_rename_costs_nothing(self, small_cluster):
        """An attribute retired system-wide shrinks a set's label but not
        its structure: zero reconfiguration messages."""
        pairs_ab = pairs_for(range(6), ["a", "b"])
        pairs_a = pairs_for(range(6), ["a"])
        plan_ab = ForestBuilder(COST).build(
            Partition.one_set(["a", "b"]), pairs_ab, small_cluster
        )
        plan_a = ForestBuilder(COST).build(
            Partition.one_set(["a"]), pairs_a, small_cluster
        )
        # Same builder inputs modulo payload: structure may coincide; if
        # it does, the multiset diff must be zero despite different keys.
        if plan_ab.edge_multiset() == plan_a.edge_multiset():
            assert plan_a.adaptation_cost_from(plan_ab) == 0

    def test_multiset_diff_counts_multiplicity(self):
        from repro.core.plan import MonitoringPlan

        old = {(1, 0): 2, (2, 0): 1}
        new = {(1, 0): 1, (3, 0): 1}
        assert MonitoringPlan.edge_multiset_diff(old, new) == 3

    def test_structural_change_is_counted(self, small_cluster):
        pairs = pairs_for(range(6), ["a", "b"])
        split = ForestBuilder(COST).build(
            Partition([{"a"}, {"b"}]), pairs, small_cluster
        )
        merged = ForestBuilder(COST).build(
            Partition.one_set(["a", "b"]), pairs, small_cluster
        )
        assert merged.adaptation_cost_from(split) > 0
