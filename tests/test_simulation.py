"""Integration tests for the monitoring simulation engine."""

import pytest

from repro.core.attributes import pairs_for
from repro.core.cost import CostModel
from repro.core.forest import ForestBuilder
from repro.core.partition import Partition
from repro.obs import names
from repro.runtime import AgentOutage
from repro.simulation import (
    FailureInjector,
    LinkOutage,
    MonitoringSimulation,
)

COST = CostModel(2.0, 1.0)


def plan_for(cluster, pairs, partition=None):
    partition = partition or Partition.singletons({p.attribute for p in pairs})
    return ForestBuilder(COST).build(partition, pairs, cluster)


class TestHappyPath:
    def test_feasible_plan_runs_drop_free(self, small_cluster):
        pairs = pairs_for(range(6), ["a", "b"])
        plan = plan_for(small_cluster, pairs)
        report = MonitoringSimulation(
            plan, small_cluster, seed=1
        ).run(10)
        assert report.metrics.counter(names.MESSAGES_DROPPED_CAPACITY) == 0
        assert report.metrics.counter(names.MESSAGES_DROPPED_FAILURE) == 0
        assert report.metrics.counter(names.MESSAGES_DELIVERED) == report.messages_sent

    def test_full_coverage_gives_low_error(self, small_cluster):
        pairs = pairs_for(range(6), ["a", "b"])
        plan = plan_for(small_cluster, pairs)
        report = MonitoringSimulation(
            plan, small_cluster, seed=1
        ).run(10)
        assert report.mean_percentage_error < 0.05
        assert report.mean_fresh_coverage == pytest.approx(1.0)

    def test_uncovered_pairs_drive_error(self, tight_cluster):
        pairs = pairs_for(range(20), ["a", "b", "c", "d"])
        plan = plan_for(tight_cluster, pairs)
        assert plan.coverage() < 1.0
        report = MonitoringSimulation(
            plan, tight_cluster, seed=1
        ).run(10)
        # Every uncovered pair contributes ~100% error.
        assert report.mean_percentage_error >= (1.0 - plan.coverage()) * 0.9

    def test_message_counts_match_topology(self, small_cluster):
        pairs = pairs_for(range(6), ["a"])
        plan = plan_for(small_cluster, pairs)
        report = MonitoringSimulation(
            plan, small_cluster, seed=1
        ).run(5)
        expected_per_period = sum(len(r.tree) for r in plan.trees.values())
        assert report.messages_sent == expected_per_period * 5

    def test_deterministic_given_seed(self, small_cluster):
        pairs = pairs_for(range(6), ["a"])
        plan = plan_for(small_cluster, pairs)
        s1 = MonitoringSimulation(plan, small_cluster, seed=4).run(8)
        s2 = MonitoringSimulation(plan, small_cluster, seed=4).run(8)
        assert s1.mean_percentage_error == pytest.approx(s2.mean_percentage_error)

    def test_rejects_nonpositive_periods(self, small_cluster):
        pairs = pairs_for(range(6), ["a"])
        plan = plan_for(small_cluster, pairs)
        sim = MonitoringSimulation(plan, small_cluster)
        with pytest.raises(ValueError):
            sim.run(0)


class TestLatencyStaleness:
    def test_deep_tree_staler_than_flat(self, small_cluster, monkeypatch):
        """A chain whose wave exceeds the period delivers one period late."""
        pairs = pairs_for(range(6), ["a"])
        plan = plan_for(small_cluster, pairs)
        # A hop latency so large that (H+1) hops > period for any tree
        # deeper than 2.
        monkeypatch.setattr("repro.simulation.engine.HOP_LATENCY", 0.4)
        stale = MonitoringSimulation(plan, small_cluster, seed=1).run(10)
        monkeypatch.setattr("repro.simulation.engine.HOP_LATENCY", 0.001)
        fresh = MonitoringSimulation(plan, small_cluster, seed=1).run(10)
        assert stale.mean_fresh_coverage <= fresh.mean_fresh_coverage


class TestFailures:
    def test_link_outage_drops_messages(self, small_cluster):
        pairs = pairs_for(range(6), ["a"])
        plan = plan_for(small_cluster, pairs)
        # Find a non-root edge to sever.
        attr_set = frozenset({"a"})
        tree = plan.trees[attr_set].tree
        child = next(n for n in tree.nodes if tree.parent(n) is not None)
        injector = FailureInjector(
            link_outages=[LinkOutage(child, attr_set, 0.0, 5.0)]
        )
        report = MonitoringSimulation(
            plan, small_cluster, seed=1, failures=injector
        ).run(10)
        assert report.metrics.counter(names.MESSAGES_DROPPED_FAILURE) > 0

    def test_node_outage_blocks_sends(self, small_cluster):
        pairs = pairs_for(range(6), ["a"])
        plan = plan_for(small_cluster, pairs)
        injector = FailureInjector(node_outages=[AgentOutage(0, 0, 100)])
        report = MonitoringSimulation(
            plan, small_cluster, seed=1, failures=injector
        ).run(5)
        assert report.metrics.counter(names.MESSAGES_DROPPED_FAILURE) > 0
        assert report.mean_percentage_error > 0

    def test_outage_windows_validate(self):
        with pytest.raises(ValueError):
            LinkOutage(0, frozenset({"a"}), 5.0, 5.0)
        with pytest.raises(ValueError):
            AgentOutage(0, 2, 1)
