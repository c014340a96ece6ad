"""Tests for SSDP/DSDP replication (Section 6.2 / Fig. 12b)."""

import pytest

from repro.cluster.metrics import MetricRegistry
from repro.core.attributes import NodeAttributePair
from repro.core.cost import CostModel
from repro.core.planner import RemoPlanner
from repro.core.schemes import observable_pairs
from repro.core.tasks import MonitoringTask
from repro.ext.reliability import (
    ReplicatedRegistry,
    alias_cluster,
    alias_name,
    base_of,
    replica_plan_coverage,
    rewrite_dsdp,
    rewrite_ssdp,
)

COST = CostModel(4.0, 1.0)


class TestNaming:
    def test_alias_roundtrip(self):
        assert alias_name("cpu", 0) == "cpu"
        assert alias_name("cpu", 2) == "cpu#r2"
        assert base_of("cpu#r2") == "cpu"
        assert base_of("cpu") == "cpu"

    def test_base_of_ignores_lookalikes(self):
        assert base_of("metric#rx") == "metric#rx"


class TestSsdpRewrite:
    def test_factor_two_duplicates_tasks(self):
        tasks = [MonitoringTask("t", ["a", "b"], [1, 2])]
        rewrite = rewrite_ssdp(tasks, factor=2)
        assert len(rewrite.tasks) == 2
        replica = rewrite.tasks[1]
        assert replica.attributes == {"a#r1", "b#r1"}
        assert replica.nodes == {1, 2}

    def test_forbidden_pairs_separate_aliases(self):
        tasks = [MonitoringTask("t", ["a"], [1])]
        rewrite = rewrite_ssdp(tasks, factor=3)
        assert frozenset({"a", "a#r1"}) in rewrite.forbidden_pairs
        assert frozenset({"a", "a#r2"}) in rewrite.forbidden_pairs
        assert frozenset({"a#r1", "a#r2"}) in rewrite.forbidden_pairs

    def test_factor_one_is_identity(self):
        tasks = [MonitoringTask("t", ["a"], [1])]
        rewrite = rewrite_ssdp(tasks, factor=1)
        assert len(rewrite.tasks) == 1
        assert rewrite.forbidden_pairs == set()

    def test_bad_factor_rejected(self):
        with pytest.raises(ValueError):
            rewrite_ssdp([], factor=0)


class TestDsdpRewrite:
    def test_replica_count_is_min_group_size(self):
        rewrite = rewrite_dsdp("t", "disk", [[1, 2, 3], [4, 5]])
        assert len(rewrite.tasks) == 2  # min(3, 2)

    def test_replicas_pick_distinct_nodes(self):
        rewrite = rewrite_dsdp("t", "disk", [[1, 2], [3, 4]])
        nodes_0 = rewrite.tasks[0].nodes
        nodes_1 = rewrite.tasks[1].nodes
        assert nodes_0 == {1, 3}
        assert nodes_1 == {2, 4}

    def test_empty_groups_rejected(self):
        with pytest.raises(ValueError):
            rewrite_dsdp("t", "disk", [[]])


class TestPlannedReplication:
    def test_aliases_end_up_in_distinct_trees(self, small_cluster):
        tasks = [MonitoringTask("t", ["a"], range(6))]
        rewrite = rewrite_ssdp(tasks, factor=2)
        cluster = alias_cluster(small_cluster, rewrite)
        planner = RemoPlanner(COST, forbidden_pairs=rewrite.forbidden_pairs)
        plan = planner.plan(rewrite.tasks, cluster)
        for attr_set in plan.partition.sets:
            assert not {"a", "a#r1"} <= set(attr_set)

    def test_replica_coverage_counts_any_path(self, small_cluster):
        tasks = [MonitoringTask("t", ["a"], range(6))]
        rewrite = rewrite_ssdp(tasks, factor=2)
        cluster = alias_cluster(small_cluster, rewrite)
        planner = RemoPlanner(COST, forbidden_pairs=rewrite.forbidden_pairs)
        plan = planner.plan(rewrite.tasks, cluster)
        assert replica_plan_coverage(plan, rewrite) >= plan.coverage() - 1e-9

    def test_alias_cluster_extends_observability(self, small_cluster):
        tasks = [MonitoringTask("t", ["a"], range(6))]
        rewrite = rewrite_ssdp(tasks, factor=2)
        cluster = alias_cluster(small_cluster, rewrite)
        assert cluster.node(0).observes("a#r1")
        pairs = observable_pairs(rewrite.tasks, cluster)
        assert NodeAttributePair(0, "a#r1") in pairs


class TestReplicatedRegistry:
    def test_alias_reads_base_truth(self):
        base_pair = NodeAttributePair(0, "a")
        base = MetricRegistry([base_pair], seed=1)
        registry = ReplicatedRegistry(base, {"a#r1": "a"})
        alias_pair = NodeAttributePair(0, "a#r1")
        assert registry.value(alias_pair) == pytest.approx(base.value(base_pair))
        registry.advance_all()
        assert registry.value(alias_pair) == pytest.approx(base.value(base_pair))
        assert registry.reader([alias_pair, base_pair])() == [base.value(base_pair)] * 2

    def test_contains_and_ensure(self):
        base_pair = NodeAttributePair(0, "a")
        base = MetricRegistry([base_pair], seed=1)
        registry = ReplicatedRegistry(base, {"a#r1": "a"})
        assert NodeAttributePair(0, "a#r1") in registry
        registry.ensure(NodeAttributePair(0, "a#r1"))
        assert len(registry) == 1
