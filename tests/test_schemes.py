"""Unit tests for SINGLETON-SET / ONE-SET baselines and input handling."""

import pytest

from repro.core.attributes import NodeAttributePair, pairs_for
from repro.core.cost import CostModel
from repro.core.schemes import OneSetPlanner, SingletonSetPlanner, observable_pairs
from repro.core.tasks import DuplicateTaskError, MonitoringTask
from tests.conftest import manager_of

COST = CostModel(2.0, 1.0)


class TestInputNormalization:
    def test_accepts_task_list(self, small_cluster):
        tasks = [MonitoringTask("t", ["a"], [1, 2])]
        assert observable_pairs(tasks, small_cluster) == frozenset(pairs_for([1, 2], ["a"]))

    def test_accepts_task_manager(self, small_cluster):
        manager = manager_of([MonitoringTask("t", ["a"], [1])])
        assert observable_pairs(manager, small_cluster) == frozenset({NodeAttributePair(1, "a")})

    def test_accepts_pairs(self, small_cluster):
        pairs = pairs_for([1], ["a"])
        assert observable_pairs(pairs, small_cluster) == frozenset(pairs)

    def test_empty_source(self, small_cluster):
        assert observable_pairs([], small_cluster) == frozenset()

    def test_rejects_mixed_garbage(self, small_cluster):
        with pytest.raises(TypeError):
            observable_pairs([MonitoringTask("t", ["a"], [1]), "nonsense"], small_cluster)

    def test_observable_pairs_clips_unobservable(self, small_cluster):
        tasks = [MonitoringTask("t", ["a", "zzz"], [0, 1, 99])]
        pairs = observable_pairs(tasks, small_cluster)
        assert pairs == frozenset(pairs_for([0, 1], ["a"]))

    def test_task_list_matches_task_manager_path(self):
        # The plain-list path unions per-node attribute sets and clips
        # while expanding; a TaskManager goes through its refcounts.
        from repro.workloads.presets import sampled_workload

        cluster, _cost, tasks = sampled_workload(nodes=40, tasks=25, capacity=200.0, seed=3)
        assert observable_pairs(tasks, cluster) == observable_pairs(manager_of(tasks), cluster)
        pairs = manager_of(tasks).pairs()
        assert observable_pairs(tasks, cluster) == observable_pairs(pairs, cluster)

    def test_task_list_rejects_duplicate_ids(self, small_cluster):
        tasks = [MonitoringTask("t", ["a"], [0]), MonitoringTask("t", ["b"], [1])]
        with pytest.raises(DuplicateTaskError):
            observable_pairs(tasks, small_cluster)


class TestSingletonSet:
    def test_one_tree_per_attribute(self, small_cluster):
        tasks = [MonitoringTask("t", ["a", "b", "c"], range(6))]
        plan = SingletonSetPlanner(COST).plan(tasks, small_cluster)
        assert plan.tree_count() == 3
        assert all(len(s) == 1 for s in plan.partition.sets)

    def test_nodes_send_one_message_per_attribute(self, small_cluster):
        tasks = [MonitoringTask("t", ["a", "b"], range(6))]
        plan = SingletonSetPlanner(COST).plan(tasks, small_cluster)
        # Each node appears in both trees.
        for result in plan.trees.values():
            assert len(result.tree) == 6


class TestOneSet:
    def test_single_tree(self, small_cluster):
        tasks = [MonitoringTask("t", ["a", "b", "c"], range(6))]
        plan = OneSetPlanner(COST).plan(tasks, small_cluster)
        assert plan.tree_count() == 1

    def test_cheaper_than_singleton_when_capacity_allows(self, small_cluster):
        """One big message per node beats many small ones on overhead."""
        tasks = [MonitoringTask("t", ["a", "b", "c"], range(6))]
        sp = SingletonSetPlanner(COST).plan(tasks, small_cluster)
        op = OneSetPlanner(COST).plan(tasks, small_cluster)
        assert op.coverage() == pytest.approx(1.0)
        assert op.total_message_cost() < sp.total_message_cost()

    def test_saturates_under_heavy_load(self, tight_cluster):
        """The paper's OP scalability wall: the single tree cannot grow."""
        tasks = [MonitoringTask("t", ["a", "b", "c", "d"], range(20))]
        sp = SingletonSetPlanner(COST).plan(tasks, tight_cluster)
        op = OneSetPlanner(COST).plan(tasks, tight_cluster)
        assert op.coverage() < sp.coverage()


class TestErrors:
    def test_empty_workload_rejected(self, small_cluster):
        with pytest.raises(ValueError):
            SingletonSetPlanner(COST).plan([], small_cluster)

    def test_unobservable_workload_rejected(self, small_cluster):
        tasks = [MonitoringTask("t", ["not-an-attr"], [0])]
        with pytest.raises(ValueError):
            OneSetPlanner(COST).plan(tasks, small_cluster)
