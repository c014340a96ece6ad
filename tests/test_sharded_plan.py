"""Collector sharding and multi-tenant namespaces."""

import pytest

from repro.core.attributes import NodeAttributePair
from repro.core.plan import ShardedPlan, shard_partition_sets
from repro.core.planner import RemoPlanner
from repro.core.tasks import (
    DuplicateTaskError,
    InvalidTenantError,
    MonitoringTask,
    MultiTenantTaskManager,
    UnknownTaskError,
    qualified_task_id,
)
from repro.workloads.presets import quickstart_workload


@pytest.fixture(scope="module")
def quickstart_plan():
    cluster, cost, tasks = quickstart_workload()
    plan = RemoPlanner(cost).plan(tasks, cluster)
    return cluster, cost, plan


class TestShardPartitionSets:
    def test_every_set_assigned_in_range(self, quickstart_plan):
        _cluster, _cost, plan = quickstart_plan
        assignment = shard_partition_sets(plan.partition.sets, 3)
        assert set(assignment) == set(plan.partition.sets)
        assert all(0 <= shard < 3 for shard in assignment.values())

    def test_hash_mode_is_deterministic(self, quickstart_plan):
        _cluster, _cost, plan = quickstart_plan
        first = shard_partition_sets(plan.partition.sets, 4)
        second = shard_partition_sets(plan.partition.sets, 4)
        assert first == second

    def test_single_shard_collapses_to_zero(self, quickstart_plan):
        _cluster, _cost, plan = quickstart_plan
        assignment = shard_partition_sets(plan.partition.sets, 1)
        assert set(assignment.values()) == {0}

    def test_rejects_bad_inputs(self, quickstart_plan):
        _cluster, _cost, plan = quickstart_plan
        with pytest.raises(ValueError):
            shard_partition_sets(plan.partition.sets, 0)
        with pytest.raises(ValueError):
            shard_partition_sets(plan.partition.sets, -1)


class TestShardedPlan:
    def test_pairs_partition_exactly(self, quickstart_plan):
        _cluster, _cost, plan = quickstart_plan
        sharded = ShardedPlan.build(plan, 3)
        union = set()
        total = 0
        for shard in range(3):
            pairs = sharded.pairs_for(shard)
            total += len(pairs)
            union.update(pairs)
        assert union == set(plan.pairs)
        assert total == len(plan.pairs)  # disjoint: no pair counted twice

    def test_central_usage_splits_across_shards(self, quickstart_plan):
        _cluster, _cost, plan = quickstart_plan
        sharded = ShardedPlan.build(plan, 2)
        by_shard = sharded.central_usage_by_shard()
        assert sum(by_shard.values()) == pytest.approx(plan.central_usage())

    def test_summary_shape(self, quickstart_plan):
        _cluster, _cost, plan = quickstart_plan
        summary = ShardedPlan.build(plan, 2).summary()
        assert summary["shards"] == 2
        assert set(summary["sets_per_shard"]) == {"0", "1"}
        assert set(summary["pairs_per_shard"]) == {"0", "1"}
        assert sum(summary["central_usage"].values()) == pytest.approx(
            plan.central_usage()
        )
        # More collectors than trees: some shard hosts no tree, and the
        # summary reports it as a 0 instead of dropping it.
        many = plan.tree_count() + 1
        sparse = ShardedPlan.build(plan, many).summary()["sets_per_shard"]
        assert set(sparse) == {str(shard) for shard in range(many)}
        assert sum(sparse.values()) == plan.tree_count()
        assert 0 in sparse.values()

    def test_build_rejects_foreign_plan_pairing(self, quickstart_plan):
        _cluster, _cost, plan = quickstart_plan
        sharded = ShardedPlan.build(plan, 2)
        assert sharded.plan is plan


class TestMultiTenantTaskManager:
    def _task(self, task_id="t", attrs=("a",), nodes=(1,)):
        return MonitoringTask(task_id, list(attrs), list(nodes))

    def test_duplicate_ids_scoped_per_tenant(self):
        manager = MultiTenantTaskManager()
        manager.add_task("alpha", self._task())
        # The same id under another tenant is fine...
        manager.add_task("beta", self._task())
        # ...but a duplicate within one tenant is rejected.
        with pytest.raises(DuplicateTaskError):
            manager.add_task("alpha", self._task())

    def test_global_delta_fires_on_first_and_last_tenant(self):
        manager = MultiTenantTaskManager()
        pair = NodeAttributePair(1, "a")
        first = manager.add_task("alpha", self._task())
        assert pair in first.added
        second = manager.add_task("beta", self._task())
        assert second.added == frozenset()  # already required by alpha
        gone = manager.remove_task("alpha", "t")
        assert gone.removed == frozenset()  # beta still wants it
        last = manager.remove_task("beta", "t")
        assert pair in last.removed
        assert manager.pair_count() == 0

    def test_pairs_union_and_counts(self):
        manager = MultiTenantTaskManager()
        manager.add_task("alpha", self._task("t1", ("a",), (1,)))
        manager.add_task("beta", self._task("t2", ("b",), (2,)))
        assert manager.pairs() == {
            NodeAttributePair(1, "a"),
            NodeAttributePair(2, "b"),
        }
        assert manager.task_count() == 2
        assert manager.tenants() == ["alpha", "beta"]

    def test_rejects_separator_in_names(self):
        manager = MultiTenantTaskManager()
        with pytest.raises(InvalidTenantError):
            manager.add_task("bad/tenant", self._task())
        with pytest.raises(InvalidTenantError):
            manager.add_task("alpha", self._task("bad/task"))
        with pytest.raises(InvalidTenantError):
            manager.add_task("", self._task())

    def test_unknown_lookups_raise_with_qualified_id(self):
        manager = MultiTenantTaskManager()
        with pytest.raises(UnknownTaskError):
            manager.get("ghost", "t")
        manager.add_task("alpha", self._task())
        with pytest.raises(UnknownTaskError):
            manager.remove_task("alpha", "missing")

    def test_qualified_task_id(self):
        assert qualified_task_id("alpha", "t1") == "alpha/t1"
