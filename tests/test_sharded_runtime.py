"""The in-process runtime hosting several collector shards."""

import pytest

from repro.core.attributes import pairs_for
from repro.core.cost import CostModel
from repro.core.forest import ForestBuilder
from repro.core.partition import Partition
from repro.core.plan import ShardedPlan
from repro.obs import names
from repro.runtime import COLLECTOR_ADDRESS, MonitoringRuntime, RuntimeConfig
from repro.runtime.messages import collector_shard_address

COST = CostModel(2.0, 1.0)
FAST = dict(period_seconds=0.02, seed=1)


def plan_for(cluster, pairs):
    partition = Partition.singletons({p.attribute for p in pairs})
    return ForestBuilder(COST).build(partition, pairs, cluster)


class TestShardedRuntime:
    def test_two_shards_match_single_collector_coverage(self, small_cluster):
        pairs = pairs_for(range(6), ["a", "b"])
        plan = plan_for(small_cluster, pairs)
        single = MonitoringRuntime(
            plan, small_cluster, config=RuntimeConfig(**FAST)
        ).run(6)
        sharded = ShardedPlan.build(plan, 2)
        split = MonitoringRuntime(
            plan, small_cluster, config=RuntimeConfig(**FAST), sharded=sharded
        ).run(6)
        assert split.final_coverage == pytest.approx(single.final_coverage)
        assert split.mean_fresh_coverage == pytest.approx(
            single.mean_fresh_coverage
        )
        assert len(split.samples) == len(single.samples) == 6
        assert split.requested_pairs == single.requested_pairs

    def test_sharded_runtime_hosts_one_agent_per_shard(self, small_cluster):
        pairs = pairs_for(range(6), ["a", "b"])
        plan = plan_for(small_cluster, pairs)
        sharded = ShardedPlan.build(plan, 2)
        runtime = MonitoringRuntime(
            plan, small_cluster, config=RuntimeConfig(**FAST), sharded=sharded
        )
        assert set(runtime.collectors) == {
            collector_shard_address(0),
            collector_shard_address(1),
        }
        # The back-compat alias still points at the shard-0 agent.
        assert runtime.collector is runtime.collectors[COLLECTOR_ADDRESS]
        # Each shard agent scores exactly its own pair slice.
        for shard in range(2):
            agent = runtime.collectors[collector_shard_address(shard)]
            assert set(agent.requested_pairs) == set(sharded.pairs_for(shard))

    def test_sharded_plan_must_wrap_the_runtime_plan(self, small_cluster):
        pairs = pairs_for(range(6), ["a"])
        plan = plan_for(small_cluster, pairs)
        other = plan_for(small_cluster, pairs_for(range(6), ["b"]))
        with pytest.raises(ValueError):
            MonitoringRuntime(
                plan,
                small_cluster,
                config=RuntimeConfig(**FAST),
                sharded=ShardedPlan.build(other, 2),
            )

    def test_merged_report_counts_every_message_once(self, small_cluster):
        pairs = pairs_for(range(6), ["a"])
        plan = plan_for(small_cluster, pairs)
        members = sum(len(r.tree) for r in plan.trees.values())
        sharded = ShardedPlan.build(plan, 2)
        report = MonitoringRuntime(
            plan, small_cluster, config=RuntimeConfig(**FAST), sharded=sharded
        ).run(5)
        assert report.messages_sent == 5 * members
        assert report.metrics.counter(names.MESSAGES_DROPPED_CAPACITY) == 0
        assert report.metrics.counter(names.MESSAGES_DROPPED_FAILURE) == 0
        assert report.metrics.counter(names.MESSAGES_DROPPED_INVALID) == 0
