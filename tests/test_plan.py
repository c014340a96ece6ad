"""Unit tests for MonitoringPlan metrics and structure."""

import pytest

from repro.core.attributes import pairs_for
from repro.core.cost import CostModel
from repro.core.forest import ForestBuilder
from repro.core.partition import Partition
from repro.core.plan import MonitoringPlan

COST = CostModel(2.0, 1.0)


def plan_for(cluster, pairs, partition=None):
    partition = partition or Partition.singletons({p.attribute for p in pairs})
    return ForestBuilder(COST).build(partition, pairs, cluster)


class TestObjectiveMetrics:
    def test_full_coverage(self, small_cluster):
        pairs = pairs_for(range(6), ["a", "b"])
        plan = plan_for(small_cluster, pairs)
        assert plan.coverage() == pytest.approx(1.0)
        assert plan.collected_pair_count() == 12
        assert plan.requested_pair_count() == 12

    def test_partial_coverage_counts_uncollected(self, tight_cluster):
        pairs = pairs_for(range(20), ["a", "b", "c", "d"])
        plan = plan_for(tight_cluster, pairs)
        assert plan.coverage() < 1.0
        uncollected = plan.uncollected_by_set()
        assert sum(uncollected.values()) == plan.requested_pair_count() - plan.collected_pair_count()
        assert all(v >= 0 for v in uncollected.values())

    def test_collected_pairs_subset_of_requested(self, tight_cluster):
        pairs = pairs_for(range(20), ["a", "b"])
        plan = plan_for(tight_cluster, pairs)
        assert plan.collected_pairs() <= set(pairs)

    def test_total_message_cost_positive(self, small_cluster):
        pairs = pairs_for(range(6), ["a"])
        plan = plan_for(small_cluster, pairs)
        assert plan.total_message_cost() > 0

    def test_max_tree_depth(self, small_cluster):
        pairs = pairs_for(range(6), ["a"])
        plan = plan_for(small_cluster, pairs)
        assert plan.max_tree_depth() >= 0


class TestResourceAccounting:
    def test_node_usage_sums_across_trees(self, small_cluster):
        pairs = pairs_for(range(6), ["a", "b"])
        plan = plan_for(small_cluster, pairs, Partition([{"a"}, {"b"}]))
        usage = plan.node_usage()
        for node, used in usage.items():
            per_tree = sum(
                result.tree.used(node)
                for result in plan.trees.values()
                if node in result.tree
            )
            assert used == pytest.approx(per_tree)

    def test_central_usage_is_sum_of_root_messages(self, small_cluster):
        pairs = pairs_for(range(6), ["a", "b"])
        plan = plan_for(small_cluster, pairs, Partition([{"a"}, {"b"}]))
        expected = sum(r.tree.central_used() for r in plan.trees.values())
        assert plan.central_usage() == pytest.approx(expected)


class TestAssignments:
    def test_assignment_edges_match_tree_sizes(self, small_cluster):
        pairs = pairs_for(range(6), ["a", "b"])
        plan = plan_for(small_cluster, pairs, Partition([{"a"}, {"b"}]))
        total_nodes = sum(len(r.tree) for r in plan.trees.values())
        assert sum(plan.edge_multiset().values()) == total_nodes

    def test_identical_plans_have_zero_adaptation_cost(self, small_cluster):
        pairs = pairs_for(range(6), ["a"])
        p1 = plan_for(small_cluster, pairs)
        p2 = plan_for(small_cluster, pairs)
        assert p2.adaptation_cost_from(p1) == 0

    def test_partition_change_costs_edges(self, small_cluster):
        pairs = pairs_for(range(6), ["a", "b"])
        split = plan_for(small_cluster, pairs, Partition([{"a"}, {"b"}]))
        merged = plan_for(small_cluster, pairs, Partition([{"a", "b"}]))
        assert merged.adaptation_cost_from(split) > 0


class TestValidation:
    def test_validate_passes_for_feasible_plan(self, tight_cluster):
        pairs = pairs_for(range(20), ["a", "b"])
        plan = plan_for(tight_cluster, pairs)
        plan.validate(
            {n.node_id: n.capacity for n in tight_cluster},
            tight_cluster.central_capacity,
        )

    def test_validate_fails_on_shrunk_budget(self, small_cluster):
        pairs = pairs_for(range(6), ["a"])
        plan = plan_for(small_cluster, pairs)
        with pytest.raises(AssertionError):
            plan.validate({n.node_id: 0.01 for n in small_cluster}, 0.01)

    def test_plan_requires_tree_per_set(self, small_cluster):
        pairs = pairs_for(range(6), ["a", "b"])
        plan = plan_for(small_cluster, pairs, Partition([{"a"}, {"b"}]))
        with pytest.raises(ValueError):
            MonitoringPlan(
                Partition([{"a"}, {"b"}]),
                {frozenset({"a"}): plan.trees[frozenset({"a"})]},
                pairs,
                COST,
            )

    def test_empty_pair_coverage_is_one(self, small_cluster):
        pairs = pairs_for(range(2), ["a"])
        plan = plan_for(small_cluster, pairs)
        trimmed = MonitoringPlan(plan.partition, plan.trees, [], COST)
        assert trimmed.coverage() == 1.0
