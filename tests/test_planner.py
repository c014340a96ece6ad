"""Unit tests for the REMO guided local-search planner."""

import pytest

from repro.core.attributes import pairs_for
from repro.core.cost import CostModel
from repro.core.partition import Partition
from repro.core.planner import RemoPlanner
from repro.core.schemes import OneSetPlanner, SingletonSetPlanner
from repro.workloads.presets import sampled_workload

HEAVY = CostModel(per_message=10.0, per_value=1.0)
LIGHT = CostModel(per_message=2.0, per_value=1.0)


class TestSearchMechanics:
    def test_stats_reflect_search_effort(self, medium_cluster):
        pairs = pairs_for(range(20), ["attr00", "attr01"])
        pairs = {p for p in pairs if medium_cluster.node(p.node).observes(p.attribute)}
        planner = RemoPlanner(HEAVY, candidate_budget=4, max_iterations=10)
        plan, stats = planner.plan_with_stats(pairs, medium_cluster)
        assert stats.iterations >= 1
        # Each iteration evaluates at most budget (+3 full-rebuild
        # fallbacks); initialization seeds add a handful more.
        seed_allowance = 8
        assert stats.candidates_evaluated <= stats.iterations * (4 + 3) + seed_allowance
        assert stats.elapsed_seconds > 0

    def test_merges_identical_node_sets(self, small_cluster):
        """Two attributes on the same nodes should share one tree."""
        pairs = pairs_for(range(6), ["a", "b"])
        planner = RemoPlanner(HEAVY)
        plan = planner.plan(pairs, small_cluster)
        assert plan.tree_count() == 1

    def test_objective_never_regresses(self, tight_cluster):
        pairs = pairs_for(range(20), ["a", "b", "c"])
        sp_plan = SingletonSetPlanner(LIGHT).plan(pairs, tight_cluster)
        remo_plan = RemoPlanner(LIGHT).plan(pairs, tight_cluster)
        # Problem Statement 1, lexicographically: pairs up, then volume down.
        def objective(plan):
            return (plan.collected_pair_count(), -plan.total_message_cost())

        assert objective(remo_plan) >= objective(sp_plan)

    def test_initial_partition_override(self, small_cluster):
        pairs = pairs_for(range(6), ["a", "b"])
        planner = RemoPlanner(LIGHT, max_iterations=1)
        plan = planner.plan(
            pairs, small_cluster, initial_partition=Partition.one_set(["a", "b"])
        )
        assert plan.coverage() > 0

    def test_initial_partition_universe_mismatch_rejected(self, small_cluster):
        pairs = pairs_for(range(6), ["a"])
        planner = RemoPlanner(LIGHT)
        with pytest.raises(ValueError):
            planner.plan(
                pairs, small_cluster, initial_partition=Partition.one_set(["a", "b"])
            )

    def test_forbidden_pairs_never_merged(self, small_cluster):
        pairs = pairs_for(range(6), ["a", "a#r1"])
        planner = RemoPlanner(
            HEAVY, forbidden_pairs={frozenset({"a", "a#r1"})}
        )
        plan = planner.plan(pairs, small_cluster)
        for attr_set in plan.partition.sets:
            assert not {"a", "a#r1"} <= set(attr_set)

    def test_plan_validates(self, tight_cluster):
        pairs = pairs_for(range(20), ["a", "b", "c", "d"])
        plan = RemoPlanner(LIGHT).plan(pairs, tight_cluster)
        plan.validate(
            {n.node_id: n.capacity for n in tight_cluster},
            tight_cluster.central_capacity,
        )


class TestConfiguration:
    def test_bad_candidate_budget_rejected(self):
        with pytest.raises(ValueError):
            RemoPlanner(LIGHT, candidate_budget=0)

    def test_bad_max_iterations_rejected(self):
        with pytest.raises(ValueError):
            RemoPlanner(LIGHT, max_iterations=0)

    def test_unbounded_budget_allowed(self, small_cluster):
        pairs = pairs_for(range(6), ["a", "b"])
        planner = RemoPlanner(HEAVY, candidate_budget=None, max_iterations=4)
        assert planner.plan(pairs, small_cluster).coverage() > 0

    @pytest.mark.parametrize(
        "workload",
        [
            dict(nodes=48, tasks=12, capacity=200.0, seed=1),  # search accepts ops
            dict(nodes=200, tasks=200),  # capacity-saturated scaling-bench row
        ],
    )
    def test_narrow_budget_stays_inside_envelope(self, workload):
        """A budget of 2 searches less than the default 8, but its plan
        must stay capacity-feasible and within the documented envelope:
        coverage >= 95% and message cost <= 110% of the default plan's."""
        cluster, cost, tasks = sampled_workload(**workload)
        default_plan = RemoPlanner(cost).plan(tasks, cluster)
        narrow_plan = RemoPlanner(cost, candidate_budget=2).plan(tasks, cluster)
        narrow_plan.validate(
            {n.node_id: n.capacity for n in cluster}, cluster.central_capacity
        )
        assert narrow_plan.coverage() >= 0.95 * default_plan.coverage()
        assert narrow_plan.total_message_cost() <= 1.10 * default_plan.total_message_cost()

    def test_empty_workload_rejected(self, small_cluster):
        with pytest.raises(ValueError):
            RemoPlanner(LIGHT).plan([], small_cluster)


class TestAgainstBaselines:
    def test_beats_or_matches_both_baselines_heavy_overhead(self, medium_cluster):
        pairs = {
            p
            for p in pairs_for(range(40), ["attr%02d" % i for i in range(8)])
            if p.node in medium_cluster
            and medium_cluster.node(p.node).observes(p.attribute)
        }
        sp = SingletonSetPlanner(HEAVY).plan(pairs, medium_cluster)
        op = OneSetPlanner(HEAVY).plan(pairs, medium_cluster)
        remo = RemoPlanner(HEAVY).plan(pairs, medium_cluster)
        assert remo.collected_pair_count() >= sp.collected_pair_count()
        assert remo.collected_pair_count() >= op.collected_pair_count()

    def test_light_load_prefers_fewer_trees_than_singleton(self, small_cluster):
        pairs = pairs_for(range(6), ["a", "b", "c"])
        remo = RemoPlanner(HEAVY).plan(pairs, small_cluster)
        sp = SingletonSetPlanner(HEAVY).plan(pairs, small_cluster)
        assert remo.tree_count() <= sp.tree_count()
        assert remo.total_message_cost() <= sp.total_message_cost()
