"""Tests for aggregation-aware planning (Section 6.1 / Fig. 12a)."""


from repro.core.attributes import pairs_for
from repro.core.cost import AggregationKind, CostModel
from repro.core.planner import RemoPlanner
from repro.ext.aggregation import uniform_aggregation

HEAVY = CostModel(per_message=10.0, per_value=1.0)


class TestUniformAggregation:
    def test_assigns_every_attribute(self):
        agg = uniform_aggregation(["a", "b"], AggregationKind.MAX)
        assert set(agg) == {"a", "b"}
        assert all(spec.kind is AggregationKind.MAX for spec in agg.values())


class TestAggregationAwarePlanning:
    def test_awareness_never_hurts_coverage(self, tight_cluster):
        pairs = pairs_for(range(20), ["a", "b", "c"])
        agg = uniform_aggregation(["a", "b", "c"], AggregationKind.MAX)
        oblivious = RemoPlanner(HEAVY).plan(pairs, tight_cluster)
        aware = RemoPlanner(HEAVY, aggregation=agg).plan(pairs, tight_cluster)
        assert aware.collected_pair_count() >= oblivious.collected_pair_count()

    def test_aware_plans_carry_less_traffic(self, tight_cluster):
        """MAX trees relay a single partial result per hop."""
        pairs = pairs_for(range(20), ["a"])
        agg = uniform_aggregation(["a"], AggregationKind.MAX)
        oblivious = RemoPlanner(HEAVY).plan(pairs, tight_cluster)
        aware = RemoPlanner(HEAVY, aggregation=agg).plan(pairs, tight_cluster)
        if aware.collected_pair_count() == oblivious.collected_pair_count():
            assert aware.total_message_cost() <= oblivious.total_message_cost()

    def test_plan_validates_under_aggregation(self, tight_cluster):
        pairs = pairs_for(range(20), ["a", "b"])
        agg = uniform_aggregation(["a", "b"], AggregationKind.SUM)
        plan = RemoPlanner(HEAVY, aggregation=agg).plan(pairs, tight_cluster)
        plan.validate(
            {n.node_id: n.capacity for n in tight_cluster},
            tight_cluster.central_capacity,
        )
