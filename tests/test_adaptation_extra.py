"""Additional adaptation-service coverage: no-op batches, repeated
optimization, and interaction with extensions."""


from repro.core.adaptation import AdaptationStrategy, AdaptiveMonitoringService
from repro.core.cost import CostModel
from repro.core.tasks import MonitoringTask

COST = CostModel(per_message=6.0, per_value=1.0)


class TestEdgeCases:
    def test_empty_batch_is_cheap_noop(self, small_cluster):
        svc = AdaptiveMonitoringService(
            small_cluster, COST, strategy=AdaptationStrategy.ADAPTIVE
        )
        svc.initialize([MonitoringTask("t", ["a", "b"], range(6))], now=0.0)
        before = svc.plan.edge_multiset()
        report = svc.apply_changes([], now=1.0)
        assert report.adaptation_messages == 0
        assert svc.plan.edge_multiset() == before

    def test_first_change_without_initialize_plans_fresh(self, small_cluster):
        svc = AdaptiveMonitoringService(
            small_cluster, COST, strategy=AdaptationStrategy.ADAPTIVE
        )
        report = svc.apply_changes(
            [("add", MonitoringTask("t", ["a"], range(6)))], now=0.0
        )
        assert svc.plan is not None
        # Everything is new: every edge counts as a reconfiguration.
        assert report.adaptation_messages == sum(svc.plan.edge_multiset().values())
        assert report.collected_pairs > 0

    def test_readd_after_full_removal(self, small_cluster):
        svc = AdaptiveMonitoringService(
            small_cluster, COST, strategy=AdaptationStrategy.DIRECT_APPLY
        )
        task = MonitoringTask("t", ["a"], range(6))
        svc.initialize([task], now=0.0)
        svc.apply_changes([("remove", task)], now=1.0)
        assert svc.plan is None
        report = svc.apply_changes([("add", task)], now=2.0)
        assert svc.plan is not None
        assert report.coverage > 0

    def test_repeated_batches_converge(self, medium_cluster):
        """Applying the same modification repeatedly must not churn."""
        svc = AdaptiveMonitoringService(
            medium_cluster, COST, strategy=AdaptationStrategy.ADAPTIVE
        )
        svc.initialize(
            [MonitoringTask("t", ["attr00", "attr01"], range(20))], now=0.0
        )
        task = MonitoringTask("t", ["attr00", "attr02"], range(20))
        first = svc.apply_changes([("modify", task)], now=1.0)
        second = svc.apply_changes([("modify", task)], now=2.0)
        assert second.adaptation_messages <= first.adaptation_messages

    def test_plan_survives_attribute_swap_cycle(self, small_cluster):
        svc = AdaptiveMonitoringService(
            small_cluster, COST, strategy=AdaptationStrategy.NO_THROTTLE
        )
        svc.initialize([MonitoringTask("t", ["a", "b"], range(6))], now=0.0)
        caps = {n.node_id: n.capacity for n in small_cluster}
        for step, attrs in enumerate([["b", "c"], ["c", "a"], ["a", "b"]]):
            svc.apply_changes(
                [("modify", MonitoringTask("t", attrs, range(6)))],
                now=float(step + 1),
            )
            svc.plan.validate(caps, small_cluster.central_capacity)
        assert {a for s in svc.plan.partition.sets for a in s} == {"a", "b"}
