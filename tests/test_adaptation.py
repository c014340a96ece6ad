"""Unit tests for runtime topology adaptation (Section 4)."""

import pytest

from repro.core.adaptation import (
    AdaptationStrategy,
    AdaptiveMonitoringService,
)
from repro.core.cost import CostModel
from repro.core.tasks import MonitoringTask

COST = CostModel(per_message=4.0, per_value=1.0)


def service(cluster, strategy, **kwargs):
    return AdaptiveMonitoringService(cluster, COST, strategy=strategy, **kwargs)


def initial_tasks():
    return [
        MonitoringTask("t0", ["a", "b"], range(6)),
        MonitoringTask("t1", ["b", "c"], range(3, 6)),
    ]


class TestLifecycle:
    @pytest.mark.parametrize("strategy", list(AdaptationStrategy))
    def test_initialize_builds_a_plan(self, small_cluster, strategy):
        svc = service(small_cluster, strategy)
        report = svc.initialize(initial_tasks(), now=0.0)
        assert svc.plan is not None
        assert report.collected_pairs > 0
        assert report.adaptation_messages == sum(svc.plan.edge_multiset().values())

    @pytest.mark.parametrize("strategy", list(AdaptationStrategy))
    def test_add_task_extends_coverage(self, small_cluster, strategy):
        svc = service(small_cluster, strategy)
        svc.initialize(initial_tasks(), now=0.0)
        before = svc.plan.requested_pair_count()
        report = svc.apply_changes(
            [("add", MonitoringTask("t2", ["c"], range(6)))], now=1.0
        )
        assert report.requested_pairs > before
        svc.plan.validate(
            {n.node_id: n.capacity for n in small_cluster},
            small_cluster.central_capacity,
        )

    @pytest.mark.parametrize("strategy", list(AdaptationStrategy))
    def test_remove_all_tasks_clears_plan(self, small_cluster, strategy):
        svc = service(small_cluster, strategy)
        svc.initialize(initial_tasks(), now=0.0)
        report = svc.apply_changes(
            [("remove", t) for t in initial_tasks()], now=1.0
        )
        assert svc.plan is None
        assert report.requested_pairs == 0

    def test_modify_task_changes_pairs(self, small_cluster):
        svc = service(small_cluster, AdaptationStrategy.ADAPTIVE)
        svc.initialize(initial_tasks(), now=0.0)
        report = svc.apply_changes(
            [("modify", MonitoringTask("t0", ["a"], range(6)))], now=1.0
        )
        attrs = {p.attribute for p in svc.plan.pairs}
        assert attrs == {"a", "b", "c"}


class TestStrategyDifferences:
    def test_direct_apply_keeps_untouched_trees(self, small_cluster):
        svc = service(small_cluster, AdaptationStrategy.DIRECT_APPLY)
        svc.initialize(initial_tasks(), now=0.0)
        untouched = {
            s: r for s, r in svc.plan.trees.items() if "a" not in s and "d" not in s
        }
        svc.apply_changes([("add", MonitoringTask("t9", ["a", "d"], range(6)))], now=1.0)
        for attr_set, result in untouched.items():
            if attr_set in svc.plan.trees:
                assert svc.plan.trees[attr_set] is result

    def test_direct_apply_cheapest_adaptation(self, medium_cluster):
        tasks = [
            MonitoringTask("t0", ["attr00", "attr01"], range(20)),
            MonitoringTask("t1", ["attr02", "attr03"], range(10, 30)),
        ]
        change = [("modify", MonitoringTask("t0", ["attr00", "attr04"], range(20)))]
        costs = {}
        for strategy in (AdaptationStrategy.DIRECT_APPLY, AdaptationStrategy.REBUILD):
            svc = service(medium_cluster, strategy)
            svc.initialize(tasks, now=0.0)
            report = svc.apply_changes(change, now=1.0)
            costs[strategy] = report.adaptation_messages
        assert costs[AdaptationStrategy.DIRECT_APPLY] <= costs[AdaptationStrategy.REBUILD]

    def test_throttling_reduces_or_equals_applied_ops(self, medium_cluster):
        tasks = [
            MonitoringTask("t0", ["attr00", "attr01"], range(20)),
            MonitoringTask("t1", ["attr02", "attr03"], range(10, 30)),
        ]
        change = [("modify", MonitoringTask("t0", ["attr00", "attr05"], range(20)))]
        applied = {}
        for strategy in (AdaptationStrategy.NO_THROTTLE, AdaptationStrategy.ADAPTIVE):
            svc = service(medium_cluster, strategy)
            svc.initialize(tasks, now=0.0)
            # Apply the same change immediately: ADAPTIVE should hesitate
            # on fresh trees (T_adj == now => threshold 0).
            report = svc.apply_changes(change, now=0.0)
            applied[strategy] = len(report.applied_ops)
        assert applied[AdaptationStrategy.ADAPTIVE] <= applied[AdaptationStrategy.NO_THROTTLE]

    def test_adaptive_applies_after_stability(self, medium_cluster):
        """Once trees have been stable for long, worthwhile ops pass."""
        svc = service(medium_cluster, AdaptationStrategy.ADAPTIVE)
        svc.initialize(
            [
                MonitoringTask("t0", ["attr00", "attr01"], range(20)),
                MonitoringTask("t1", ["attr02"], range(20)),
            ],
            now=0.0,
        )
        report = svc.apply_changes(
            [("modify", MonitoringTask("t1", ["attr01"], range(20)))], now=1000.0
        )
        assert report.requested_pairs > 0  # plan stays live
        svc.plan.validate(
            {n.node_id: n.capacity for n in medium_cluster},
            medium_cluster.central_capacity,
        )


class TestConfiguration:
    def test_reports_carry_strategy(self, small_cluster):
        svc = service(small_cluster, AdaptationStrategy.REBUILD)
        report = svc.initialize(initial_tasks(), now=0.0)
        assert report.strategy is AdaptationStrategy.REBUILD
        assert report.coverage > 0
