"""Tests for heterogeneous update frequency support (Section 6.3)."""

import pytest

from repro.core.attributes import NodeAttributePair
from repro.core.cost import CostModel
from repro.core.planner import RemoPlanner
from repro.core.tasks import MonitoringTask
from repro.ext.frequencies import frequency_weights
from tests.conftest import manager_of

HEAVY = CostModel(10.0, 1.0)


class TestFrequencyWeights:
    def test_pair_weight_is_max_over_tasks(self):
        tasks = [
            MonitoringTask("slow", ["a"], [1], frequency=0.25),
            MonitoringTask("fast", ["a"], [1], frequency=1.0),
        ]
        inputs = frequency_weights(tasks)
        assert inputs.pair_weights[NodeAttributePair(1, "a")] == pytest.approx(1.0)

    def test_msg_weight_is_node_max(self):
        tasks = [
            MonitoringTask("t1", ["a"], [1], frequency=0.2),
            MonitoringTask("t2", ["b"], [1], frequency=0.6),
        ]
        inputs = frequency_weights(tasks)
        assert inputs.msg_weights[1] == pytest.approx(0.6)

    def test_accepts_task_manager(self):
        manager = manager_of([MonitoringTask("t", ["a"], [1], frequency=0.5)])
        inputs = frequency_weights(manager)
        assert inputs.pair_weights[NodeAttributePair(1, "a")] == pytest.approx(0.5)

    def test_uniform_frequency_is_all_ones(self):
        tasks = [MonitoringTask("t", ["a", "b"], [1, 2])]
        inputs = frequency_weights(tasks)
        assert all(w == 1.0 for w in inputs.pair_weights.values())
        assert all(w == 1.0 for w in inputs.msg_weights.values())


class TestFrequencyAwarePlanning:
    def test_awareness_never_hurts(self, tight_cluster):
        tasks = [
            MonitoringTask("fast", ["a", "b"], range(20), frequency=1.0),
            MonitoringTask("slow", ["c", "d"], range(20), frequency=0.25),
        ]
        inputs = frequency_weights(tasks)
        oblivious = RemoPlanner(HEAVY).plan(tasks, tight_cluster)
        aware = RemoPlanner(HEAVY).plan(
            tasks,
            tight_cluster,
            pair_weights=inputs.pair_weights,
            msg_weights=inputs.msg_weights,
        )
        assert aware.collected_pair_count() >= oblivious.collected_pair_count()

    def test_slow_pairs_cost_less_traffic(self, small_cluster):
        tasks_fast = [MonitoringTask("t", ["a"], range(6), frequency=1.0)]
        tasks_slow = [MonitoringTask("t", ["a"], range(6), frequency=0.25)]
        fast_in = frequency_weights(tasks_fast)
        slow_in = frequency_weights(tasks_slow)
        fast = RemoPlanner(HEAVY).plan(
            tasks_fast, small_cluster,
            pair_weights=fast_in.pair_weights, msg_weights=fast_in.msg_weights,
        )
        slow = RemoPlanner(HEAVY).plan(
            tasks_slow, small_cluster,
            pair_weights=slow_in.pair_weights, msg_weights=slow_in.msg_weights,
        )
        assert slow.total_message_cost() < fast.total_message_cost()

    def test_plan_validates_with_weights(self, tight_cluster):
        tasks = [
            MonitoringTask("fast", ["a"], range(20), frequency=1.0),
            MonitoringTask("slow", ["b"], range(20), frequency=0.5),
        ]
        inputs = frequency_weights(tasks)
        plan = RemoPlanner(HEAVY).plan(
            tasks,
            tight_cluster,
            pair_weights=inputs.pair_weights,
            msg_weights=inputs.msg_weights,
        )
        plan.validate(
            {n.node_id: n.capacity for n in tight_cluster},
            tight_cluster.central_capacity,
        )
