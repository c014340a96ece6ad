"""Tests for the YieldMonitor-like application generator."""

import pytest

from repro.core.tasks import TaskManager
from repro.streams.app import build_stream_cluster
from repro.streams.yieldmonitor import make_yieldmonitor, yieldmonitor_tasks


class TestShape:
    def test_published_deployment_shape(self):
        """~200+ processes over 200 nodes, 30-50 attributes per node."""
        app = make_yieldmonitor(n_nodes=200, n_lines=50, seed=11)
        assert len(app.graph) > 200
        assert len(app.nodes()) == 200
        counts = [len(app.node_attributes(n)) for n in app.nodes()]
        assert min(counts) >= 6  # at least the OS gauges
        assert 30 <= sum(counts) / len(counts) <= 50 or max(counts) >= 10

    def test_small_shape_for_tests(self):
        app = make_yieldmonitor(n_nodes=20, n_lines=8, seed=1)
        assert len(app.nodes()) == 20
        app.graph.validate()

    def test_deterministic_by_seed(self):
        a1 = make_yieldmonitor(n_nodes=20, n_lines=8, seed=5)
        a2 = make_yieldmonitor(n_nodes=20, n_lines=8, seed=5)
        assert a1.placement == a2.placement

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            make_yieldmonitor(n_nodes=0)

    def test_rates_flow_to_sink(self):
        app = make_yieldmonitor(n_nodes=10, n_lines=4, seed=2)
        for _ in range(10):
            app.step()
        sink = app.graph.operator("yield_sink")
        assert sink.rate_in > 0


class TestTasks:
    def test_tasks_reference_real_nodes(self):
        app = make_yieldmonitor(n_nodes=20, n_lines=8, seed=3)
        tasks = yieldmonitor_tasks(app, 15, seed=4)
        assert len(tasks) == 15
        nodes = set(app.nodes())
        for task in tasks:
            assert task.nodes <= nodes

    def test_tasks_have_observable_pairs(self):
        app = make_yieldmonitor(n_nodes=20, n_lines=8, seed=3)
        cluster = build_stream_cluster(app, capacity=100.0)
        tasks = yieldmonitor_tasks(app, 15, seed=4)
        pairs = TaskManager(tasks).pairs()
        observable = sum(
            1
            for p in pairs
            if p.node in cluster and cluster.node(p.node).observes(p.attribute)
        )
        assert observable > 0
        assert observable >= len(pairs) * 0.3  # tasks are mostly sensible

    def test_task_ids_unique(self):
        app = make_yieldmonitor(n_nodes=20, n_lines=8, seed=3)
        tasks = yieldmonitor_tasks(app, 20, seed=4)
        ids = [t.task_id for t in tasks]
        assert len(set(ids)) == len(ids)

    def test_rejects_nonpositive_count(self):
        app = make_yieldmonitor(n_nodes=10, n_lines=4, seed=1)
        with pytest.raises(ValueError):
            yieldmonitor_tasks(app, 0)


class TestLiveRuntime:
    def test_runtime_scores_against_the_application(self):
        """The application's own metrics drive the live runtime: agents
        sample them and the collector scores against them."""
        from repro.core.cost import CostModel
        from repro.core.planner import RemoPlanner
        from repro.runtime import MonitoringRuntime, RuntimeConfig
        from repro.streams.app import StreamMetricRegistry

        app = make_yieldmonitor(n_nodes=12, n_lines=4, seed=61)
        cluster = build_stream_cluster(app, capacity=260.0, central_capacity=520.0)
        tasks = yieldmonitor_tasks(app, 4, seed=62)
        plan = RemoPlanner(CostModel(per_message=20.0, per_value=1.0)).plan(tasks, cluster)
        report = MonitoringRuntime(
            plan,
            cluster,
            registry=StreamMetricRegistry(app),
            config=RuntimeConfig(period_seconds=0.05, seed=5),
        ).run(4)
        assert len(report.samples) == 4
        assert report.messages_sent > 0
        assert report.final_coverage > 0.0
        assert 0.0 <= report.mean_percentage_error < 1.0
