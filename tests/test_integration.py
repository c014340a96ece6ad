"""End-to-end integration tests spanning planner, simulator, streams,
adaptation and extensions -- the paper's full loop in miniature."""

import pytest

from repro.core.adaptation import AdaptationStrategy, AdaptiveMonitoringService
from repro.core.cost import CostModel
from repro.core.planner import RemoPlanner
from repro.core.schemes import OneSetPlanner, SingletonSetPlanner
from repro.ext.reliability import (
    ReplicatedRegistry,
    alias_cluster,
    rewrite_ssdp,
)
from repro.cluster.metrics import MetricRegistry
from repro.obs import names
from repro.simulation import (
    FailureInjector,
    LinkOutage,
    MonitoringSimulation,
)
from repro.streams import (
    StreamMetricRegistry,
    build_stream_cluster,
    make_yieldmonitor,
    yieldmonitor_tasks,
)
from repro.workloads.tasks import TaskSampler
from repro.workloads.updates import TaskUpdateStream

COST = CostModel(per_message=8.0, per_value=1.0)


@pytest.fixture(scope="module")
def ym_setup():
    app = make_yieldmonitor(n_nodes=40, n_lines=16, seed=21)
    cluster = build_stream_cluster(app, capacity=250.0)
    tasks = yieldmonitor_tasks(app, 25, seed=22)
    return app, cluster, tasks


class TestPlanSimulateLoop:
    def test_remo_error_not_worse_than_baselines(self, ym_setup):
        """The headline claim, in miniature: REMO's percentage error is
        at or below both baselines' on a stream workload."""
        app, cluster, tasks = ym_setup
        errors = {}
        for name, planner in [
            ("sp", SingletonSetPlanner(COST)),
            ("op", OneSetPlanner(COST)),
            ("remo", RemoPlanner(COST)),
        ]:
            plan = planner.plan(tasks, cluster)
            report = MonitoringSimulation(
                plan,
                cluster,
                registry=StreamMetricRegistry(app),
                seed=5,
            ).run(15)
            errors[name] = report.mean_percentage_error
        assert errors["remo"] <= errors["sp"] + 1e-9
        assert errors["remo"] <= errors["op"] + 1e-9

    def test_coverage_matches_simulated_freshness(self, ym_setup, monkeypatch):
        """Analytic coverage and simulated freshness must agree for a
        drop-free run with shallow trees."""
        monkeypatch.setattr("repro.simulation.engine.HOP_LATENCY", 0.001)
        app, cluster, tasks = ym_setup
        plan = RemoPlanner(COST).plan(tasks, cluster)
        report = MonitoringSimulation(
            plan, cluster, registry=StreamMetricRegistry(app), seed=5
        ).run(10)
        assert report.mean_fresh_coverage == pytest.approx(plan.coverage(), abs=0.02)


class TestAdaptationLoop:
    def test_service_survives_update_storm(self, medium_cluster):
        tasks = TaskSampler(medium_cluster, seed=31).sample_many(
            15, (1, 4), (5, 20), prefix="small"
        )
        stream = TaskUpdateStream(medium_cluster, tasks, seed=32)
        svc = AdaptiveMonitoringService(
            medium_cluster, COST, strategy=AdaptationStrategy.ADAPTIVE
        )
        svc.initialize(tasks, now=0.0)
        caps = {n.node_id: n.capacity for n in medium_cluster}
        for step in range(6):
            report = svc.apply_changes(stream.next_batch(), now=float(step + 1))
            assert report.requested_pairs > 0
            svc.plan.validate(caps, medium_cluster.central_capacity)

    def test_adaptive_cheaper_than_rebuild_over_time(self, medium_cluster):
        tasks = TaskSampler(medium_cluster, seed=31).sample_many(
            15, (1, 4), (5, 20), prefix="small"
        )
        totals = {}
        for strategy in (AdaptationStrategy.REBUILD, AdaptationStrategy.ADAPTIVE):
            stream = TaskUpdateStream(medium_cluster, tasks, seed=32)
            svc = AdaptiveMonitoringService(medium_cluster, COST, strategy=strategy)
            svc.initialize(tasks, now=0.0)
            cost = 0
            for step in range(5):
                report = svc.apply_changes(stream.next_batch(), now=float(step + 1))
                cost += report.adaptation_messages
            totals[strategy] = cost
        assert totals[AdaptationStrategy.ADAPTIVE] <= totals[AdaptationStrategy.REBUILD]


class TestReplicationUnderFailures:
    def test_ssdp_survives_single_path_outage(self, small_cluster):
        from repro.core.tasks import MonitoringTask

        tasks = [MonitoringTask("critical", ["a"], range(6))]
        rewrite = rewrite_ssdp(tasks, factor=2)
        cluster = alias_cluster(small_cluster, rewrite)
        planner = RemoPlanner(COST, forbidden_pairs=rewrite.forbidden_pairs)
        plan = planner.plan(rewrite.tasks, cluster)

        # Sever every edge of the base tree; replica tree still delivers.
        base_set = next(s for s in plan.partition.sets if "a" in s)
        base_tree = plan.trees[base_set].tree
        outages = [
            LinkOutage(node, base_set, 0.0, 1e9)
            for node in base_tree.nodes
        ]
        base_registry = MetricRegistry(
            [p for p in plan.pairs if p.attribute == "a"], seed=1
        )
        registry = ReplicatedRegistry(base_registry, rewrite.alias_to_base)
        report = MonitoringSimulation(
            plan,
            cluster,
            registry=registry,
            seed=2,
            failures=FailureInjector(link_outages=outages),
        ).run(10)
        assert report.metrics.counter(names.MESSAGES_DROPPED_FAILURE) > 0
        # The replica pairs (aliases) are still fresh; only base pairs
        # stalled, so freshness stays at ~half rather than zero.
        assert report.mean_fresh_coverage >= 0.45
