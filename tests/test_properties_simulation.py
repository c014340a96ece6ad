"""Property-based tests on the simulation and planning pipeline."""

from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.node import Cluster, SimNode
from repro.core.attributes import pairs_for
from repro.core.cost import CostModel
from repro.core.forest import ForestBuilder
from repro.core.partition import Partition
from repro.core.planner import RemoPlanner
from repro.obs import names
from repro.simulation import MonitoringSimulation

settings.register_profile(
    "repro-sim",
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro-sim")

ATTRS = ["a", "b", "c"]


@st.composite
def clusters_and_pairs(draw):
    n = draw(st.integers(min_value=3, max_value=15))
    capacity = draw(st.floats(min_value=10.0, max_value=300.0))
    central = draw(st.floats(min_value=20.0, max_value=2000.0))
    attrs = draw(st.sets(st.sampled_from(ATTRS), min_size=1, max_size=3))
    nodes = [
        SimNode(i, capacity=capacity, attributes=frozenset(attrs)) for i in range(n)
    ]
    cluster = Cluster(nodes, central_capacity=central)
    pairs = pairs_for(range(n), sorted(attrs))
    return cluster, frozenset(pairs)


@given(clusters_and_pairs(), st.integers(min_value=1, max_value=6))
def test_simulation_conserves_messages(setup, periods):
    """delivered + dropped(any cause) == sent; coverage in [0, 1]."""
    cluster, pairs = setup
    cost = CostModel(3.0, 1.0)
    plan = ForestBuilder(cost).build(
        Partition.singletons({p.attribute for p in pairs}), pairs, cluster
    )
    report = MonitoringSimulation(
        plan, cluster, seed=1
    ).run(periods)
    delivered = report.metrics.counter(names.MESSAGES_DELIVERED)
    assert delivered + report.metrics.counter(names.MESSAGES_DROPPED_FAILURE) <= report.messages_sent
    assert 0.0 <= report.mean_fresh_coverage <= 1.0
    assert 0.0 <= report.mean_percentage_error <= 1.0
    assert len(report.samples) == periods


@given(clusters_and_pairs())
def test_feasible_plans_run_drop_free(setup):
    """A plan that satisfies the analytic model never drops in the sim."""
    cluster, pairs = setup
    cost = CostModel(3.0, 1.0)
    plan = ForestBuilder(cost).build(
        Partition.singletons({p.attribute for p in pairs}), pairs, cluster
    )
    report = MonitoringSimulation(
        plan, cluster, seed=2
    ).run(3)
    assert report.metrics.counter(names.MESSAGES_DROPPED_CAPACITY) == 0
    assert report.metrics.counter(names.VALUES_TRIMMED) == 0


@given(clusters_and_pairs())
def test_remo_never_collects_less_than_singleton(setup):
    """The local search starts at/above the SP baseline by construction."""
    cluster, pairs = setup
    cost = CostModel(3.0, 1.0)
    sp_plan = ForestBuilder(cost).build(
        Partition.singletons({p.attribute for p in pairs}), pairs, cluster
    )
    remo_plan = RemoPlanner(cost, candidate_budget=4, max_iterations=6).plan(
        pairs, cluster
    )
    assert remo_plan.collected_pair_count() >= sp_plan.collected_pair_count()


@given(clusters_and_pairs())
def test_plan_validate_always_passes_for_built_plans(setup):
    cluster, pairs = setup
    cost = CostModel(3.0, 1.0)
    plan = RemoPlanner(cost, candidate_budget=4, max_iterations=6).plan(pairs, cluster)
    plan.validate(
        {n.node_id: n.capacity for n in cluster}, cluster.central_capacity
    )


@given(clusters_and_pairs())
def test_simulated_freshness_matches_coverage_when_shallow(setup):
    """With negligible hop latency and no failures, freshness equals the
    plan's analytic coverage."""
    cluster, pairs = setup
    cost = CostModel(3.0, 1.0)
    plan = ForestBuilder(cost).build(
        Partition.singletons({p.attribute for p in pairs}), pairs, cluster
    )
    with mock.patch("repro.simulation.engine.HOP_LATENCY", 1e-4):
        report = MonitoringSimulation(plan, cluster, seed=3).run(3)
    assert abs(report.mean_fresh_coverage - plan.coverage()) < 1e-6
