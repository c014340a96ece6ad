"""Abandoning a candidate forest that cannot beat the plan it must beat.

Every forest build whose result counts only if it improves on a
reference plan carries that plan's pair count as a floor, and gives up
(:class:`BuildAbandoned`) once its exclusions make the floor
unreachable.  The contract under test: the bound is exact -- planning
with floors and planning without them yield the same plans, the same
accepted operations and the same search counts -- a build gives up at
precisely the exclusion that crosses its budget, the memo never keeps
an abandoned tree, and an abandoned build still reports its phases.
"""

from __future__ import annotations

import itertools
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.adaptation import AdaptationStrategy, AdaptiveMonitoringService
from repro.core.allocation import AllocationPolicy
from repro.core.cost import AggregationKind, AggregationSpec, CostModel
from repro.core.forest import ForestBuilder, TreeMemo
from repro.core.partition import Partition
from repro.core.planner import RemoPlanner
from repro.core.tasks import MonitoringTask
from repro.ext.frequencies import frequency_weights
from repro.obs import names, trace
from repro.obs.metrics import default_registry
from repro.trees.adaptive import AdaptiveTreeBuilder
from repro.trees.base import BuildAbandoned, TreeBuildRequest
from repro.trees.star import StarTreeBuilder
from repro.workloads.presets import sampled_workload
from repro.workloads.updates import TaskUpdateStream

COST = CostModel(per_message=2.0, per_value=1.0)


def _without_floors(monkeypatch: pytest.MonkeyPatch) -> None:
    """Every call site passes no floor: the search as it ran before."""
    build = ForestBuilder.build

    def unbounded(self, *args, floor=None, **kwargs):
        return build(self, *args, **kwargs)

    monkeypatch.setattr(ForestBuilder, "build", unbounded)


def _search_record(planner_factory, tasks, cluster, **plan_kwargs):
    plan, stats = planner_factory().plan_with_stats(tasks, cluster, **plan_kwargs)
    record = (
        plan.fingerprint(),
        list(stats.accepted_ops),
        stats.iterations,
        stats.candidates_evaluated,
    )
    return record, stats.candidates_abandoned


def _same_search(planner_factory, tasks, cluster, **plan_kwargs) -> int:
    """Plan with floors, then without; assert equal, return abandons."""
    shipped, abandoned = _search_record(planner_factory, tasks, cluster, **plan_kwargs)
    with pytest.MonkeyPatch.context() as patch:
        _without_floors(patch)
        unbounded, none_abandoned = _search_record(
            planner_factory, tasks, cluster, **plan_kwargs
        )
    assert none_abandoned == 0
    assert shipped == unbounded
    return abandoned


# ----------------------------------------------------------------------
# Exactness: floors never change what the search returns
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    nodes=st.integers(12, 32),
    tasks=st.integers(3, 8),
    capacity=st.sampled_from([80.0, 120.0, 200.0]),
    seed=st.integers(0, 10_000),
)
def test_floors_leave_sampled_plans_unchanged(nodes, tasks, capacity, seed):
    cluster, cost, task_list = sampled_workload(
        nodes=nodes, tasks=tasks, capacity=capacity, seed=seed
    )
    _same_search(lambda: RemoPlanner(cost), task_list, cluster)


def test_the_search_shape_abandons_candidates_and_keeps_its_plan():
    cluster, cost, tasks = sampled_workload(nodes=48, tasks=12, capacity=200.0, seed=1)
    assert _same_search(lambda: RemoPlanner(cost), tasks, cluster) > 0


def test_an_abandoned_candidate_is_counted_and_its_span_marked():
    cluster, cost, tasks = sampled_workload(nodes=48, tasks=12, capacity=200.0, seed=1)
    with trace.installed() as tracer:
        _plan, stats = RemoPlanner(cost).plan_with_stats(tasks, cluster)
    evaluations = (names.SPAN_PLANNER_SEED_EVAL, names.SPAN_PLANNER_EVALUATE_CANDIDATE)
    marked = [
        s for s in tracer.spans() if s.name in evaluations and s.attrs.get("abandoned") is True
    ]
    assert any(s.name == names.SPAN_PLANNER_EVALUATE_CANDIDATE for s in marked)
    assert 0 < len(marked) == stats.candidates_abandoned <= stats.candidates_evaluated


def test_floors_leave_weighted_plans_unchanged():
    cluster, cost, tasks = sampled_workload(nodes=48, tasks=12, capacity=120.0, seed=1)
    slowed = [
        MonitoringTask(t.task_id, t.attributes, t.nodes, frequency)
        for t, frequency in zip(tasks, itertools.cycle((1.0, 0.5, 0.25)))
    ]
    weights = frequency_weights(slowed)
    _same_search(
        lambda: RemoPlanner(cost),
        slowed,
        cluster,
        pair_weights=weights.pair_weights,
        msg_weights=weights.msg_weights,
    )


def test_floors_leave_aggregated_plans_unchanged():
    cluster, cost, tasks = sampled_workload(nodes=48, tasks=12, capacity=120.0, seed=1)
    specs = (
        AggregationSpec(kind=AggregationKind.SUM),
        AggregationSpec(kind=AggregationKind.TOP_K, k=2),
        None,
    )
    ranked = sorted({a for t in tasks for a in t.attributes})
    funnels = {a: spec for a, spec in zip(ranked, itertools.cycle(specs)) if spec}
    _same_search(lambda: RemoPlanner(cost, aggregation=funnels), tasks, cluster)


def test_floors_leave_plans_with_forbidden_pairs_unchanged():
    cluster, cost, tasks = sampled_workload(nodes=48, tasks=12, capacity=200.0, seed=2)
    ranked = sorted({a for t in tasks for a in t.attributes})
    forbidden = {frozenset(pair) for pair in zip(ranked[::2], ranked[1::2])}
    _same_search(lambda: RemoPlanner(cost, forbidden_pairs=forbidden), tasks, cluster)


def test_floors_leave_predivided_plans_unchanged():
    cluster, cost, tasks = sampled_workload(nodes=32, tasks=8, capacity=120.0, seed=4)
    _same_search(
        lambda: RemoPlanner(cost, allocation=AllocationPolicy.UNIFORM), tasks, cluster
    )


def _adaptation_records(strategy):
    cluster, cost, tasks = sampled_workload(nodes=48, tasks=12, capacity=120.0, seed=1)
    service = AdaptiveMonitoringService(cluster, cost, strategy=strategy)
    service.initialize(tasks)
    stream = TaskUpdateStream(cluster, tasks, node_fraction=0.1, attr_fraction=0.5, seed=11)
    records = []
    for batch in range(4):
        report = service.apply_changes(stream.next_batch(), now=10.0 * (batch + 1))
        records.append(
            (
                report.applied_ops,
                report.throttled_ops,
                report.adaptation_messages,
                report.collected_pairs,
                repr(report.monitoring_volume),
                service.plan.fingerprint(),
            )
        )
    return records


@pytest.mark.parametrize("strategy", list(AdaptationStrategy))
def test_floors_leave_adaptation_records_unchanged(strategy, monkeypatch):
    shipped = _adaptation_records(strategy)
    _without_floors(monkeypatch)
    assert _adaptation_records(strategy) == shipped


# ----------------------------------------------------------------------
# The tree builder's budget
# ----------------------------------------------------------------------
class _SpyBuilder(StarTreeBuilder):
    """Logs each insertion attempt and whether the node was kept."""

    def __init__(self, cost_model: CostModel) -> None:
        super().__init__(cost_model)
        self.log: list = []

    def _insert(self, tree, request, node):
        kept = super()._insert(tree, request, node)
        self.log.append((node, kept))
        return kept


def _mixed_request() -> TreeBuildRequest:
    """Sixty candidates carrying one or two pairs; most are excluded."""
    return TreeBuildRequest(
        attributes=frozenset({"a", "b"}),
        demands={i: ({"a": 1.0, "b": 1.0} if i % 3 else {"a": 1.0}) for i in range(60)},
        capacities={i: 16.0 for i in range(60)},
        central_capacity=500.0,
    )


def test_a_build_gives_up_at_the_exclusion_that_crosses_its_budget():
    request = _mixed_request()
    full = _SpyBuilder(COST)
    result = full.build(request)
    lost_total = sum(len(request.demands[n]) for n in result.excluded)
    assert len(result.excluded) >= 3

    for may_lose in range(lost_total):
        spy = _SpyBuilder(COST)
        with pytest.raises(BuildAbandoned):
            spy.build(request, may_lose=may_lose)
        # The same insertions as the full build, up to the one exclusion
        # that carried the lost pairs past the budget, and not one more.
        assert spy.log == full.log[: len(spy.log)]
        lost = list(
            itertools.accumulate(len(request.demands[n]) for n, kept in spy.log if not kept)
        )
        assert spy.log[-1][1] is False
        assert lost[-1] > may_lose
        assert len(lost) == 1 or lost[-2] <= may_lose

    spy = _SpyBuilder(COST)
    exact = spy.build(request, may_lose=lost_total)
    assert spy.log == full.log
    assert exact.excluded == result.excluded
    assert exact.tree.edges() == result.tree.edges()


def test_an_abandoned_build_reports_each_phase_once_and_they_add_up():
    def phases():
        registry = default_registry()
        return {
            phase: registry.histogram(names.PLANNER_PHASE_SECONDS, phase=phase)
            for phase in ("tree_construction", "adjustment")
        }

    before = {phase: (h.count, h.sum) for phase, h in phases().items()}
    builder = AdaptiveTreeBuilder(COST)
    request = TreeBuildRequest(
        attributes=frozenset({"a"}),
        demands={i: {"a": 1.0} for i in range(60)},
        capacities={i: 16.0 for i in range(60)},
        central_capacity=500.0,
    )
    started = time.perf_counter()
    with pytest.raises(BuildAbandoned):
        builder.build(request, may_lose=0)
    elapsed = time.perf_counter() - started
    spent = {
        phase: (h.count - before[phase][0], h.sum - before[phase][1])
        for phase, h in phases().items()
    }
    assert spent["tree_construction"][0] == 1
    assert spent["adjustment"][0] == 1
    assert spent["adjustment"][1] == pytest.approx(builder.adjuster.seconds)
    assert 0.0 < spent["adjustment"][1] < elapsed
    assert 0.0 < spent["tree_construction"][1]
    assert spent["tree_construction"][1] + spent["adjustment"][1] <= elapsed


# ----------------------------------------------------------------------
# The forest's slack and the memo
# ----------------------------------------------------------------------
def test_the_memo_never_holds_an_abandoned_tree():
    cluster, cost, tasks = sampled_workload(nodes=32, tasks=8, capacity=120.0, seed=4)
    pairs = RemoPlanner(cost).plan(tasks, cluster).pairs
    partition = Partition.singletons({p.attribute for p in pairs})
    forest = ForestBuilder(cost)
    cold = forest.build(partition, pairs, cluster)
    assert cold.collected_pair_count() < len(pairs)

    completed = []
    build = forest.tree_builder.build

    def counted(request, may_lose=None):
        result = build(request, may_lose=may_lose)
        completed.append(result)
        return result

    forest.tree_builder.build = counted
    memo = TreeMemo(128)
    with pytest.raises(BuildAbandoned):
        forest.build(
            partition, pairs, cluster, memo=memo, floor=cold.collected_pair_count() + 1
        )
    # Some trees finished before the forest gave up, and only they are kept.
    assert 0 < len(completed) < len(partition.sets)
    assert len(memo) == len(completed)
    assert all(any(entry is result for result in completed) for entry in memo._entries.values())

    # Re-planned from the same memo, the finished trees hit and the one
    # that was abandoned is built afresh: the plan is the cold one.
    finished, hits = len(completed), memo.hits
    again = forest.build(partition, pairs, cluster, memo=memo)
    assert memo.hits - hits == finished
    assert again.fingerprint() == cold.fingerprint()


def test_a_floor_at_the_plans_own_count_finishes_it():
    cluster, cost, tasks = sampled_workload(nodes=32, tasks=8, capacity=120.0, seed=4)
    pairs = RemoPlanner(cost).plan(tasks, cluster).pairs
    partition = Partition.singletons({p.attribute for p in pairs})
    forest = ForestBuilder(cost)
    cold = forest.build(partition, pairs, cluster)
    floored = forest.build(partition, pairs, cluster, floor=cold.collected_pair_count())
    assert floored.fingerprint() == cold.fingerprint()
    with pytest.raises(BuildAbandoned):
        forest.build(partition, pairs, cluster, floor=cold.collected_pair_count() + 1)
