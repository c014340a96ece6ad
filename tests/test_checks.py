"""The static plan verifier: clean plans, candidate forests, corruption fixtures.

Each corruption class must be caught with its own distinct primary
diagnostic code -- that distinctness is what makes the codes usable as
regression anchors -- and a clean planner output must be entirely
diagnostic-free.
"""

from __future__ import annotations

import pytest

from repro.checks import (
    CODES,
    FAULT_KINDS,
    DiagnosticReport,
    PlanCheckError,
    Severity,
    assert_plan_valid,
    check_plan_for_cluster,
    describe_codes,
    inject_fault,
    recompute_tree,
)
from repro.core.adaptation import AdaptationStrategy, AdaptiveMonitoringService
from repro.core.forest import ForestBuilder
from repro.core.planner import RemoPlanner
from repro.trees.model import TreeInvariantError
from repro.workloads.presets import sampled_workload
from repro.workloads.updates import TaskUpdateStream


@pytest.fixture
def planned(cost, medium_cluster, task_factory):
    tasks = [
        task_factory("t0", ("attr00", "attr01", "attr02"), range(0, 40)),
        task_factory("t1", ("attr02", "attr03", "attr04", "attr05"), range(10, 30)),
        task_factory("t2", ("attr06", "attr07"), range(5, 25)),
    ]
    plan = RemoPlanner(cost).plan(tasks, medium_cluster)
    return plan, medium_cluster


# ----------------------------------------------------------------------
# Clean plans
# ----------------------------------------------------------------------
def test_planner_output_is_diagnostic_free(planned):
    plan, cluster = planned
    report = check_plan_for_cluster(plan, cluster)
    assert not report, report.format(with_hints=True)


def test_assert_plan_valid_passes_and_returns_report(planned):
    plan, cluster = planned
    report = assert_plan_valid(plan, cluster)
    assert isinstance(report, DiagnosticReport)
    assert not report.has_errors


def test_every_candidate_forest_passes_the_plan_check(monkeypatch):
    """Every forest the planner and the four adaptation strategies build
    -- seeds, ranked candidates, incremental rebuilds, D-A patches --
    passes the full plan check against the cluster's budgets, and
    checking them changes no final plan."""
    cluster, cost, tasks = sampled_workload(nodes=24, tasks=6, capacity=200.0, seed=3)

    def final_plans():
        plans = [RemoPlanner(cost).plan(tasks, cluster)]
        for strategy in AdaptationStrategy:
            service = AdaptiveMonitoringService(cluster, cost, strategy=strategy)
            service.initialize(tasks)
            stream = TaskUpdateStream(cluster, tasks, node_fraction=0.25, seed=5)
            for batch in range(3):
                service.apply_changes(stream.next_batch(), now=float(batch + 1))
            plans.append(service.plan)
        return [plan.fingerprint() for plan in plans]

    unwrapped = final_plans()
    build = ForestBuilder.build
    checked = 0

    def checked_build(self, *args, **kwargs):
        nonlocal checked
        plan = build(self, *args, **kwargs)
        assert_plan_valid(plan, cluster)
        checked += 1
        return plan

    monkeypatch.setattr(ForestBuilder, "build", checked_build)
    assert final_plans() == unwrapped
    assert checked > 0


def test_recompute_matches_cached_bookkeeping(planned):
    plan, _cluster = planned
    for result in plan.trees.values():
        tree = result.tree
        accounting = recompute_tree(tree)
        assert accounting.pair_count == tree.pair_count()
        for node, acc in accounting.nodes.items():
            assert acc.send == pytest.approx(tree.send_cost(node), abs=1e-9)
            assert acc.recv == pytest.approx(tree.recv_cost(node), abs=1e-9)


# ----------------------------------------------------------------------
# Corruption fixtures: each class -> its own code
# ----------------------------------------------------------------------
def test_dropped_tree_is_caught(planned):
    plan, cluster = planned
    inject_fault(plan, "drop-tree")
    report = check_plan_for_cluster(plan, cluster)
    assert "REMO102" in report.codes()
    assert report.has_errors


def test_cycle_is_caught(planned):
    plan, cluster = planned
    inject_fault(plan, "cycle")
    report = check_plan_for_cluster(plan, cluster)
    assert "REMO111" in report.codes()
    # The cycle is the *only* failure class present: the injector keeps
    # the parent/children mirror consistent and never touches costs.
    assert set(report.codes()) == {"REMO111"}


def test_overload_is_caught_via_recomputation(planned):
    plan, cluster = planned
    inject_fault(plan, "overload")
    report = check_plan_for_cluster(plan, cluster)
    assert "REMO201" in report.codes()
    # The injector keeps bookkeeping consistent, so no drift reported.
    assert "REMO203" not in report.codes()


def test_stale_cost_is_caught_only_by_the_drift_check(planned):
    plan, cluster = planned
    inject_fault(plan, "stale-cost")
    report = check_plan_for_cluster(plan, cluster)
    assert set(report.codes()) == {"REMO203"}


def test_stale_total_is_caught_only_by_the_drift_check(planned):
    """The total column is all a funnel-free tree remembers of what a
    node forwards; the recompute comparison is what contradicts it."""
    plan, cluster = planned
    inject_fault(plan, "stale-total")
    report = check_plan_for_cluster(plan, cluster)
    assert set(report.codes()) == {"REMO203"}
    (drift,) = report.diagnostics
    assert "outgoing values" in drift.message and "send" not in drift.message
    with pytest.raises(TreeInvariantError, match="outgoing total drift"):
        plan.validate({n.node_id: n.capacity for n in cluster}, cluster.central_capacity)


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_plan_validate_rejects_every_fault_kind(planned, kind):
    plan, cluster = planned
    inject_fault(plan, kind)
    with pytest.raises(AssertionError):
        plan.validate({n.node_id: n.capacity for n in cluster}, cluster.central_capacity)


def test_corruption_classes_have_distinct_primary_codes(
    cost, medium_cluster, task_factory
):
    tasks = [
        task_factory("t0", ("attr00", "attr01", "attr02"), range(0, 40)),
        task_factory("t1", ("attr02", "attr03", "attr04", "attr05"), range(10, 30)),
        task_factory("t2", ("attr06", "attr07"), range(5, 25)),
    ]
    primaries = {}
    for kind in ("drop-tree", "cycle", "overload", "stale-cost"):
        plan = RemoPlanner(cost).plan(tasks, medium_cluster)
        inject_fault(plan, kind)
        report = check_plan_for_cluster(plan, medium_cluster)
        assert report.has_errors, f"{kind} went undetected"
        primaries[kind] = report.codes()[0]
        assert primaries[kind] in CODES
    assert len(set(primaries.values())) == 4, primaries


def test_fault_injection_raises_on_unknown_kind(planned):
    plan, _cluster = planned
    with pytest.raises(ValueError, match="unknown fault kind"):
        inject_fault(plan, "bit-rot")


def test_assert_plan_valid_raises_with_codes_in_message(planned):
    plan, cluster = planned
    inject_fault(plan, "stale-cost")
    with pytest.raises(PlanCheckError, match="REMO203"):
        assert_plan_valid(plan, cluster)


# ----------------------------------------------------------------------
# Diagnostics framework
# ----------------------------------------------------------------------
def test_code_registry_is_complete_and_partitioned_by_family():
    for info in describe_codes():
        assert info.code.startswith("REMO")
        family = info.code[4]
        assert family in {"1", "2"}
        assert info.hint
        assert isinstance(info.severity, Severity)


def test_report_formatting_and_filtering():
    report = DiagnosticReport()
    report.add("REMO105", "partition", "spare attribute")
    report.add("REMO201", "node 3", "over budget")
    assert len(report) == 2
    assert report.has_errors
    assert [d.code for d in report.warnings] == ["REMO105"]
    assert "WARNING REMO105 [partition]: spare attribute" in report.format()
    assert [d.location for d in report.diagnostics if d.code == "REMO201"] == ["node 3"]
    assert "hint:" in report.format(with_hints=True)
