"""Top-level entry points that chain the individual checkers.

The order matters: structural soundness is a precondition for the
cost recomputation (a cyclic tree cannot be traversed bottom-up), so
:func:`check_plan` only runs the capacity checkers on trees the
structure checkers certified.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.checks.capacity import check_budgets, check_tree_costs
from repro.checks.diagnostics import DiagnosticReport
from repro.checks.structure import check_partition, check_tree
from repro.cluster.node import Cluster
from repro.core.attributes import NodeId
from repro.core.partition import AttributeSet
from repro.core.plan import MonitoringPlan
from repro.trees.recompute import TreeAccounting


def check_plan(
    plan: MonitoringPlan,
    node_capacities: Mapping[NodeId, float],
    central_capacity: float,
) -> DiagnosticReport:
    """Statically verify a plan; returns every finding, never raises.

    Structure (``REMO1xx``) and cost (``REMO2xx``) checks, with loads
    held against ``node_capacities`` / ``central_capacity`` (pass a
    :class:`Cluster` via :func:`check_plan_for_cluster` for the common
    case).
    """
    report = DiagnosticReport()
    check_partition(plan, report)

    accountings: Dict[AttributeSet, TreeAccounting] = {}
    for attr_set, result in plan.trees.items():
        if not check_tree(attr_set, result.tree, report):
            continue
        accounting = check_tree_costs(attr_set, result.tree, report)
        if accounting is not None:
            accountings[attr_set] = accounting

    check_budgets(accountings, node_capacities, central_capacity, report)
    return report


def check_plan_for_cluster(plan: MonitoringPlan, cluster: Cluster) -> DiagnosticReport:
    """:func:`check_plan` with budgets drawn from a cluster."""
    capacities = {node_id: cluster.capacity(node_id) for node_id in cluster.node_ids}
    return check_plan(plan, capacities, cluster.central_capacity)


def assert_plan_valid(
    plan: MonitoringPlan,
    cluster: Cluster,
) -> DiagnosticReport:
    """Run :func:`check_plan_for_cluster` and raise on ERROR findings.

    Raises :class:`~repro.checks.diagnostics.PlanCheckError` (an
    ``AssertionError``) listing every error; warnings are returned in
    the report but never raise.
    """
    report = check_plan_for_cluster(plan, cluster)
    report.raise_if_errors("plan check")
    return report
