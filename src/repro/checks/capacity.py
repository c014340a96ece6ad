"""Capacity and cost-model checkers (``REMO2xx``).

These checkers trust nothing the trees cache.  Every quantity is
recomputed from the primitive structure via
:func:`repro.trees.recompute.recompute_tree`, then

- the recomputation is diffed against the cached bookkeeping
  (``REMO203`` for costs, ``REMO204`` for pair counts), and
- the **recomputed** loads are summed across trees and held against
  the per-node budgets ``b_i`` and the central collector's budget
  (``REMO201``/``REMO202``) -- so a stale cache can never hide a
  genuine overload.

Both comparisons use the tolerances :meth:`MonitoringTree.validate
<repro.trees.model.MonitoringTree.validate>` uses: ``BUDGET_TOLERANCE``
for budgets, :func:`~repro.trees.recompute.matches` for cache diffs.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

from repro.checks.diagnostics import DiagnosticReport
from repro.checks.structure import set_label
from repro.core.attributes import NodeId
from repro.core.partition import AttributeSet
from repro.trees.model import MonitoringTree
from repro.trees.recompute import BUDGET_TOLERANCE, TreeAccounting, matches, recompute_tree


def check_tree_costs(
    attr_set: AttributeSet,
    tree: MonitoringTree,
    report: DiagnosticReport,
) -> Optional[TreeAccounting]:
    """Recompute one tree and diff it against the cached bookkeeping.

    Returns the recomputed accounting (for the budget checks) or
    ``None`` when the structure cannot be traversed -- the structural
    checkers report that case separately.
    """
    label = set_label(attr_set)

    # Primitive-input sanity first: a recomputation of garbage demands
    # would just reproduce the garbage.
    for node in tree.nodes:
        for attr, weight in tree.local_demand(node).items():
            if weight <= 0.0 or not math.isfinite(weight):
                report.add(
                    "REMO205",
                    f"{label} / node {node}",
                    f"local demand for {attr!r} has invalid weight {weight!r}",
                )
        msgw = tree.local_message_weight(node)
        if msgw < 0.0 or not math.isfinite(msgw):
            report.add(
                "REMO205",
                f"{label} / node {node}",
                f"invalid local message weight {msgw!r}",
            )

    try:
        accounting = recompute_tree(tree)
    except ValueError:
        # Structurally unsound; REMO110/111/112 cover it.
        return None

    if accounting.pair_count != tree.pair_count():
        report.add(
            "REMO204",
            label,
            f"cached pair count {tree.pair_count()} != recomputed "
            f"{accounting.pair_count}",
        )

    for node, acc in accounting.nodes.items():
        cached_send = tree.send_cost(node)
        cached_recv = tree.recv_cost(node)
        cached_values = tree.outgoing_values(node)
        cached_msgw = tree.message_weight(node)
        drift = []
        if not matches(cached_send, acc.send):
            drift.append(f"send {cached_send!r} != {acc.send!r}")
        if not matches(cached_recv, acc.recv):
            drift.append(f"recv {cached_recv!r} != {acc.recv!r}")
        if not matches(cached_values, acc.total_values):
            drift.append(f"outgoing values {cached_values!r} != {acc.total_values!r}")
        if not matches(cached_msgw, acc.msg_weight):
            drift.append(f"message weight {cached_msgw!r} != {acc.msg_weight!r}")
        if drift:
            report.add(
                "REMO203",
                f"{label} / node {node}",
                "cached vs recomputed: " + "; ".join(drift),
            )

    if not matches(tree.central_used(), accounting.central_used):
        report.add(
            "REMO203",
            label,
            f"cached central usage {tree.central_used()!r} != recomputed "
            f"{accounting.central_used!r}",
        )
    return accounting


def check_budgets(
    accountings: Mapping[AttributeSet, TreeAccounting],
    node_capacities: Mapping[NodeId, float],
    central_capacity: float,
    report: DiagnosticReport,
) -> None:
    """Hold recomputed loads against node and collector budgets."""
    usage: Dict[NodeId, float] = {}
    central = 0.0
    for accounting in accountings.values():
        for node, acc in accounting.nodes.items():
            usage[node] = usage.get(node, 0.0) + acc.used
        central += accounting.central_used

    for node in sorted(usage):
        used = usage[node]
        budget = node_capacities.get(node)
        if budget is None:
            report.add(
                "REMO201",
                f"node {node}",
                f"plan uses a node with no capacity budget (load {used:.6f})",
            )
        elif used > budget + BUDGET_TOLERANCE:
            report.add(
                "REMO201",
                f"node {node}",
                f"recomputed load {used:.6f} exceeds budget {budget:.6f}",
            )

    if central > central_capacity + BUDGET_TOLERANCE:
        report.add(
            "REMO202",
            "collector",
            f"recomputed central load {central:.6f} exceeds capacity "
            f"{central_capacity:.6f}",
        )
