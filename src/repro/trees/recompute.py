"""From-scratch recomputation of a monitoring tree's resource usage.

The tree model maintains send/receive costs *incrementally* so the
builders stay fast; this module recomputes the same quantities bottom
up from nothing but the primitive structure (parent/children tables,
local demands, local message weights), the aggregation funnels, and
the :class:`~repro.core.cost.CostModel`.  It is the one recomputation
in the code base: :meth:`MonitoringTree.validate
<repro.trees.model.MonitoringTree.validate>` holds every cache
against it, and the capacity checkers (:mod:`repro.checks.capacity`)
report any divergence as bookkeeping drift (``REMO203``) and sum the
recomputed loads against the budgets, so a stale cache can never mask
a genuine overload (``REMO201``).

The traversal guards itself against a cyclic or disconnected tree:
:func:`recompute_tree` raises ``ValueError`` rather than looping
forever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

from repro.core.attributes import AttributeId, NodeId

if TYPE_CHECKING:
    from repro.trees.model import MonitoringTree

#: Tolerance, relative and absolute, for every cached-vs-recomputed
#: comparison.  Both sides derive from the same primitive floats, so
#: only accumulation-order noise is acceptable.
DRIFT_TOLERANCE = 1e-9
#: Slack for capacity feasibility: a load within this of its slice or
#: budget fits.
BUDGET_TOLERANCE = 1e-6


def matches(cached: float, recomputed: float) -> bool:
    """Whether a cached quantity agrees with its recomputation."""
    return math.isclose(cached, recomputed, rel_tol=DRIFT_TOLERANCE, abs_tol=DRIFT_TOLERANCE)


@dataclass
class NodeAccounting:
    """Independently recomputed per-node quantities for one tree."""

    incoming: Dict[AttributeId, float]
    outgoing_values: Dict[AttributeId, float]
    msg_weight: float
    send: float
    recv: float

    @property
    def used(self) -> float:
        """Capacity the node spends on this tree (send + receive side)."""
        return self.send + self.recv

    @property
    def total_values(self) -> float:
        return sum(self.outgoing_values.values())


@dataclass
class TreeAccounting:
    """Recomputed usage for a whole tree.

    ``central_used`` is the cost charged to the collector: the root's
    send cost (the root is the unique member whose message no other
    member receives).  ``nodes`` runs bottom up: every child precedes
    its parent.
    """

    nodes: Dict[NodeId, NodeAccounting]
    pair_count: int
    central_used: float = 0.0


def recompute_tree(tree: MonitoringTree) -> TreeAccounting:
    """Recompute every node's content, weight, and cost from scratch.

    Works purely from ``local_demand``/``local_message_weight``, the
    children tables, the tree's funnel, and its cost model -- none of
    the cached ``_send``/``_recv``/``_out`` state is consulted.
    """
    members = list(tree.nodes)
    if not members:
        return TreeAccounting(nodes={}, pair_count=0, central_used=0.0)
    root = tree.root
    if root is None or root not in tree:
        raise ValueError("cannot recompute a tree without a valid root")

    # Preorder via children tables, guarded against cycles.
    order: List[NodeId] = []
    seen = {root}
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        for child in tree.children(node):
            if child in seen:
                raise ValueError(f"cycle at node {child}")
            seen.add(child)
            stack.append(child)
    if len(order) != len(members):
        raise ValueError("members unreachable from the root")

    cost = tree.cost
    accounting: Dict[NodeId, NodeAccounting] = {}
    pair_count = 0
    for node in reversed(order):
        local = tree.local_demand(node)
        pair_count += len(local)
        incoming: Dict[AttributeId, float] = {
            attr: weight for attr, weight in local.items() if weight > 0.0
        }
        msg_weight = tree.local_message_weight(node)
        recv = 0.0
        for child in tree.children(node):
            child_acc = accounting[child]
            for attr, weight in child_acc.outgoing_values.items():
                incoming[attr] = incoming.get(attr, 0.0) + weight
            recv += child_acc.send
            msg_weight = max(msg_weight, child_acc.msg_weight)
        outgoing: Dict[AttributeId, float] = {}
        for attr, weight in incoming.items():
            funneled = tree.funnel_value(attr, weight)
            if funneled > 0.0:
                outgoing[attr] = funneled
        send = (
            cost.weighted_message_cost(msg_weight, sum(outgoing.values()))
            if msg_weight > 0.0
            else 0.0
        )
        accounting[node] = NodeAccounting(
            incoming=incoming,
            outgoing_values=outgoing,
            msg_weight=msg_weight,
            send=send,
            recv=recv,
        )

    return TreeAccounting(
        nodes=accounting,
        pair_count=pair_count,
        central_used=accounting[root].send,
    )
