"""Monitoring plans: an evaluated forest of collection trees.

A :class:`MonitoringPlan` is the planner's output and the unit the
local search compares: the partition, one built tree per partition
set, and the de-duplicated pair set the forest was asked to collect.
It exposes the two quantities every algorithm in the paper optimizes
or measures -- the number of node-attribute pairs actually collected
(Problem Statement 1's objective) and the monitoring message volume
per unit time (the adaptation machinery's ``C_cur``).
"""

from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, Iterable, Mapping, Set, Tuple

from repro.core.attributes import NodeAttributePair, NodeId
from repro.core.cost import CostModel
from repro.core.partition import AttributeSet, Partition
from repro.trees.base import TreeBuildResult


class MonitoringPlan:
    """An immutable-by-convention snapshot of a planned forest."""

    def __init__(
        self,
        partition: Partition,
        trees: Mapping[AttributeSet, TreeBuildResult],
        pairs: Iterable[NodeAttributePair],
        cost_model: CostModel,
    ) -> None:
        if set(trees) != set(partition.sets):
            raise ValueError("plan must contain exactly one tree per partition set")
        self.partition = partition
        self.trees: Dict[AttributeSet, TreeBuildResult] = dict(trees)
        self.pairs: FrozenSet[NodeAttributePair] = frozenset(pairs)
        self.cost = cost_model

    # ------------------------------------------------------------------
    # Objective metrics
    # ------------------------------------------------------------------
    def collected_pair_count(self) -> int:
        """Node-attribute pairs the forest delivers to the collector."""
        return sum(result.tree.pair_count() for result in self.trees.values())

    def requested_pair_count(self) -> int:
        return len(self.pairs)

    def coverage(self) -> float:
        """Fraction of requested pairs collected (the paper's headline
        "percentage of collected values")."""
        total = self.requested_pair_count()
        if total == 0:
            return 1.0
        return self.collected_pair_count() / total

    def total_message_cost(self) -> float:
        """Send-side monitoring traffic per unit time across the forest.

        Includes each tree root's message to the central collector;
        this is the ``C_cur`` volume in the cost-benefit throttling
        formula (Section 4.2).
        """
        return sum(result.tree.total_message_cost() for result in self.trees.values())

    def uncollected_by_set(self) -> Dict[AttributeSet, int]:
        """Per-tree count of requested pairs the tree failed to include."""
        requested: Dict[AttributeSet, int] = {s: 0 for s in self.partition.sets}
        attr_to_set = {a: s for s in self.partition.sets for a in s}
        for pair in self.pairs:
            target = attr_to_set.get(pair.attribute)
            if target is not None:
                requested[target] += 1
        return {
            s: requested[s] - self.trees[s].tree.pair_count() for s in self.partition.sets
        }

    def collected_pairs(self) -> Set[NodeAttributePair]:
        """The concrete pairs the forest delivers (for the simulator)."""
        result: Set[NodeAttributePair] = set()
        for attr_set, build in self.trees.items():
            tree = build.tree
            for node in tree.nodes:
                for attr in tree.local_demand(node):
                    result.add(NodeAttributePair(node, attr))
        return result

    # ------------------------------------------------------------------
    # Resource accounting
    # ------------------------------------------------------------------
    def node_usage(self) -> Dict[NodeId, float]:
        """Total capacity consumed per node across all trees."""
        usage: Dict[NodeId, float] = {}
        for result in self.trees.values():
            tree = result.tree
            for node in tree.nodes:
                usage[node] = usage.get(node, 0.0) + tree.used(node)
        return usage

    def central_usage(self) -> float:
        """Capacity consumed at the central collector (one message per tree)."""
        return sum(result.tree.central_used() for result in self.trees.values())

    def tree_count(self) -> int:
        return len(self.trees)

    def max_tree_depth(self) -> int:
        """Deepest tree in the forest (drives worst-case staleness)."""
        heights = [result.tree.height() for result in self.trees.values()]
        return max(heights) if heights else -1

    # ------------------------------------------------------------------
    # Structure (for adaptation diffs and the simulator)
    # ------------------------------------------------------------------
    def edge_multiset(self) -> Dict[Tuple[NodeId, NodeId], int]:
        """Structural ``(node, parent)`` connections with multiplicity.

        Attribute-set labels are deliberately excluded: a tree whose set
        shrinks (an attribute retired system-wide) keeps its structure,
        and no connect/disconnect control message is sent for it.
        """
        edges: Dict[Tuple[NodeId, NodeId], int] = {}
        for result in self.trees.values():
            tree = result.tree
            for node in tree.nodes:
                parent = tree.parent(node)
                key = (node, parent if parent is not None else -1)
                edges[key] = edges.get(key, 0) + 1
        return edges

    @staticmethod
    def edge_multiset_diff(
        old: Dict[Tuple[NodeId, NodeId], int],
        new: Dict[Tuple[NodeId, NodeId], int],
    ) -> int:
        """Connect/disconnect messages between two edge multisets."""
        keys = set(old) | set(new)
        return sum(abs(old.get(k, 0) - new.get(k, 0)) for k in keys)

    def adaptation_cost_from(self, previous: "MonitoringPlan") -> int:
        """Number of edge changes relative to ``previous`` (``M_adapt``)."""
        return self.edge_multiset_diff(previous.edge_multiset(), self.edge_multiset())

    def fingerprint(self) -> str:
        """Canonical content digest for bit-identity comparisons.

        Two plans fingerprint equal iff they have the same partition,
        the same tree structures (edges in canonical order), the same
        per-node local demands, and bitwise-equal send costs (floats
        rendered via ``repr``, which round-trips exactly).  Used by the
        seed-identity tests to assert that default planner settings
        reproduce PR-4 plans byte for byte.
        """
        digest = hashlib.sha256()
        keyed = [(",".join(str(attr) for attr in sorted(s)), s) for s in self.trees]
        for key, attr_set in sorted(keyed, key=lambda kv: kv[0]):
            digest.update(b"set:")
            digest.update(key.encode("utf-8"))
            tree = self.trees[attr_set].tree
            for node in sorted(tree.nodes):
                parent = tree.parent(node)
                demand = ",".join(
                    f"{attr}={weight!r}"
                    for attr, weight in sorted(tree.local_demand(node).items())
                )
                record = (
                    f"|{node}>{-1 if parent is None else parent}"
                    f";{tree.send_cost(node)!r};{demand}"
                )
                digest.update(record.encode("utf-8"))
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, node_capacities: Mapping[NodeId, float], central_capacity: float) -> None:
        """Every tree's :meth:`~repro.trees.model.MonitoringTree.validate`,
        then every REMO check (:func:`repro.checks.check_plan`) against
        the full node budgets ``b_i`` and the collector's budget.

        Raises :class:`~repro.trees.model.TreeInvariantError` for a tree
        whose caches drift or that overruns a slice, and
        :class:`~repro.checks.PlanCheckError` for any ERROR finding --
        a partition set without a tree, a pair no task requested, a node
        or the collector over budget.  Both subclass ``AssertionError``.
        """
        from repro.checks.runner import check_plan  # repro.checks imports this module

        for result in self.trees.values():
            result.tree.validate()
        check_plan(self, node_capacities, central_capacity).raise_if_errors("plan validation")

