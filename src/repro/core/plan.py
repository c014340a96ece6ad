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
import zlib
from typing import Dict, FrozenSet, Iterable, List, Mapping, Set, Tuple

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
        for attr_set in sorted(self.trees, key=_set_key):
            digest.update(b"set:")
            digest.update(_set_key(attr_set).encode("utf-8"))
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


# ----------------------------------------------------------------------
# Collector sharding
# ----------------------------------------------------------------------

#: Which collector shard each partition set reports to.
ShardAssignment = Dict[AttributeSet, int]


def _set_key(attr_set: AttributeSet) -> str:
    """Canonical string key for a partition set (stable across processes)."""
    return ",".join(str(attr) for attr in sorted(attr_set))


def shard_partition_sets(sets: Iterable[AttributeSet], shards: int) -> ShardAssignment:
    """Assign each partition set to one of ``shards`` collector roots.

    Buckets by CRC-32 of the canonical attribute list -- stable across
    interpreter runs and processes (never the builtin ``hash``, which is
    salted per process), so every process that replans from the same
    inputs derives the same assignment without shipping it.
    """
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    assignment: ShardAssignment = {}
    for attr_set in sorted(sets, key=_set_key):
        digest = zlib.crc32(_set_key(attr_set).encode("utf-8"))
        assignment[attr_set] = digest % shards
    return assignment


class ShardedPlan:
    """A :class:`MonitoringPlan` whose trees are split across collector roots.

    Each partition set (and therefore each collection tree) reports to
    exactly one of ``shards`` collector shards; a shard hosts the trees
    assigned to it and scores only the pairs those trees were asked to
    collect.  Shard 0 additionally owns any requested pair whose
    attribute appears in no partition set (uncoverable pairs), so the
    shards' pair sets always partition ``plan.pairs`` exactly.
    """

    def __init__(
        self,
        plan: MonitoringPlan,
        assignment: Mapping[AttributeSet, int],
        shards: int,
    ) -> None:
        self.plan = plan
        self.assignment: ShardAssignment = dict(assignment)
        self.shards = shards
        self._attr_shard: Dict[str, int] = {}
        for attr_set, shard in self.assignment.items():
            for attr in attr_set:
                self._attr_shard[str(attr)] = shard

    @classmethod
    def build(cls, plan: MonitoringPlan, shards: int) -> "ShardedPlan":
        return cls(plan, shard_partition_sets(plan.partition.sets, shards), shards)

    def shard_of(self, attr_set: AttributeSet) -> int:
        return self.assignment[attr_set]

    def sets_for(self, shard: int) -> List[AttributeSet]:
        """Partition sets hosted by ``shard``, in canonical order."""
        return sorted(
            (s for s, owner in self.assignment.items() if owner == shard),
            key=_set_key,
        )

    def pairs_for(self, shard: int) -> Set[NodeAttributePair]:
        """Requested pairs scored by ``shard`` (uncoverable pairs -> shard 0)."""
        result: Set[NodeAttributePair] = set()
        for pair in self.plan.pairs:
            owner = self._attr_shard.get(str(pair.attribute), 0)
            if owner == shard:
                result.add(pair)
        return result

    def central_usage_by_shard(self) -> Dict[int, float]:
        """Collector capacity consumed at each shard root."""
        usage: Dict[int, float] = {shard: 0.0 for shard in range(self.shards)}
        for attr_set, shard in self.assignment.items():
            usage[shard] += self.plan.trees[attr_set].tree.central_used()
        return usage

    def summary(self) -> Dict[str, object]:
        """Status-API-friendly description of the shard layout."""
        return {
            "shards": self.shards,
            "sets_per_shard": {
                str(shard): len(self.sets_for(shard)) for shard in range(self.shards)
            },
            "pairs_per_shard": {
                str(shard): len(self.pairs_for(shard)) for shard in range(self.shards)
            },
            "central_usage": {
                str(shard): usage
                for shard, usage in self.central_usage_by_shard().items()
            },
        }
