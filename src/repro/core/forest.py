"""Forest construction: one capacity-constrained tree per partition set.

This is the resource-aware evaluation procedure of Section 3.2: given
an attribute partition, build the corresponding monitoring trees under
an allocation policy and package them as a :class:`MonitoringPlan`
whose collected-pair count is the objective the local search compares.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.cluster.node import Cluster
from repro.core.attributes import AttributeId, NodeAttributePair, NodeId
from repro.core.allocation import (
    AllocationPolicy,
    CapacityLedger,
    build_order,
    preallocate,
)
from repro.core.cost import AggregationMap, CostModel
from repro.core.partition import AttributeSet, Partition
from repro.core.plan import MonitoringPlan
from repro.obs import names
from repro.obs.metrics import default_registry
from repro.trees.base import BuildAbandoned, GreedyTreeBuilder, TreeBuildRequest, TreeBuildResult
from repro.trees.adaptive import AdaptiveTreeBuilder

#: Optional per-pair value weights (frequency extension): expected
#: values per base collection period, in ``(0, 1]``.
PairWeights = Mapping[NodeAttributePair, float]

#: A tree-construction cache key: every input the greedy builder reads
#: (see :meth:`TreeMemo.key`), as plain hashable tuples -- full inputs,
#: not a digest, so hash collisions cannot alias distinct builds.
MemoKey = Tuple[object, ...]


class TreeMemo:
    """LRU cache of tree-construction results across candidate plans.

    Most partitions recur across merge iterations of the planner's
    local search: a candidate differs from the incumbent in one or two
    sets, but sequential allocation re-builds every set downstream of
    the change because its capacity ledger shifts.  Whenever a set's
    *effective inputs* -- demands, remaining capacities of the demand
    nodes, central remaining, message weights -- are unchanged, the
    greedy build is a pure function of them, so the cached
    :class:`TreeBuildResult` is byte-identical to a cold rebuild and
    can be shared (candidate evaluation never mutates trees; the same
    sharing contract ``keep=`` already relies on).

    One memo serves one ``plan()`` call -- within that scope the
    demands and message weights for a given attribute set are pure
    functions of the set (they derive from the fixed pair set and pair
    weights), so the key only needs the inputs that actually vary
    between builds: the set itself, the demand nodes' remaining
    capacity slices, and the central slice.  A memo must therefore
    never be shared across workloads or builder configurations.
    Hit/miss counts land on the ``planner_memo_*`` registry counters
    that :class:`~repro.core.planner.PlanningStats` reads back.
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be > 0, got {max_entries}")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[MemoKey, TreeBuildResult]" = OrderedDict()
        # Sorted demand-node lists per attribute set, computed once:
        # keying must stay far cheaper than the builds it short-cuts.
        self._key_nodes: Dict[AttributeSet, List[NodeId]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def key(
        self,
        attr_set: AttributeSet,
        demands: Dict[NodeId, Dict[AttributeId, float]],
        ledger: CapacityLedger,
    ) -> MemoKey:
        """Fingerprint of one tree build's varying inputs.

        Only demand nodes can join the tree, so their remaining
        capacity slices (plus the central slice) are the only ledger
        state the build can observe.
        """
        nodes = self._key_nodes.get(attr_set)
        if nodes is None:
            nodes = self._key_nodes[attr_set] = sorted(demands)
        return (
            attr_set,
            tuple(ledger.remaining(n) for n in nodes),
            ledger.central_remaining,
        )

    def get(self, key: MemoKey) -> Optional[TreeBuildResult]:
        result = self._entries.get(key)
        if result is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return result

    def put(self, key: MemoKey, result: TreeBuildResult) -> None:
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)


class ForestBuilder:
    """Builds monitoring forests for arbitrary partitions.

    Parameters
    ----------
    cost_model:
        The shared ``C + a*x`` model.
    tree_builder:
        Any :class:`GreedyTreeBuilder`; defaults to REMO's adaptive
        builder.
    allocation:
        Capacity division policy across trees (default ORDERED, the
        paper's best performer in Fig. 11).
    aggregation:
        Optional in-network aggregation specs to plan with.  Passing
        them makes the planner aggregation-aware (Section 6.1); the
        oblivious baseline simply omits them.
    """

    def __init__(
        self,
        cost_model: CostModel,
        tree_builder: Optional[GreedyTreeBuilder] = None,
        allocation: AllocationPolicy = AllocationPolicy.ORDERED,
        aggregation: Optional[AggregationMap] = None,
    ) -> None:
        self.cost = cost_model
        self.tree_builder = (
            tree_builder if tree_builder is not None else AdaptiveTreeBuilder(cost_model)
        )
        self.allocation = allocation
        self.aggregation = aggregation

    # ------------------------------------------------------------------
    def build(
        self,
        partition: Partition,
        pairs: Iterable[NodeAttributePair],
        cluster: Cluster,
        pair_weights: Optional[PairWeights] = None,
        msg_weights: Optional[Mapping[NodeId, float]] = None,
        keep: Optional[Mapping[AttributeSet, TreeBuildResult]] = None,
        memo: Optional[TreeMemo] = None,
        floor: Optional[int] = None,
    ) -> MonitoringPlan:
        """Build a plan for ``partition`` over the de-duplicated ``pairs``.

        ``keep`` maps partition sets to existing tree results that must
        be retained verbatim (the DIRECT-APPLY adaptation path); their
        usage is charged to the capacity ledger before any new tree is
        built.  Only supported under sequential allocation policies.

        ``memo`` optionally caches tree-construction results across
        calls (see :class:`TreeMemo`); only consulted under sequential
        allocation, where the ledger state a build observes is captured
        by the memo key.

        ``floor`` is the collected-pair count the plan must reach to be
        of any use to the caller.  Once the trees built so far have
        excluded more requested pairs than ``kept pairs + requested
        pairs of the sets to build - floor``, the build raises
        :class:`~repro.trees.base.BuildAbandoned` instead of finishing
        a plan that would fall short (``None``: always finish).
        """
        pair_set = frozenset(pairs)
        universe = {p.attribute for p in pair_set}
        missing = universe - set(partition.universe)
        if missing:
            raise ValueError(
                f"partition does not cover requested attributes: {sorted(missing)}"
            )
        keep = dict(keep or {})
        unknown_keep = set(keep) - set(partition.sets)
        if unknown_keep:
            raise ValueError(
                f"keep references sets outside the partition: {sorted(map(sorted, unknown_keep))}"
            )
        if keep and not self.allocation.is_sequential:
            raise ValueError("keep is only supported under sequential allocation")

        # Kept trees are retained verbatim, so their per-node demand
        # dicts are never read -- only their volume (for build
        # ordering); skip materializing them.
        demands, set_volumes = self._demands_by_set(
            partition, pair_set, pair_weights, skip=frozenset(keep)
        )
        # Pairs the trees still to be built may exclude before the plan
        # falls short of ``floor``; kept trees' exclusions are final.
        slack: Optional[int] = None
        if floor is not None:
            kept_lost = sum(set_volumes[s] - kept.tree.pair_count() for s, kept in keep.items())
            slack = _charge(sum(set_volumes.values()) - floor, kept_lost)

        if self.allocation.is_sequential:
            results = self._build_sequential(
                partition, cluster, demands, set_volumes, msg_weights, keep, memo, slack
            )
        else:
            results = self._build_predivided(
                partition, cluster, demands, set_volumes, msg_weights, slack
            )
        return MonitoringPlan(partition, results, pair_set, self.cost)

    # ------------------------------------------------------------------
    def _demands_by_set(
        self,
        partition: Partition,
        pairs: Iterable[NodeAttributePair],
        pair_weights: Optional[PairWeights],
        skip: FrozenSet[AttributeSet] = frozenset(),
    ) -> Tuple[
        Dict[AttributeSet, Dict[NodeId, Dict[AttributeId, float]]],
        Dict[AttributeSet, int],
    ]:
        """Group pair demands by partition set and count set volumes.

        Sets in ``skip`` get volumes but no demand dicts (their trees
        are being kept verbatim, so demands would go unread).
        """
        attr_to_set = {a: s for s in partition.sets for a in s}
        demands: Dict[AttributeSet, Dict[NodeId, Dict[AttributeId, float]]] = {
            s: {} for s in partition.sets if s not in skip
        }
        volumes: Dict[AttributeSet, int] = {s: 0 for s in partition.sets}
        for pair in pairs:
            target = attr_to_set[pair.attribute]
            volumes[target] += 1
            weight = 1.0
            if pair_weights is not None:
                weight = pair_weights.get(pair, 1.0)
                if not 0.0 < weight <= 1.0:
                    raise ValueError(
                        f"pair weight for {pair} must be in (0, 1], got {weight}"
                    )
            if target in skip:
                continue
            demands[target].setdefault(pair.node, {})[pair.attribute] = weight
        return demands, volumes

    def _build_sequential(
        self,
        partition: Partition,
        cluster: Cluster,
        demands: Dict[AttributeSet, Dict[NodeId, Dict[AttributeId, float]]],
        set_volumes: Dict[AttributeSet, int],
        msg_weights: Optional[Mapping[NodeId, float]],
        keep: Dict[AttributeSet, TreeBuildResult],
        memo: Optional[TreeMemo],
        slack: Optional[int],
    ) -> Dict[AttributeSet, TreeBuildResult]:
        ledger = CapacityLedger(
            {node.node_id: node.capacity for node in cluster},
            cluster.central_capacity,
        )
        registry = default_registry()
        results: Dict[AttributeSet, TreeBuildResult] = {}
        for attr_set, kept in keep.items():
            tree = kept.tree
            ledger.charge(
                {node: tree.used(node) for node in tree.nodes}, tree.central_used()
            )
            results[attr_set] = kept
        for attr_set in build_order(self.allocation, partition, set_volumes):
            if attr_set in results:
                continue
            result = None
            memo_key: Optional[MemoKey] = None
            if memo is not None:
                memo_key = memo.key(attr_set, demands[attr_set], ledger)
                result = memo.get(memo_key)
                if result is not None:
                    registry.incr(names.PLANNER_MEMO_HITS_TOTAL)
                else:
                    registry.incr(names.PLANNER_MEMO_MISSES_TOTAL)
            if result is None:
                request = TreeBuildRequest(
                    attributes=attr_set,
                    demands=demands[attr_set],
                    capacities=ledger.view(),
                    central_capacity=ledger.central_remaining,
                    aggregation=self.aggregation,
                    msg_weights=msg_weights,
                )
                result = self.tree_builder.build(request, may_lose=slack)
                if memo is not None and memo_key is not None:
                    memo.put(memo_key, result)
            slack = _charge(slack, set_volumes[attr_set] - result.tree.pair_count())
            tree = result.tree
            ledger.charge(
                {node: tree.used(node) for node in tree.nodes}, tree.central_used()
            )
            results[attr_set] = result
        return results

    def _build_predivided(
        self,
        partition: Partition,
        cluster: Cluster,
        demands: Dict[AttributeSet, Dict[NodeId, Dict[AttributeId, float]]],
        set_volumes: Dict[AttributeSet, int],
        msg_weights: Optional[Mapping[NodeId, float]],
        slack: Optional[int],
    ) -> Dict[AttributeSet, TreeBuildResult]:
        participation: Dict[NodeId, List[AttributeSet]] = {}
        node_volumes: Dict[Tuple[NodeId, AttributeSet], int] = {}
        for attr_set in partition.sets:
            for node, demand in demands[attr_set].items():
                if demand:
                    participation.setdefault(node, []).append(attr_set)
                    node_volumes[(node, attr_set)] = len(demand)
        slices = preallocate(
            self.allocation,
            partition,
            participation,
            {node.node_id: node.capacity for node in cluster},
            set_volumes,
            node_volumes,
        )
        active_sets = [s for s in partition.sets if demands[s]] or list(partition.sets)
        if self.allocation is AllocationPolicy.UNIFORM:
            central_slices = {
                s: cluster.central_capacity / len(active_sets) for s in partition.sets
            }
        else:
            total_volume = sum(max(set_volumes.get(s, 0), 1) for s in active_sets)
            central_slices = {
                s: cluster.central_capacity
                * (max(set_volumes.get(s, 0), 1) / total_volume)
                if s in active_sets
                else 0.0
                for s in partition.sets
            }
        results: Dict[AttributeSet, TreeBuildResult] = {}
        for attr_set in partition.sets:
            request = TreeBuildRequest(
                attributes=attr_set,
                demands=demands[attr_set],
                capacities=slices.get(attr_set, {}),
                central_capacity=central_slices[attr_set],
                aggregation=self.aggregation,
                msg_weights=msg_weights,
            )
            results[attr_set] = self.tree_builder.build(request, may_lose=slack)
            slack = _charge(slack, set_volumes[attr_set] - results[attr_set].tree.pair_count())
        return results


def _charge(slack: Optional[int], lost: int) -> Optional[int]:
    """``slack`` less ``lost`` requested pairs a tree left out; raises
    :class:`BuildAbandoned` once negative.

    A memo hit is charged like a fresh build: its exclusions are as
    final as the ones the builder just made.
    """
    if slack is None:
        return None
    slack -= lost
    if slack < 0:
        raise BuildAbandoned(f"forest is {-slack} pairs short of its floor")
    return slack
