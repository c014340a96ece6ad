"""Shared scaffolding for tree construction schemes.

All builders implement the same greedy insertion template: nodes are
considered in order of decreasing allocated capacity (as the paper's
STAR/CHAIN descriptions specify) and attached to the most-preferred
feasible parent, where "preferred" is the single knob distinguishing
STAR (shallowest), CHAIN (deepest) and MAX_AVB (most spare capacity).
The adaptive builder overrides the saturation handler to interleave
the adjusting procedure.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

from repro.core.attributes import NodeId
from repro.core.cost import AggregationMap, CostModel
from repro.obs import names
from repro.obs.metrics import default_registry
from repro.trees.model import MonitoringTree, NodeDemand, PreparedLeaf


@dataclass
class TreeBuildRequest:
    """Everything needed to construct one collection tree.

    Parameters
    ----------
    attributes:
        The partition set the tree will deliver.
    demands:
        ``{node: {attribute: weight}}`` -- each candidate member's local
        contribution.  Nodes with empty demand are not candidates.
    capacities:
        Capacity slice allocated to this tree per node.  The tree
        snapshots each member's slice when it attaches (see
        :class:`~repro.trees.model.MonitoringTree`), so the mapping
        must be settled before :meth:`GreedyTreeBuilder.build` runs --
        the sequential allocator passes a frozen ledger view.
    central_capacity:
        Collector-side capacity available to this tree's root message.
    aggregation:
        Optional in-network aggregation specs.
    msg_weights:
        Optional per-node message weights (frequency extension);
        defaults to 1.0 everywhere.
    """

    attributes: frozenset
    demands: Dict[NodeId, NodeDemand]
    capacities: Mapping[NodeId, float]
    central_capacity: float = math.inf
    aggregation: Optional[AggregationMap] = None
    msg_weights: Optional[Mapping[NodeId, float]] = None

    def msg_weight(self, node: NodeId) -> float:
        if self.msg_weights is None:
            return 1.0
        return self.msg_weights.get(node, 1.0)


class BuildAbandoned(Exception):
    """A build gave up once it could no longer reach its caller's floor.

    :meth:`GreedyTreeBuilder.build` raises it when the nodes it has
    excluded carry more requested pairs than its ``may_lose`` budget;
    :meth:`~repro.core.forest.ForestBuilder.build` raises it (or lets it
    pass) when the forest as a whole has.  Exclusions are final, so the
    finished result would have collected fewer pairs than the floor and
    its caller would have discarded it.
    """


@dataclass
class TreeBuildResult:
    """A constructed tree plus the candidates that did not fit."""

    tree: MonitoringTree
    excluded: List[NodeId] = field(default_factory=list)

    @property
    def included_count(self) -> int:
        return len(self.tree)


class GreedyTreeBuilder:
    """Template-method greedy builder.

    Subclasses override :meth:`parent_preference` to order candidate
    parents, and may override :meth:`on_saturated` to attempt recovery
    (the adaptive builder's adjusting procedure) before a node is
    declared excluded.
    """

    #: How many candidate parents to try per insertion; ``None`` scans
    #: every feasible-looking node in preference order.
    max_parent_candidates: Optional[int] = None
    #: Construct/adjust rounds to attempt for one node before declaring
    #: it excluded; each round is one :meth:`on_saturated` call.
    MAX_ADJUST_ROUNDS_PER_NODE = 0

    def __init__(self, cost_model: CostModel) -> None:
        self.cost = cost_model

    # -- extension points ------------------------------------------------
    def parent_preference(self, tree: MonitoringTree, parent: NodeId) -> tuple:
        """Sort key for candidate parents; lower sorts first."""
        raise NotImplementedError

    def on_saturated(
        self, tree: MonitoringTree, leaf: PreparedLeaf, failed_parents: List[NodeId]
    ) -> bool:
        """Called when ``leaf`` fits under no parent but is not
        :meth:`~MonitoringTree.out_of_reach`.  Return ``True`` if the
        tree was restructured and the insertion should be retried."""
        return False

    def adjustment_seconds(self) -> float:
        """Running total of wall seconds :meth:`on_saturated` has spent
        restructuring trees (builders that never adjust: 0.0)."""
        return 0.0

    # -- template --------------------------------------------------------
    def insertion_order(self, request: TreeBuildRequest) -> List[NodeId]:
        """Candidates ordered by decreasing allocated capacity.

        Ties break on node id for determinism.
        """
        candidates = [n for n, d in request.demands.items() if d]
        return sorted(
            candidates,
            key=lambda n: (-request.capacities.get(n, 0.0), n),
        )

    def build(
        self, request: TreeBuildRequest, may_lose: Optional[int] = None
    ) -> TreeBuildResult:
        """Construct a tree for ``request`` and report exclusions.

        ``may_lose`` caps the requested pairs the excluded nodes may
        carry: the build raises :class:`BuildAbandoned` at the
        exclusion that carries it past the cap (``None``: no cap).
        """
        started = time.perf_counter()
        adjusted_before = self.adjustment_seconds()
        tree = MonitoringTree(
            attributes=request.attributes,
            cost_model=self.cost,
            capacities=request.capacities,
            central_capacity=request.central_capacity,
            aggregation=request.aggregation,
        )
        excluded: List[NodeId] = []
        lost = 0
        try:
            for node in self.insertion_order(request):
                if not self._insert(tree, request, node):
                    excluded.append(node)
                    lost += len(request.demands[node])
                    if may_lose is not None and lost > may_lose:
                        raise BuildAbandoned(f"excluded {lost} pairs, may lose {may_lose}")
        finally:
            # The two phases add up, abandoned builds included:
            # construction is reported exclusive of the adjusting
            # procedure it interleaves with.
            adjusting = self.adjustment_seconds() - adjusted_before
            registry = default_registry()
            registry.observe(
                names.PLANNER_PHASE_SECONDS,
                time.perf_counter() - started - adjusting,
                phase="tree_construction",
            )
            if adjusting > 0.0:
                registry.observe(names.PLANNER_PHASE_SECONDS, adjusting, phase="adjustment")
        return TreeBuildResult(tree=tree, excluded=excluded)

    # -- helpers -----------------------------------------------------------
    def _insert(self, tree: MonitoringTree, request: TreeBuildRequest, node: NodeId) -> bool:
        # Validation, the positive-demand filter, the outgoing content
        # and its send cost are computed once here and shared by every
        # candidate probe and the one commit.
        leaf = tree.prepare_leaf(node, request.demands[node], request.msg_weight(node))
        if len(tree) == 0:
            if tree.leaf_fits(leaf, None):
                tree.attach_leaf(leaf, None)
                return True
            return False
        # A refusal no branch move can cure: exclude without adjusting.
        if tree.out_of_reach(leaf):
            return False
        # Payload of the insertion, available to parent_preference
        # implementations that trade relay depth against headroom.
        payload = sum(leaf.demand.values())
        self._inserting_payload = payload
        # A parent pays the child's message on its receive side; with
        # no aggregation funnels its own send also grows by the full
        # relayed payload, so the headroom bar sharpens to exactly the
        # capacity check the feasibility walk performs at the parent.
        min_headroom = leaf.send
        transferable = not tree.has_aggregation()
        if transferable:
            min_headroom += self.cost.value_cost(payload)
        attempts = 0
        members: Optional[List[NodeId]] = None
        while True:
            # Everything routes through the root: when it cannot relay
            # the payload no parent can host the node, so skip ranking
            # and probing the candidates altogether.
            if not tree.refuses(leaf):
                # A minimal-delta failure at a relay hop transfers (see
                # MonitoringTree.last_attach_failure): every candidate
                # in that hop's subtree routes through it and is skipped.
                blocked: set = set()
                for parent in self._ordered_parents(tree, min_headroom):
                    if parent in blocked:
                        continue
                    if tree.leaf_fits(leaf, parent):
                        tree.attach_leaf(leaf, parent)
                        return True
                    fail_node, minimal = tree.last_attach_failure()
                    if transferable and minimal and fail_node is not None and fail_node != parent:
                        blocked.update(tree.subtree_nodes(fail_node))
            # Past the out-of-reach gate, every member refused the
            # insertion on capacity -- at the headroom pre-filter, on its
            # path walk or at the root's own slice -- so all of them are
            # congested in the paper's sense.  Adjusting moves members
            # but never adds or drops one, so one list serves every round.
            attempts += 1
            if attempts > self.MAX_ADJUST_ROUNDS_PER_NODE:
                return False
            if members is None:
                members = tree.nodes
            if not self.on_saturated(tree, leaf, members):
                return False

    def _ordered_parents(
        self, tree: MonitoringTree, entry_cost: float = 0.0
    ) -> Iterable[NodeId]:
        # A parent must at least absorb the new child's message on its
        # receive side; anything with less headroom cannot host it, so
        # skip the (much costlier) full path walk for those.  Preference
        # keys are total orders, so the scan's membership order never
        # shows in the result.
        viable = tree.viable_parents(entry_cost)
        viable.sort(key=lambda p: self.parent_preference(tree, p))
        if self.max_parent_candidates is not None:
            return viable[: self.max_parent_candidates]
        return viable
