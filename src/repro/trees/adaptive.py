"""REMO's adaptive tree construction (Section 3.2.1).

The adaptive algorithm iterates two procedures:

- the *construction* procedure runs the STAR scheme, attaching new
  nodes to the shallowest host with room -- resource-efficient but
  root-heavy;
- when the tree saturates, the *adjusting* procedure (see
  :mod:`repro.trees.adjust`) prunes the cheapest branch of a congested
  node and re-attaches it deeper, freeing per-message overhead
  (CHAIN-like height growth).

The interleaving seeks the middle ground Fig. 4(e) illustrates: trade
relay cost for overhead, and vice versa, whenever doing so lets more
nodes join the tree.
"""

from __future__ import annotations

from heapq import heapify, heappop
from typing import Iterator, List, Optional, Tuple

from repro.core.attributes import NodeId
from repro.core.cost import CostModel
from repro.trees.adjust import TreeAdjuster
from repro.trees.base import GreedyTreeBuilder
from repro.trees.model import MonitoringTree, PreparedLeaf


class AdaptiveTreeBuilder(GreedyTreeBuilder):
    """Construction/adjusting iteration (the paper's ADAPTIVE scheme).

    Parameters
    ----------
    cost_model:
        The shared message cost model.
    adjuster:
        The adjusting procedure; defaults to the fully optimized one
        (branch-based + subtree-only).  Pass
        ``TreeAdjuster(branch_based=False, subtree_only=False)`` for the
        basic procedure (Fig. 10 baseline).
    """

    #: Each successful adjustment strictly reduces some congested node's
    #: branch count, so a few rounds suffice; the cap guards against
    #: pathological cycling.
    MAX_ADJUST_ROUNDS_PER_NODE = 4

    def __init__(
        self,
        cost_model: CostModel,
        adjuster: Optional[TreeAdjuster] = None,
        construction: str = "blend",
    ) -> None:
        super().__init__(cost_model)
        self.adjuster = adjuster if adjuster is not None else TreeAdjuster()
        if construction not in ("blend", "star"):
            raise ValueError(
                f"construction must be 'blend' or 'star', got {construction!r}"
            )
        #: ``star`` is the paper's literal construction procedure
        #: (shallowest feasible host first); ``blend`` additionally
        #: weighs relay depth against parent headroom, which performs
        #: better at the forest level (see parent_preference).
        self.construction = construction
        # Cached per-payload sort constant for parent_preference.
        self._pp_payload = -1.0
        self._pp_per_child = 1.0

    def parent_preference(self, tree: MonitoringTree, parent: NodeId) -> tuple:
        # Trade relay cost against load spreading: attaching under a
        # parent at depth d adds ~2*a*payload*d relay cost along the
        # path (send + receive at every ancestor level), so prefer the
        # parent with the most capacity left *after* paying for that
        # depth.  With cheap relays (overhead-dominated regimes) this
        # behaves like MAX_AVB's load spreading; with expensive relays
        # it collapses to STAR's shallow-first rule -- the middle
        # ground the paper's construction/adjusting iteration seeks.
        if self.construction == "star":
            return (tree.depth(parent), -tree.available(parent), parent)
        # Trade relay cost against load spreading.  Attaching under a
        # parent at depth d adds ~2*a*payload*d relay cost along the
        # path, so discount the parent's headroom by that toll, then
        # quantize headroom into "how many more children like this one
        # could it host" (capped).  Parents with ample slack tie on the
        # slot count and the STAR rule (shallowest first) decides --
        # minimum relay cost; under scarcity the slot count dominates
        # and load spreads like MAX_AVB.  This is the construction-side
        # half of the middle ground Fig. 4(e) motivates.
        payload = getattr(self, "_inserting_payload", 1.0)
        # per_child depends only on the payload, which is fixed for the
        # duration of one insertion's candidate sort; cache it instead
        # of recomputing it for every candidate parent.
        if payload != self._pp_payload:
            self._pp_payload = payload
            self._pp_per_child = self.cost.weighted_message_cost(1.0, 2.0 * payload)
        relay_toll = self.cost.value_cost(2.0 * payload * tree.depth(parent))
        slots = min(64.0, max(0.0, (tree.available(parent) - relay_toll) / self._pp_per_child))
        return (-int(slots), tree.depth(parent), -tree.available(parent), parent)

    def _ordered_parents(self, tree: MonitoringTree, entry_cost: float = 0.0) -> Iterator[NodeId]:
        # Blend ranking over the bulk headroom kernel in one pass: the
        # key is parent_preference's, computed with the same float
        # operations in the same order (2.0 * payload * depth groups
        # left to right; the toll must not be pre-multiplied by ``a``),
        # and clamped by comparisons (NaN goes to 0.0, as under max).
        if self.construction == "star":
            yield from super()._ordered_parents(tree, entry_cost)
            return
        payload = getattr(self, "_inserting_payload", 1.0)
        if payload != self._pp_payload:
            self._pp_payload = payload
            self._pp_per_child = self.cost.weighted_message_cost(1.0, 2.0 * payload)
        per_child = self._pp_per_child
        value_cost = self.cost.value_cost
        twice = 2.0 * payload
        keyed: List[Tuple[int, int, float, NodeId]] = []
        append = keyed.append
        for parent, depth, avail in zip(*tree.viable_parent_arrays(entry_cost)):
            slots = (avail - value_cost(twice * depth)) / per_child
            slots = 64.0 if slots > 64.0 else (slots if slots > 0.0 else 0.0)
            append((-int(slots), depth, -avail, parent))
        # Hand out lazily: the probe loop almost always takes the first
        # parent, so order the rest only when it asks for a second.  Keys
        # are total orders and a probe never mutates the tree, so this is
        # exactly the full sort's order.
        limit = self.max_parent_candidates
        count = len(keyed) if limit is None else min(limit, len(keyed))
        if count > 0:
            yield min(keyed)[3]
            heapify(keyed)
            heappop(keyed)
            for _ in range(count - 1):
                yield heappop(keyed)[3]

    def adjustment_seconds(self) -> float:
        return self.adjuster.seconds

    def on_saturated(
        self, tree: MonitoringTree, leaf: PreparedLeaf, failed_parents: List[NodeId]
    ) -> bool:
        return self.adjuster.relieve(tree, failed_parents, leaf.send)
