"""Gain estimation for the guided partition augmentation (Section 3.1.1).

Evaluating a candidate partition is expensive -- it means rebuilding
capacity-constrained trees -- so REMO ranks candidates first by the
*estimated reduction in total capacity usage* the operation would
bring, and only evaluates the most promising few.  The intuition from
the paper: a partition that frees a lot of capacity leaves room for
more node-attribute pairs to be collected.

The journal text defers the estimator's formulas to an online appendix
that is not part of the supplied text, so this module implements the
estimator from the behaviour the body text specifies (see DESIGN.md,
substitution 3):

- A **merge** of sets whose trees share nodes lets each shared node
  fold two periodic messages into one, saving one message's overhead
  ``C`` on the send side and another ``C`` at its parent's receive
  side: estimated reduction ``2*C*|N_left & N_right|``.  Congested
  operands discount the estimate, because a bigger tree on already
  saturated nodes tends to shed pairs rather than save capacity.
- A **split** *increases* message count (negative capacity reduction
  of ``2*C*|N_rest & N_attr|``), but when the source tree is saturated
  it can recover uncollected pairs by moving payload to a second tree;
  the recoverable volume ``a * uncollected`` is credited.

Only the *ranking* induced by these scores drives the search; absolute
values never feed into feasibility decisions, which keeps the
substitution safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Optional

from repro.core.attributes import AttributeId, NodeAttributePair
from repro.core.cost import CostModel
from repro.core.partition import AttributeSet, MergeOp, PartitionOp, SplitOp

if TYPE_CHECKING:  # plan imports nothing from here; annotation-only
    from repro.core.plan import MonitoringPlan


@dataclass
class GainContext:
    """Pre-digested workload and incumbent-plan facts.

    ``node_masks`` maps each attribute to a bitmask of the nodes that
    must report it (bit ``i`` set => node ``i`` in the attribute's node
    set); masks make the heavy ``|N1 & N2|`` computations cheap.
    ``uncollected`` maps each *partition set* of the currently
    evaluated plan to the number of node-attribute pairs its tree
    failed to include.  ``collected_masks`` holds, per partition set,
    the bitmask of nodes its tree actually contains -- capacity freed
    by a merge comes from nodes *sending in both trees*, so estimates
    based on requested overlap alone systematically over-rank merges
    of saturated (empty) trees.  When absent, requested masks are used
    as a fallback.
    """

    cost: CostModel
    node_masks: Dict[AttributeId, int]
    uncollected: Dict[AttributeSet, int] = field(default_factory=dict)
    collected_masks: Optional[Dict[AttributeSet, int]] = None

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[NodeAttributePair],
        cost: CostModel,
        uncollected: Optional[Dict[AttributeSet, int]] = None,
        collected_masks: Optional[Dict[AttributeSet, int]] = None,
    ) -> "GainContext":
        masks: Dict[AttributeId, int] = {}
        for pair in pairs:
            masks[pair.attribute] = masks.get(pair.attribute, 0) | (1 << pair.node)
        return cls(
            cost=cost,
            node_masks=masks,
            uncollected=dict(uncollected or {}),
            collected_masks=collected_masks,
        )

    @classmethod
    def from_plan(cls, plan: "MonitoringPlan", cost: CostModel) -> "GainContext":
        """Context derived from an incumbent :class:`MonitoringPlan`."""
        collected: Dict[AttributeSet, int] = {}
        for attr_set, result in plan.trees.items():
            mask = 0
            for node in result.tree.nodes:
                mask |= 1 << node
            collected[attr_set] = mask
        return cls.from_pairs(
            plan.pairs,
            cost,
            uncollected=plan.uncollected_by_set(),
            collected_masks=collected,
        )

    def set_mask(self, attr_set: AttributeSet) -> int:
        """Bitmask of nodes requested to participate in ``attr_set``'s tree."""
        mask = 0
        for attr in attr_set:
            mask |= self.node_masks.get(attr, 0)
        return mask

    def collected_mask(self, attr_set: AttributeSet) -> int:
        """Bitmask of nodes the set's incumbent tree actually includes.

        Falls back to the requested mask when no plan state is known
        (e.g. ranking before any evaluation has happened).
        """
        if self.collected_masks is not None and attr_set in self.collected_masks:
            return self.collected_masks[attr_set]
        return self.set_mask(attr_set)


def estimate_gain(op: PartitionOp, ctx: GainContext) -> float:
    """Estimated capacity-usage reduction (higher = more promising)."""
    if isinstance(op, MergeOp):
        return _merge_gain(op, ctx)
    if isinstance(op, SplitOp):
        return _split_gain(op, ctx)
    raise TypeError(f"unknown partition operation {op!r}")


def _merge_gain(op: MergeOp, ctx: GainContext) -> float:
    if (ctx.set_mask(op.left) & ctx.set_mask(op.right)).bit_count() == 0:
        # Disjoint node sets: nothing to fold, and the bigger tree only
        # adds failure surface.
        return float("-inf")
    left_coll = ctx.collected_mask(op.left)
    right_coll = ctx.collected_mask(op.right)
    shared = (left_coll & right_coll).bit_count()
    # Folding two periodic messages into one saves C on the sender and
    # C at its parent's receive side, per node present in both trees.
    node_saving = ctx.cost.overhead_cost(2.0 * shared)
    # Two root messages to the collector become one: C freed at the
    # central node -- but only if both trees actually deliver anything.
    central_saving = (
        ctx.cost.overhead_cost() if left_coll and right_coll else 0.0
    )
    # Uncollected pairs of either operand may ride the freed capacity;
    # the recoverable volume is bounded by what the merged tree's
    # existing members could plausibly absorb.
    uncollected = ctx.uncollected.get(op.left, 0) + ctx.uncollected.get(op.right, 0)
    absorbable = (left_coll | right_coll).bit_count()
    recovery = ctx.cost.value_cost(min(uncollected, 2 * absorbable))
    return node_saving + central_saving + recovery


def _split_gain(op: SplitOp, ctx: GainContext) -> float:
    uncollected = ctx.uncollected.get(op.source, 0)
    rest = op.source - {op.attribute}
    attr_mask = ctx.node_masks.get(op.attribute, 0)
    overlap = (ctx.set_mask(rest) & attr_mask).bit_count()
    overhead_added = ctx.cost.overhead_cost(2.0 * overlap)
    recoverable = ctx.cost.value_cost(uncollected)
    return recoverable - overhead_added


def rank_candidates(
    ops: Iterable[PartitionOp],
    ctx: GainContext,
    budget: Optional[int] = None,
) -> list:
    """Order candidate ops by decreasing estimated gain and keep the top
    ``budget``. A merge of disjoint node sets scores ``-inf`` and is
    never a candidate."""
    scored = []
    for op in ops:
        gain = estimate_gain(op, ctx)
        if gain > float("-inf"):
            scored.append((gain, op))
    scored.sort(key=lambda item: (-item[0], item[1].describe()))
    if budget is not None:
        scored = scored[:budget]
    return scored
