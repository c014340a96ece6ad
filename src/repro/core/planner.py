"""The REMO planner: guided local search over attribute partitions.

This is the basic REMO approach of Section 3: starting from the
singleton-set partition, iterate two phases --

1. *partition augmentation*: enumerate the merge/split neighborhood
   of the current partition, rank candidates by estimated
   capacity-usage reduction (:mod:`repro.core.gain`), and keep only
   the most promising few (the guided search that makes the scheme
   scale);
2. *resource-aware evaluation*: build the forest for each surviving
   candidate with the capacity-constrained tree builder and measure
   the number of node-attribute pairs it collects.

The best strictly improving candidate becomes the new incumbent; the
search stops when no candidate improves (or after ``max_iterations``).
The objective follows Problem Statement 1: maximize collected pairs,
tie-broken by lower total message volume (freed capacity is the
paper's rationale for ranking by usage reduction in the first place).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.cluster.node import Cluster
from repro.obs import names, trace
from repro.obs.metrics import default_registry
from repro.core.attributes import AttributeId, NodeAttributePair, NodeId
from repro.core.allocation import AllocationPolicy
from repro.core.cost import AggregationMap, CostModel
from repro.core.forest import ForestBuilder, PairWeights, TreeMemo
from repro.core.gain import GainContext, rank_candidates
from repro.core.partition import AttributeSet, MergeOp, Partition, PartitionOp
from repro.core.plan import MonitoringPlan
from repro.core.schemes import TaskSource, observable_pairs
from repro.trees.base import BuildAbandoned, GreedyTreeBuilder, TreeBuildResult

#: Cost comparisons use this tolerance so float noise cannot drive
#: endless "improvements".
_COST_EPS = 1e-6

class PlanningStats:
    """Search-effort accounting for one :meth:`RemoPlanner.plan` call.

    The numeric counters are snapshots of the ambient
    :class:`~repro.obs.metrics.MetricsRegistry` rather than parallel
    bookkeeping: :meth:`bump` writes through to ``planner_*`` counter
    series (labeled by search phase), and the properties read back the
    delta accumulated since this object's creation.  ``accepted_ops``
    stays a plain list -- operation descriptions are trace events, not
    metrics.
    """

    #: (property, registry counter) pairs backing the numeric fields.
    _COUNTERS: Tuple[Tuple[str, str], ...] = (
        ("iterations", names.PLANNER_ITERATIONS_TOTAL),
        ("candidates_ranked", names.PLANNER_CANDIDATES_RANKED_TOTAL),
        ("candidates_evaluated", names.PLANNER_CANDIDATES_EVALUATED_TOTAL),
        ("candidates_abandoned", names.PLANNER_CANDIDATES_ABANDONED_TOTAL),
        ("memo_hits", names.PLANNER_MEMO_HITS_TOTAL),
        ("memo_misses", names.PLANNER_MEMO_MISSES_TOTAL),
    )

    def __init__(self) -> None:
        self.registry = default_registry()
        self._base = {
            counter: self.registry.counter_total(counter)
            for _attr, counter in self._COUNTERS
        }
        self._final: Optional[Dict[str, float]] = None
        self.accepted_ops: List[str] = []
        self.elapsed_seconds: float = 0.0

    def bump(self, counter: str, amount: int = 1, **labels: object) -> None:
        self.registry.incr(counter, amount, **labels)

    def freeze(self) -> None:
        """Close the accounting window: later registry activity (another
        ``plan()`` call on the same ambient registry) must not bleed
        into this object's readings."""
        self._final = {
            counter: self.registry.counter_total(counter)
            for _attr, counter in self._COUNTERS
        }

    def _delta(self, counter: str) -> int:
        if self._final is not None:
            total = self._final[counter]
        else:
            total = self.registry.counter_total(counter)
        return int(round(total - self._base[counter]))

    @property
    def iterations(self) -> int:
        return self._delta(names.PLANNER_ITERATIONS_TOTAL)

    @property
    def candidates_ranked(self) -> int:
        return self._delta(names.PLANNER_CANDIDATES_RANKED_TOTAL)

    @property
    def candidates_evaluated(self) -> int:
        return self._delta(names.PLANNER_CANDIDATES_EVALUATED_TOTAL)

    @property
    def candidates_abandoned(self) -> int:
        """Evaluated candidates whose build gave up short of its floor."""
        return self._delta(names.PLANNER_CANDIDATES_ABANDONED_TOTAL)

    @property
    def memo_hits(self) -> int:
        """Tree builds answered from the construction memo."""
        return self._delta(names.PLANNER_MEMO_HITS_TOTAL)

    @property
    def memo_misses(self) -> int:
        return self._delta(names.PLANNER_MEMO_MISSES_TOTAL)


@dataclass(frozen=True)
class _EvalContext:
    """Everything a candidate evaluation needs besides the incumbent.

    One instance is created per :meth:`RemoPlanner.plan_with_stats`
    call; seeds, ranked candidates and full rebuilds all build through
    it.
    """

    forest: ForestBuilder
    pairs: FrozenSet[NodeAttributePair]
    cluster: Cluster
    pair_weights: Optional[PairWeights]
    msg_weights: Optional[Mapping[NodeId, float]]
    #: Per-plan-call tree-construction cache (``None`` disables).
    memo: Optional[TreeMemo] = None


def _context_build(
    ctx: _EvalContext,
    part: Partition,
    keep: Optional[Mapping[AttributeSet, TreeBuildResult]] = None,
    floor: Optional[MonitoringPlan] = None,
) -> MonitoringPlan:
    """Build ``part``; with a ``floor`` plan, give up (raise
    :class:`BuildAbandoned`) once the result cannot collect as many
    pairs as it -- :func:`_improves` would reject it anyway."""
    return ctx.forest.build(
        part,
        ctx.pairs,
        ctx.cluster,
        pair_weights=ctx.pair_weights,
        msg_weights=ctx.msg_weights,
        keep=keep,
        memo=ctx.memo,
        floor=None if floor is None else floor.collected_pair_count(),
    )


def _attempt(
    span: trace.SpanHandle,
    stats: PlanningStats,
    phase: str,
    build: Callable[[], MonitoringPlan],
) -> Optional[MonitoringPlan]:
    """Evaluate one candidate; ``None`` when its build was abandoned."""
    stats.bump(names.PLANNER_CANDIDATES_EVALUATED_TOTAL, phase=phase)
    try:
        return build()
    except BuildAbandoned:
        stats.bump(names.PLANNER_CANDIDATES_ABANDONED_TOTAL, phase=phase)
        span.set(abandoned=True)
        return None


def _evaluate_with_context(
    ctx: _EvalContext, incumbent: MonitoringPlan, op: PartitionOp, floor: MonitoringPlan
) -> MonitoringPlan:
    """Resource-aware evaluation of one augmentation.

    Per Section 3.2, only the trees affected by the operation are
    reconstructed; untouched trees are carried over (their capacity
    usage is charged to the ledger before the affected trees are
    rebuilt against the remainder).  Pre-divided allocation policies
    cannot keep trees, so they fall back to full rebuild.
    """
    candidate_partition = incumbent.partition.apply(op)
    if not ctx.forest.allocation.is_sequential:
        return _context_build(ctx, candidate_partition, floor=floor)
    if isinstance(op, MergeOp):
        touched = {op.left | op.right}
    else:
        touched = {op.source - {op.attribute}, frozenset({op.attribute})}
    keep = {
        s: incumbent.trees[s]
        for s in candidate_partition.sets
        if s not in touched and s in incumbent.trees
    }
    return _context_build(ctx, candidate_partition, keep=keep, floor=floor)


def _separate_forbidden(
    sets: Iterable[Iterable[AttributeId]],
    forbidden_pairs: Set[FrozenSet[AttributeId]],
) -> List[Set[AttributeId]]:
    """Split groups until no forbidden attribute pair shares a set."""
    result: List[Set[AttributeId]] = []
    work = [set(s) for s in sets if s]
    while work:
        group = work.pop()
        violated = None
        for pair in forbidden_pairs:
            if pair <= group:
                violated = pair
                break
        if violated is None:
            result.append(group)
            continue
        a, b = tuple(violated)
        work.append(group - {a})
        work.append({a})
    return [s for s in result if s]


def _improves(candidate: MonitoringPlan, incumbent: MonitoringPlan) -> bool:
    """Strict improvement under the (coverage up, cost down) objective:
    more collected pairs, or as many at a lower per-period message
    volume."""
    cand_pairs, cand_cost = candidate.collected_pair_count(), candidate.total_message_cost()
    inc_pairs, inc_cost = incumbent.collected_pair_count(), incumbent.total_message_cost()
    if cand_pairs != inc_pairs:
        return cand_pairs > inc_pairs
    return cand_cost < inc_cost - _COST_EPS


class RemoPlanner:
    """Resource-aware multi-task monitoring topology planner.

    Parameters
    ----------
    cost_model:
        The shared ``C + a*x`` model.
    tree_builder:
        Tree construction scheme (default: REMO's adaptive builder).
    allocation:
        Cross-tree capacity policy (default ORDERED).
    aggregation:
        Optional in-network aggregation specs; passing them enables
        aggregation-aware planning (Section 6.1).
    candidate_budget:
        How many top-ranked neighbors to fully evaluate per iteration.
        The paper's guided augmentation exists precisely to keep this
        small; ``None`` evaluates the whole neighborhood (the ablation
        baseline).
    max_iterations:
        Hard cap on local-search steps.
    forbidden_pairs:
        Attribute pairs that must never share a partition set (the
        reliability extension's SSDP/DSDP constraint, Section 6.2).
    """

    #: Entries in the per-``plan()``-call tree-construction memo
    #: (:class:`~repro.core.forest.TreeMemo`); ``0`` disables it.  Memo
    #: hits are bit-identical to a cold rebuild (the build is a pure
    #: function of the memo key), so this affects speed only.
    MEMO_SIZE = 128

    def __init__(
        self,
        cost_model: CostModel,
        tree_builder: Optional[GreedyTreeBuilder] = None,
        allocation: AllocationPolicy = AllocationPolicy.ORDERED,
        aggregation: Optional[AggregationMap] = None,
        candidate_budget: Optional[int] = 8,
        max_iterations: int = 64,
        forbidden_pairs: Optional[Set[FrozenSet[AttributeId]]] = None,
    ) -> None:
        if candidate_budget is not None and candidate_budget <= 0:
            raise ValueError(f"candidate_budget must be > 0 or None, got {candidate_budget}")
        if max_iterations <= 0:
            raise ValueError(f"max_iterations must be > 0, got {max_iterations}")
        self.cost = cost_model
        self.forest = ForestBuilder(
            cost_model,
            tree_builder=tree_builder,
            allocation=allocation,
            aggregation=aggregation,
        )
        self.candidate_budget = candidate_budget
        self.max_iterations = max_iterations
        self.forbidden_pairs = set(forbidden_pairs or set())
        #: Top-ranked candidates granted a full forest rebuild when the
        #: cheap incremental evaluation finds no improvement.
        self._full_rebuild_budget = 3

    # ------------------------------------------------------------------
    def plan(
        self,
        tasks: TaskSource,
        cluster: Cluster,
        pair_weights: Optional[PairWeights] = None,
        msg_weights: Optional[Mapping[NodeId, float]] = None,
        initial_partition: Optional[Partition] = None,
    ) -> MonitoringPlan:
        """Plan a monitoring forest; see :meth:`plan_with_stats`."""
        plan, _stats = self.plan_with_stats(
            tasks,
            cluster,
            pair_weights=pair_weights,
            msg_weights=msg_weights,
            initial_partition=initial_partition,
        )
        return plan

    def plan_with_stats(
        self,
        tasks: TaskSource,
        cluster: Cluster,
        pair_weights: Optional[PairWeights] = None,
        msg_weights: Optional[Mapping[NodeId, float]] = None,
        initial_partition: Optional[Partition] = None,
    ) -> Tuple[MonitoringPlan, PlanningStats]:
        """Plan a monitoring forest and report search effort.

        ``initial_partition`` overrides the singleton-set starting
        point (used by REBUILD-from-current ablations and tests).
        """
        stats = PlanningStats()
        with trace.timer(names.SPAN_PLANNER_PLAN, lane=names.LANE_PLANNER) as plan_timer:
            pairs = observable_pairs(tasks, cluster)
            if not pairs:
                raise ValueError("cannot plan for an empty workload")
            attributes = frozenset(p.attribute for p in pairs)
            if initial_partition is not None:
                if frozenset(initial_partition.universe) != attributes:
                    raise ValueError(
                        "initial partition universe must equal the workload's attributes"
                    )
                partition = initial_partition
            else:
                partition = None

            ctx = _EvalContext(
                forest=self.forest,
                pairs=pairs,
                cluster=cluster,
                pair_weights=pair_weights,
                msg_weights=msg_weights,
                memo=TreeMemo(self.MEMO_SIZE) if self.MEMO_SIZE > 0 else None,
            )

            if partition is not None:
                incumbent = _context_build(ctx, partition)
            else:
                # REMO seeks the middle ground between the two extreme
                # partitions, but a merge-walk from singletons cannot reach
                # merge-heavy optima within bounded iterations when there
                # are many attribute types (nor can a split-walk from the
                # one-set partition reach balanced k-way groupings).  Seed
                # the local search with both endpoints plus a ladder of
                # k-way partitions that cluster attributes by node-set
                # similarity, and start from whichever evaluates best.
                incumbent = _context_build(ctx, Partition.singletons(attributes))
                for seed_rank, seed in enumerate(
                    self._seed_partitions(pairs, attributes)
                ):
                    with trace.span(
                        names.SPAN_PLANNER_SEED_EVAL,
                        lane=names.LANE_PLANNER,
                        rank=seed_rank,
                        sets=len(seed),
                    ) as span:
                        candidate = _attempt(
                            span,
                            stats,
                            "seed",
                            lambda: _context_build(ctx, seed, floor=incumbent),
                        )
                    if candidate is not None and _improves(candidate, incumbent):
                        incumbent = candidate
            for _ in range(self.max_iterations):
                stats.bump(names.PLANNER_ITERATIONS_TOTAL)
                accepted = self._improve_once(incumbent, ctx, stats)
                if accepted is None:
                    break
                incumbent = accepted
            if stats.accepted_ops:
                # Candidate evaluation carries unaffected trees over, which
                # charges capacity in stale order; one final full rebuild of
                # the winning partition restores the allocation policy's
                # global ordering and is kept only if it helps.
                with trace.span(
                    names.SPAN_PLANNER_FINAL_REBUILD, lane=names.LANE_PLANNER
                ) as span:
                    try:
                        final: Optional[MonitoringPlan] = _context_build(
                            ctx, incumbent.partition, floor=incumbent
                        )
                    except BuildAbandoned:
                        span.set(abandoned=True)
                        final = None
                if final is not None and _improves(final, incumbent):
                    incumbent = final
        stats.elapsed_seconds = plan_timer.elapsed
        stats.freeze()
        return incumbent, stats

    # ------------------------------------------------------------------
    def _seed_partitions(
        self, pairs: FrozenSet[NodeAttributePair], attributes: FrozenSet[AttributeId]
    ) -> List[Partition]:
        """Initialization ladder: one-set plus similarity-clustered k-way
        partitions (k = 2, 4, 8, ...).

        Attributes are greedily assigned, largest node set first, to the
        group whose members they overlap most (ties: emptiest group), so
        attributes observed on the same nodes share a tree and fold their
        messages.  Groups containing a forbidden attribute pair are split
        apart afterwards to respect the reliability constraint.
        """
        if len(attributes) < 2:
            return []
        masks: Dict[AttributeId, int] = {}
        for pair in pairs:
            masks[pair.attribute] = masks.get(pair.attribute, 0) | (1 << pair.node)
        ordered = sorted(
            attributes, key=lambda a: (-masks.get(a, 0).bit_count(), a)
        )
        total_volume = sum(m.bit_count() for m in masks.values())
        seeds: List[Partition] = [Partition.one_set(attributes)]
        k = 2
        while k < len(attributes):
            # Volume cap keeps groups balanced: without it, broadly
            # observed attributes (e.g. OS gauges on every node) pull
            # everything into the first group and the "k-way" seed
            # degenerates back to the one-set partition.
            cap = 1.25 * total_volume / k
            group_masks = [0] * k
            group_attrs: List[List[AttributeId]] = [[] for _ in range(k)]
            group_volume = [0.0] * k
            for attr in ordered:
                mask = masks.get(attr, 0)
                volume = mask.bit_count()
                open_groups = [
                    g for g in range(k) if group_volume[g] + volume <= cap
                ]
                pool = open_groups if open_groups else list(range(k))
                best = max(
                    pool,
                    key=lambda g: (
                        (group_masks[g] & mask).bit_count(),
                        -group_volume[g],
                    ),
                )
                group_attrs[best].append(attr)
                group_masks[best] |= mask
                group_volume[best] += volume
            sets = [g for g in group_attrs if g]
            if self.forbidden_pairs:
                sets = _separate_forbidden(sets, self.forbidden_pairs)
            if len(sets) > 1:
                seeds.append(Partition(sets))
            k *= 2
        if self.forbidden_pairs:
            filtered = []
            for seed in seeds:
                sets = _separate_forbidden(
                    [sorted(s) for s in seed.sets], self.forbidden_pairs
                )
                filtered.append(Partition(sets))
            seeds = filtered
        return seeds

    # ------------------------------------------------------------------
    def _improve_once(
        self,
        incumbent: MonitoringPlan,
        ctx: _EvalContext,
        stats: PlanningStats,
    ) -> Optional[MonitoringPlan]:
        with trace.span(
            names.SPAN_PARTITION_MERGE_ITERATION, lane=names.LANE_PLANNER, iteration=stats.iterations
        ) as iteration_span:
            # Partition-augmentation phase: neighborhood enumeration
            # plus gain ranking, timed separately from the (dominant)
            # tree-construction phase so the scaling bench can report
            # where wall time goes.
            phase_started = time.perf_counter()
            partition = incumbent.partition
            gain_ctx = GainContext.from_plan(incumbent, self.cost)
            ops: List[PartitionOp] = list(
                partition.merge_ops(forbidden_pairs=self.forbidden_pairs or None)
            )
            ops.extend(partition.split_ops())
            ranked = rank_candidates(ops, gain_ctx, budget=self.candidate_budget)
            default_registry().observe(
                names.PLANNER_PHASE_SECONDS,
                time.perf_counter() - phase_started,
                phase="partition",
            )
            stats.bump(names.PLANNER_CANDIDATES_RANKED_TOTAL, len(ops))
            iteration_span.set(neighborhood=len(ops), candidates=len(ranked))

            best_plan: Optional[MonitoringPlan] = None
            best_op: Optional[PartitionOp] = None
            for rank_idx, (_gain, op) in enumerate(ranked):
                # A candidate must beat the best one so far, so that
                # plan's pair count is the floor its build may give up at.
                with trace.span(
                    names.SPAN_PLANNER_EVALUATE_CANDIDATE, lane=names.LANE_PLANNER, rank=rank_idx
                ) as span:
                    candidate = _attempt(
                        span,
                        stats,
                        "search",
                        lambda: _evaluate_with_context(
                            ctx, incumbent, op, best_plan or incumbent
                        ),
                    )
                if candidate is None or not _improves(candidate, incumbent):
                    continue
                if best_plan is None or _improves(candidate, best_plan):
                    best_plan = candidate
                    best_op = op
            if best_plan is None:
                # Incremental evaluation charges kept trees' capacity before
                # the touched trees see any, so gains that require
                # *redistributing* capacity (typically central-collector
                # budget freed by a merge) are invisible.  Give the few
                # top-ranked candidates one full rebuild before giving up.
                for rank_idx, (_gain, op) in enumerate(
                    ranked[: self._full_rebuild_budget]
                ):
                    with trace.span(
                        names.SPAN_PLANNER_EVALUATE_CANDIDATE,
                        lane=names.LANE_PLANNER,
                        rank=rank_idx,
                        full_rebuild=True,
                    ) as span:
                        candidate = _attempt(
                            span,
                            stats,
                            "rebuild",
                            lambda: _context_build(
                                ctx,
                                incumbent.partition.apply(op),
                                floor=best_plan or incumbent,
                            ),
                        )
                    if candidate is not None and _improves(candidate, incumbent) and (
                        best_plan is None or _improves(candidate, best_plan)
                    ):
                        best_plan = candidate
                        best_op = op
            if best_plan is not None and best_op is not None:
                stats.accepted_ops.append(best_op.describe())
                trace.event(names.EVENT_PLANNER_ACCEPT, lane=names.LANE_PLANNER, op=best_op.describe())
            return best_plan
