"""Runtime topology adaptation (Section 4).

Monitoring tasks come and go: ad hoc usage checks, attribute churn
while debugging, application re-deployments.  Re-planning the whole
forest on every change (REBUILD) wastes CPU and floods the system with
reconfiguration messages; blindly patching the existing forest
(DIRECT-APPLY) lets topology quality rot.  This module implements the
paper's spectrum of strategies:

- ``DIRECT_APPLY`` (D-A): apply the task delta with no partition
  change -- only trees whose attribute sets are touched are rebuilt;
- ``REBUILD``: run the full basic-REMO search from scratch;
- ``NO_THROTTLE``: take the D-A result as the *base topology*, then run
  a restricted local search whose merge/split candidates must involve
  at least one reconstructed tree (the set ``T``), ranked by estimated
  cost-effectiveness (gain per edge changed);
- ``ADAPTIVE``: NO_THROTTLE plus *cost-benefit throttling*: an
  operation is applied only when its reconfiguration message volume
  ``M_adapt`` stays below ``(T_cur - min T_adj) * benefit`` -- trees
  that were recently adjusted, or gains that are small, do not justify
  churn (Section 4.2).

One note on the throttling benefit term: the paper's formula uses the
per-unit-time traffic saving ``C_cur - C_adj``.  An operation that
*recovers previously uncollected pairs* necessarily increases traffic,
which would read as zero benefit; we therefore credit recovered pairs
at their payload cost ``a`` alongside any traffic saving, so
coverage-restoring adaptations are throttled on equal terms rather
than starved (see DESIGN.md).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.cluster.node import Cluster
from repro.obs import names, trace
from repro.obs.metrics import default_registry
from repro.core.attributes import AttributeId, NodeAttributePair, NodeId
from repro.core.cost import CostModel
from repro.core.forest import ForestBuilder
from repro.core.gain import GainContext, estimate_gain
from repro.core.partition import AttributeSet, MergeOp, Partition, PartitionOp
from repro.core.plan import MonitoringPlan
from repro.core.planner import RemoPlanner, _improves
from repro.core.tasks import MonitoringTask, TaskManager, TaskSetDelta
from repro.trees.base import BuildAbandoned, TreeBuildResult
from repro.trees.model import MonitoringTree


class AdaptationStrategy(enum.Enum):
    """How the service reacts to task-set changes (Fig. 9 comparands)."""

    DIRECT_APPLY = "direct_apply"
    REBUILD = "rebuild"
    NO_THROTTLE = "no_throttle"
    ADAPTIVE = "adaptive"


#: A task mutation: ("add" | "remove" | "modify", task).
TaskOp = Tuple[str, MonitoringTask]


@dataclass
class AdaptationReport:
    """Outcome of one batch of task changes.

    ``adaptation_messages`` counts topology edges changed relative to
    the previous plan (the control messages that reconfigure nodes,
    the paper's ``M_adapt``); ``monitoring_volume`` is the new plan's
    per-period traffic (``C_cur``).
    """

    strategy: AdaptationStrategy
    planning_seconds: float
    adaptation_messages: int
    monitoring_volume: float
    collected_pairs: int
    requested_pairs: int
    applied_ops: List[str] = field(default_factory=list)
    throttled_ops: int = 0

    @property
    def coverage(self) -> float:
        if self.requested_pairs == 0:
            return 1.0
        return self.collected_pairs / self.requested_pairs


class AdaptiveMonitoringService:
    """Long-running planner that keeps a forest in sync with live tasks.

    Parameters
    ----------
    cluster, cost_model:
        The deployment and cost model.
    strategy:
        Adaptation strategy (default ADAPTIVE).
    candidate_budget, max_ops_per_batch:
        Restricted-search effort caps: how many ranked candidates to
        evaluate per merge/split round, and how many operations one
        batch may apply.
    """

    def __init__(
        self,
        cluster: Cluster,
        cost_model: CostModel,
        strategy: AdaptationStrategy = AdaptationStrategy.ADAPTIVE,
        candidate_budget: int = 8,
        max_ops_per_batch: int = 16,
    ) -> None:
        self.cluster = cluster
        self.cost = cost_model
        self.strategy = strategy
        self.forest = ForestBuilder(cost_model)
        self.candidate_budget = candidate_budget
        self.max_ops_per_batch = max_ops_per_batch
        self.tasks = TaskManager()
        self.plan: Optional[MonitoringPlan] = None
        self._tadj: Dict[AttributeSet, float] = {}
        self._rebuild_planner = RemoPlanner(cost_model, candidate_budget=candidate_budget)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def initialize(self, tasks: Iterable[MonitoringTask], now: float = 0.0) -> AdaptationReport:
        """Install the initial task set (full REMO planning)."""
        ops: List[TaskOp] = [("add", t) for t in tasks]
        return self.apply_changes(ops, now=now, force_rebuild=True)

    def apply_changes(
        self,
        ops: Iterable[TaskOp],
        now: float,
        force_rebuild: bool = False,
    ) -> AdaptationReport:
        """Apply a batch of task mutations and adapt the topology."""
        with trace.timer(
            names.SPAN_ADAPTATION_APPLY_CHANGES,
            lane=names.LANE_ADAPTATION,
            strategy=self.strategy.value,
        ) as batch_timer:
            report = self._apply_changes_timed(list(ops), now, force_rebuild)
        report.planning_seconds = batch_timer.elapsed
        registry = default_registry()
        registry.incr(
            names.ADAPTATION_OPS_APPLIED_TOTAL,
            len(report.applied_ops),
            strategy=self.strategy.value,
        )
        registry.incr(
            names.ADAPTATION_OPS_THROTTLED_TOTAL,
            report.throttled_ops,
            strategy=self.strategy.value,
        )
        registry.incr(
            names.ADAPTATION_MESSAGES_TOTAL,
            report.adaptation_messages,
            strategy=self.strategy.value,
        )
        return report

    def _apply_changes_timed(
        self,
        ops: List[TaskOp],
        now: float,
        force_rebuild: bool,
    ) -> AdaptationReport:
        """:meth:`apply_changes` body; ``planning_seconds`` is stamped by
        the caller's timer, so every return path reports 0.0 here."""
        previous_plan = self.plan
        # DIRECT-APPLY mutates trees in place and the previous plan
        # aliases the same objects, so capture its structure now.
        previous_edges = (
            previous_plan.edge_multiset() if previous_plan is not None else None
        )
        delta = self.tasks.apply(ops)
        pairs = frozenset(
            p
            for p in self.tasks.pairs()
            if p.node in self.cluster and self.cluster.node(p.node).observes(p.attribute)
        )

        applied: List[PartitionOp] = []
        throttled = 0
        if not pairs:
            self.plan = None
            self._tadj.clear()
            return AdaptationReport(
                strategy=self.strategy,
                planning_seconds=0.0,
                adaptation_messages=sum(previous_edges.values()) if previous_edges else 0,
                monitoring_volume=0.0,
                collected_pairs=0,
                requested_pairs=0,
            )

        if force_rebuild or self.strategy is AdaptationStrategy.REBUILD or previous_plan is None:
            new_plan = self._rebuild_planner.plan(pairs, self.cluster)
            self._tadj = {s: now for s in new_plan.partition.sets}
        else:
            base_plan, dirty = self._direct_apply(previous_plan, pairs, delta, now)
            new_plan = base_plan
            if self.strategy in (
                AdaptationStrategy.NO_THROTTLE,
                AdaptationStrategy.ADAPTIVE,
            ):
                new_plan, applied, throttled = self._restricted_search(
                    base_plan, pairs, dirty, now
                )

        self.plan = new_plan
        new_edges = new_plan.edge_multiset()
        adaptation_messages = (
            MonitoringPlan.edge_multiset_diff(previous_edges, new_edges)
            if previous_edges is not None
            else sum(new_edges.values())
        )
        return AdaptationReport(
            strategy=self.strategy,
            planning_seconds=0.0,
            adaptation_messages=adaptation_messages,
            monitoring_volume=new_plan.total_message_cost(),
            collected_pairs=new_plan.collected_pair_count(),
            requested_pairs=new_plan.requested_pair_count(),
            applied_ops=[op.describe() for op in applied],
            throttled_ops=throttled,
        )

    # ------------------------------------------------------------------
    # DIRECT-APPLY base topology
    # ------------------------------------------------------------------
    def _direct_apply(
        self,
        previous: MonitoringPlan,
        pairs: FrozenSet[NodeAttributePair],
        delta: TaskSetDelta,
        now: float,
    ) -> Tuple[MonitoringPlan, Set[AttributeSet]]:
        """Patch the current topology with minimum changes (D-A).

        Existing trees are mutated in place -- removed pairs are
        stripped from their nodes (pruning branches that end up empty),
        added pairs are grafted onto the tree carrying their attribute's
        set -- so only the edges genuinely affected by the task delta
        change.  Attributes new to the system get singleton trees built
        from leftover capacity.  Returns the base plan plus the set
        ``T`` of modified partition sets (the restricted search's
        anchor).
        """
        live_attrs = {p.attribute for p in pairs}
        changed_attrs = {p.attribute for p in delta.added | delta.removed}

        trees: Dict[AttributeSet, TreeBuildResult] = {}
        new_sets: List[FrozenSet[AttributeId]] = []
        dirty: Set[AttributeSet] = set()
        covered: Set[AttributeId] = set()
        for old_set in previous.partition.sets:
            trimmed = frozenset(a for a in old_set if a in live_attrs)
            if not trimmed:
                continue
            new_sets.append(trimmed)
            covered |= trimmed
            trees[trimmed] = previous.trees[old_set]
            if trimmed != old_set or (trimmed & changed_attrs):
                dirty.add(trimmed)
        fresh_attrs = sorted(live_attrs - covered)
        for attr in fresh_attrs:
            singleton = frozenset({attr})
            new_sets.append(singleton)
            dirty.add(singleton)
        partition = Partition(new_sets)
        attr_to_set = {a: s for s in partition.sets for a in s}

        # Strip removed pairs (and entirely removed attributes) in place.
        removals_by_set: Dict[AttributeSet, Set[NodeAttributePair]] = {}
        for pair in delta.removed:
            target = attr_to_set.get(pair.attribute)
            if target is None:
                continue
            removals_by_set.setdefault(target, set()).add(pair)
        for attr_set, result in trees.items():
            tree = result.tree
            dead_attrs = set(tree.attributes) - live_attrs
            removed_here = removals_by_set.get(attr_set, set())
            if not dead_attrs and not removed_here:
                continue
            victims = {p.node for p in removed_here}
            if dead_attrs:
                victims |= set(tree.nodes)
            for node in victims:
                if node not in tree:
                    continue
                local = tree.local_demand(node)
                trimmed_local = {
                    a: w
                    for a, w in local.items()
                    if a not in dead_attrs
                    and NodeAttributePair(node, a) not in removed_here
                }
                if trimmed_local != local:
                    tree.update_local(node, trimmed_local, check=False)
            self._prune_empty_leaves(tree)

        # Graft added pairs onto their sets' trees.  The delta is raw
        # task-manager output: clip it to the observable pair set the
        # plan actually targets.
        additions_by_set: Dict[AttributeSet, List[NodeAttributePair]] = {}
        for pair in delta.added:
            if pair not in pairs:
                continue
            target = attr_to_set.get(pair.attribute)
            if target is not None and target in trees:
                additions_by_set.setdefault(target, []).append(pair)
        for attr_set, added in additions_by_set.items():
            tree = trees[attr_set].tree
            self._refresh_tree_capacity(tree, trees)
            by_node: Dict[NodeId, Dict[AttributeId, float]] = {}
            for pair in sorted(added):
                by_node.setdefault(pair.node, {})[pair.attribute] = 1.0
            for node, extra in sorted(by_node.items()):
                if node in tree:
                    merged = tree.local_demand(node)
                    merged.update(extra)
                    tree.update_local(node, merged)  # best effort
                else:
                    self._graft_node(tree, node, extra)

        # Attributes new to the system: build their singleton trees from
        # leftover capacity, keeping everything else untouched.
        if fresh_attrs:
            keep = dict(trees)
            plan = self.forest.build(partition, pairs, self.cluster, keep=keep)
        else:
            plan = MonitoringPlan(partition, trees, pairs, self.cost)

        # T_adj tracks when a tree was last *adjusted by the optimizer*
        # (merge/split), not when DIRECT-APPLY patched it -- otherwise
        # every tree in the restricted search's anchor would always show
        # zero stability and cost-benefit throttling would veto every
        # operation unconditionally.  Brand-new sets start at `now`:
        # they must survive one quiet interval before optimization
        # spends messages on them.
        for s in plan.partition.sets:
            if s not in self._tadj:
                self._tadj[s] = now
        self._tadj = {
            s: t for s, t in self._tadj.items() if s in set(plan.partition.sets)
        }
        return plan, dirty

    @staticmethod
    def _prune_empty_leaves(tree: MonitoringTree) -> None:
        """Drop leaves (cascading upward) that carry no local values."""
        changed = True
        while changed:
            changed = False
            for node in list(tree.nodes):
                if node not in tree:
                    continue
                if tree.degree(node) == 0 and not tree.local_demand(node):
                    if tree.parent(node) is None and len(tree) > 1:
                        continue  # relay root: children still need it
                    tree.remove_branch(node)
                    changed = True

    def _refresh_tree_capacity(
        self,
        tree: MonitoringTree,
        trees: Dict[AttributeSet, TreeBuildResult],
    ) -> None:
        """Point the tree's live capacity view at current global headroom.

        A tree's capacity snapshot dates from when it was built; before
        grafting growth onto it, recompute what each node can actually
        still afford: the node's full budget minus its usage across
        *all* current trees, plus whatever this tree itself already
        uses there.
        """
        total_used: Dict[NodeId, float] = {}
        central_used = 0.0
        for result in trees.values():
            t = result.tree
            for node in t.nodes:
                total_used[node] = total_used.get(node, 0.0) + t.used(node)
            central_used += t.central_used()
        capacities = {}
        for node in self.cluster:
            own = tree.used(node.node_id) if node.node_id in tree else 0.0
            free = node.capacity - total_used.get(node.node_id, 0.0)
            capacities[node.node_id] = own + max(free, 0.0)
        tree.capacities = capacities
        tree.central_capacity = tree.central_used() + max(
            self.cluster.central_capacity - central_used, 0.0
        )

    @staticmethod
    def _graft_node(
        tree: MonitoringTree, node: NodeId, demand: Dict[AttributeId, float]
    ) -> bool:
        """Attach a brand-new node to an existing tree, shallowest first."""
        if len(tree) == 0:
            return tree.add_node(node, None, demand)
        entry = tree.entry_cost(demand)
        candidates = sorted(
            (p for p in tree.nodes if tree.available(p) >= entry - 1e-9),
            key=lambda p: (tree.depth(p), -tree.available(p), p),
        )
        for parent in candidates:
            if tree.add_node(node, parent, demand):
                return True
        return False

    # ------------------------------------------------------------------
    # Restricted local search (Section 4.1) + throttling (Section 4.2)
    # ------------------------------------------------------------------
    def _restricted_search(
        self,
        base: MonitoringPlan,
        pairs: FrozenSet[NodeAttributePair],
        dirty: Set[AttributeSet],
        now: float,
    ) -> Tuple[MonitoringPlan, List[PartitionOp], int]:
        plan = base
        anchor = set(dirty) & set(plan.partition.sets)
        applied: List[PartitionOp] = []
        throttled = 0
        with trace.span(
            names.SPAN_ADAPTATION_RESTRICTED_SEARCH, lane=names.LANE_ADAPTATION, anchor=len(anchor)
        ) as search_span:
            for _ in range(self.max_ops_per_batch):
                if not anchor:
                    break
                candidate = self._find_operation(plan, pairs, anchor)
                if candidate is None:
                    break
                op, cand_plan = candidate
                if self.strategy is AdaptationStrategy.ADAPTIVE:
                    if not self._cost_effective(plan, cand_plan, op, now):
                        throttled += 1
                        # Once an operation fails the cost-benefit test the
                        # algorithm terminates immediately (Section 4.2).
                        break
                plan = cand_plan
                applied.append(op)
                touched = self._sets_created_by(op)
                anchor = (anchor & set(plan.partition.sets)) | touched
                for s in touched:
                    self._tadj[s] = now
                self._tadj = {
                    s: t for s, t in self._tadj.items() if s in set(plan.partition.sets)
                }
            search_span.set(applied=len(applied), throttled=throttled)
        return plan, applied, throttled

    def _find_operation(
        self,
        plan: MonitoringPlan,
        pairs: FrozenSet[NodeAttributePair],
        anchor: Set[AttributeSet],
    ) -> Optional[Tuple[PartitionOp, MonitoringPlan]]:
        """Best valid merge and best valid split; pick the better.

        Candidates are ranked by cost effectiveness: estimated gain
        divided by a lower bound on the edges the operation would
        rewire (the absorbed tree for a merge, the carved-out
        attribute's node set for a split).
        """
        partition = plan.partition
        ctx = GainContext.from_plan(plan, self.cost)

        def effectiveness(op: PartitionOp) -> float:
            gain = estimate_gain(op, ctx)
            if gain == float("-inf"):
                return float("-inf")
            if isinstance(op, MergeOp):
                edge_bound = max(
                    1, min(len(plan.trees[op.left].tree), len(plan.trees[op.right].tree))
                )
            else:
                edge_bound = max(1, ctx.node_masks.get(op.attribute, 0).bit_count())
            return gain / edge_bound

        merge_best = self._first_valid(
            plan, pairs, partition.merge_ops(restrict_to=anchor), effectiveness
        )
        split_best = self._first_valid(
            plan, pairs, partition.split_ops(restrict_to=anchor), effectiveness
        )
        candidates = [c for c in (merge_best, split_best) if c is not None]
        if not candidates:
            return None
        return max(candidates, key=lambda item: _plan_key(item[1]))

    def _first_valid(
        self,
        plan: MonitoringPlan,
        pairs: FrozenSet[NodeAttributePair],
        ops: Iterable[PartitionOp],
        effectiveness: Callable[[PartitionOp], float],
    ) -> Optional[Tuple[PartitionOp, MonitoringPlan]]:
        ranked = sorted(
            ((effectiveness(op), op) for op in ops),
            key=lambda item: -item[0],
        )
        evaluated = 0
        for score, op in ranked:
            if score == float("-inf") or evaluated >= self.candidate_budget:
                break
            evaluated += 1
            try:
                candidate = self._evaluate_op(plan, pairs, op)
            except BuildAbandoned:
                continue
            if _improves(candidate, plan):
                return op, candidate
        return None

    def _evaluate_op(
        self,
        plan: MonitoringPlan,
        pairs: FrozenSet[NodeAttributePair],
        op: PartitionOp,
    ) -> MonitoringPlan:
        """Apply ``op`` rebuilding only the trees it touches; raises
        :class:`BuildAbandoned` once it cannot collect as many pairs as
        ``plan``, which :meth:`_first_valid` would reject anyway."""
        new_partition = plan.partition.apply(op)
        touched = self._sets_created_by(op)
        keep = {
            s: plan.trees[s]
            for s in new_partition.sets
            if s not in touched and s in plan.trees
        }
        return self.forest.build(
            new_partition, pairs, self.cluster, keep=keep, floor=plan.collected_pair_count()
        )

    @staticmethod
    def _sets_created_by(op: PartitionOp) -> Set[AttributeSet]:
        if isinstance(op, MergeOp):
            return {op.left | op.right}
        return {op.source - {op.attribute}, frozenset({op.attribute})}

    def _cost_effective(
        self,
        current: MonitoringPlan,
        candidate: MonitoringPlan,
        op: PartitionOp,
        now: float,
    ) -> bool:
        """The Section 4.2 throttle: ``M_adapt < (T_cur - min T_adj) * benefit``."""
        m_adapt = candidate.adaptation_cost_from(current)
        involved = (
            [op.left, op.right] if isinstance(op, MergeOp) else [op.source]
        )
        last_adjusted = min(self._tadj.get(s, now) for s in involved)
        stability = max(now - last_adjusted, 0.0)
        traffic_saving = max(
            current.total_message_cost() - candidate.total_message_cost(), 0.0
        )
        recovered = max(
            candidate.collected_pair_count() - current.collected_pair_count(), 0
        )
        benefit = traffic_saving + self.cost.value_cost(recovered)
        verdict = m_adapt < stability * benefit
        trace.event(
            names.EVENT_ADAPTATION_COST_BENEFIT,
            lane=names.LANE_ADAPTATION,
            op=op.describe(),
            m_adapt=m_adapt,
            stability=stability,
            benefit=benefit,
            verdict="apply" if verdict else "throttle",
        )
        return verdict


def _plan_key(plan: MonitoringPlan) -> Tuple[int, float]:
    return (plan.collected_pair_count(), -plan.total_message_cost())
