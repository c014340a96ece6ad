"""Baseline partition schemes: SINGLETON-SET and ONE-SET (Section 3.1).

These are the two state-of-the-art approaches REMO is evaluated
against throughout Figs. 5, 6 and 8:

- the **singleton-set partition** (SP) builds one tree per attribute
  type, as PIER does per query -- best load balance across trees, but
  every node sends one message per attribute and drowns in per-message
  overhead;
- the **one-set partition** (OP) delivers all attributes in a single
  tree -- one message per node per period (minimal overhead), but
  messages grow with every hop, so the tree saturates early and cannot
  include many nodes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set, Union

from repro.cluster.node import Cluster
from repro.core.attributes import AttributeId, NodeAttributePair, NodeId
from repro.core.cost import CostModel
from repro.core.forest import ForestBuilder, PairWeights
from repro.core.partition import Partition
from repro.core.plan import MonitoringPlan
from repro.core.tasks import DuplicateTaskError, MonitoringTask, TaskManager
from repro.trees.base import GreedyTreeBuilder

#: Planner inputs: a task list, a task manager, or raw pair sets.
TaskSource = Union[Iterable[MonitoringTask], TaskManager, Iterable[NodeAttributePair]]


def _task_pairs(tasks: List[MonitoringTask], cluster: Cluster) -> frozenset:
    """De-duplicated expansion of a plain task list, clipped to what
    ``cluster`` observes: per-node attribute sets are united first, so
    each distinct pair is built and hashed once."""
    seen: Set[str] = set()
    wanted: Dict[NodeId, Set[AttributeId]] = {}
    for task in tasks:
        if task.task_id in seen:
            raise DuplicateTaskError(task.task_id)
        seen.add(task.task_id)
        attributes = task.attributes
        for node in task.nodes:
            if node in wanted:
                wanted[node] |= attributes
            elif node in cluster:
                wanted[node] = set(attributes)
    for node, attributes in wanted.items():
        attributes &= cluster.node(node).attributes
    return frozenset(
        NodeAttributePair(node, attribute)
        for node, attributes in wanted.items()
        for attribute in attributes
    )


def observable_pairs(source: TaskSource, cluster: Cluster) -> frozenset:
    """De-duplicated pairs clipped to what the cluster can observe.

    A task ``(A_t, N_t)`` expands to its full cross product, but only
    pairs ``(i, j)`` with ``j in A_i`` are collectable (Problem
    Statement 1); the rest are silently dropped, as the paper's task
    manager does.
    """
    if isinstance(source, TaskManager):
        pairs: Iterable[NodeAttributePair] = source.pairs()
    else:
        items = list(source)
        if items and all(isinstance(item, MonitoringTask) for item in items):
            return _task_pairs(items, cluster)
        if not all(isinstance(item, NodeAttributePair) for item in items):
            raise TypeError(
                "task source must be MonitoringTasks, NodeAttributePairs, or a TaskManager"
            )
        pairs = items
    return frozenset(
        p for p in pairs if p.node in cluster and cluster.node(p.node).observes(p.attribute)
    )


class FixedPartitionPlanner:
    """Common machinery for planners with a workload-derived fixed partition."""

    def __init__(
        self,
        cost_model: CostModel,
        tree_builder: Optional[GreedyTreeBuilder] = None,
    ) -> None:
        self.forest = ForestBuilder(cost_model, tree_builder=tree_builder)

    def partition_for(self, attributes: frozenset) -> Partition:
        raise NotImplementedError

    def plan(
        self,
        tasks: TaskSource,
        cluster: Cluster,
        pair_weights: Optional[PairWeights] = None,
        msg_weights: Optional[Mapping[NodeId, float]] = None,
    ) -> MonitoringPlan:
        """Build the scheme's forest for the given workload."""
        pairs = observable_pairs(tasks, cluster)
        if not pairs:
            raise ValueError("cannot plan for an empty workload")
        attributes = frozenset(p.attribute for p in pairs)
        partition = self.partition_for(attributes)
        return self.forest.build(
            partition,
            pairs,
            cluster,
            pair_weights=pair_weights,
            msg_weights=msg_weights,
        )


class SingletonSetPlanner(FixedPartitionPlanner):
    """One tree per attribute type (the SP baseline)."""

    def partition_for(self, attributes: frozenset) -> Partition:
        return Partition.singletons(attributes)


class OneSetPlanner(FixedPartitionPlanner):
    """A single tree for all attributes (the OP baseline)."""

    def partition_for(self, attributes: frozenset) -> Partition:
        return Partition.one_set(attributes)
