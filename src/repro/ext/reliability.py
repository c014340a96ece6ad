"""Reliability enhancements: SSDP and DSDP replication (Section 6.2).

Both modes work purely by *rewriting monitoring tasks*:

- **SSDP** (same source, different paths): every attribute ``a`` of a
  protected task gains aliases ``a#r1, a#r2, ...`` observed at the same
  nodes; an alias and its base are *forbidden* from sharing a partition
  set, so their values travel through different monitoring trees and a
  single link failure cannot silence both copies.
- **DSDP** (different sources, different paths): when groups of nodes
  observe the same value (e.g. hosts sharing a storage array), the task
  is rewritten into ``k`` tasks, each collecting the metric from a
  distinct representative per group, again alias-separated into
  distinct trees.

The planner enforces the separation through its ``forbidden_pairs``
constraint; nothing else in REMO changes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Sequence, Set

from repro.cluster.metrics import MetricRegistry
from repro.cluster.node import Cluster, SimNode
from repro.core.attributes import AttributeId, NodeAttributePair, NodeId
from repro.core.plan import MonitoringPlan
from repro.core.tasks import MonitoringTask

_ALIAS_SEPARATOR = "#r"


def alias_name(attribute: AttributeId, replica: int) -> AttributeId:
    """Alias for replica ``replica`` (replica 0 is the base name)."""
    if replica == 0:
        return attribute
    return f"{attribute}{_ALIAS_SEPARATOR}{replica}"


def base_of(attribute: AttributeId) -> AttributeId:
    """Strip any replica suffix."""
    head, sep, tail = attribute.rpartition(_ALIAS_SEPARATOR)
    if sep and tail.isdigit():
        return head
    return attribute


@dataclass
class ReplicationRewrite:
    """Output of a reliability rewrite.

    ``tasks`` replace the originals; ``forbidden_pairs`` feeds the
    planner's merge constraint; ``alias_groups`` maps each base
    attribute to all names (base + aliases) carrying its value.
    """

    tasks: List[MonitoringTask]
    forbidden_pairs: Set[FrozenSet[AttributeId]]
    alias_groups: Dict[AttributeId, List[AttributeId]] = field(default_factory=dict)

    @property
    def alias_to_base(self) -> Dict[AttributeId, AttributeId]:
        mapping: Dict[AttributeId, AttributeId] = {}
        for base, names in self.alias_groups.items():
            for name in names:
                mapping[name] = base
        return mapping


def _forbid_all_pairs(names: Sequence[AttributeId]) -> Set[FrozenSet[AttributeId]]:
    return {frozenset(pair) for pair in itertools.combinations(names, 2)}


def rewrite_ssdp(
    tasks: Iterable[MonitoringTask],
    factor: int = 2,
) -> ReplicationRewrite:
    """Same-source/different-paths rewrite with replication ``factor``.

    Each input task ``t = (a, N_t)`` spawns ``factor - 1`` extra tasks
    over aliased attributes on the same nodes; the degree of
    reliability follows the number of duplications (Section 6.2).
    """
    if factor < 1:
        raise ValueError(f"replication factor must be >= 1, got {factor}")
    out_tasks: List[MonitoringTask] = []
    forbidden: Set[FrozenSet[AttributeId]] = set()
    alias_groups: Dict[AttributeId, List[AttributeId]] = {}
    for task in tasks:
        out_tasks.append(task)
        for attr in task.attributes:
            alias_groups.setdefault(attr, [attr])
        for replica in range(1, factor):
            aliased = [alias_name(a, replica) for a in sorted(task.attributes)]
            out_tasks.append(
                MonitoringTask(
                    f"{task.task_id}{_ALIAS_SEPARATOR}{replica}",
                    aliased,
                    task.nodes,
                    frequency=task.frequency,
                )
            )
            for attr, alias in zip(sorted(task.attributes), aliased):
                group = alias_groups.setdefault(attr, [attr])
                if alias not in group:
                    group.append(alias)
    for names in alias_groups.values():
        if len(names) > 1:
            forbidden |= _forbid_all_pairs(names)
    return ReplicationRewrite(out_tasks, forbidden, alias_groups)


def rewrite_dsdp(
    task_id: str,
    attribute: AttributeId,
    node_groups: Sequence[Sequence[NodeId]],
    frequency: float = 1.0,
) -> ReplicationRewrite:
    """Different-sources/different-paths rewrite (Section 6.2).

    ``node_groups`` lists groups of nodes that observe the *same*
    value.  With ``k = min(|group|)`` replicas, replica ``i`` collects
    the attribute from the ``i``-th member of every group, and each
    replica's alias is confined to its own tree.
    """
    groups = [list(g) for g in node_groups]
    if not groups or any(not g for g in groups):
        raise ValueError("node_groups must be non-empty groups of nodes")
    k = min(len(g) for g in groups)
    tasks: List[MonitoringTask] = []
    names: List[AttributeId] = []
    for replica in range(k):
        name = alias_name(attribute, replica)
        names.append(name)
        nodes = [group[replica] for group in groups]
        tasks.append(
            MonitoringTask(
                f"{task_id}{_ALIAS_SEPARATOR}{replica}" if replica else task_id,
                [name],
                nodes,
                frequency=frequency,
            )
        )
    forbidden = _forbid_all_pairs(names) if len(names) > 1 else set()
    return ReplicationRewrite(tasks, forbidden, {attribute: names})


def alias_cluster(cluster: Cluster, rewrite: ReplicationRewrite) -> Cluster:
    """A cluster whose nodes additionally observe every alias of their
    base attributes (aliases carry the same locally observed value, so
    observability is inherited)."""
    nodes = []
    for node in cluster:
        extra = set()
        for attr in node.attributes:
            for name in rewrite.alias_groups.get(attr, ()):
                extra.add(name)
        nodes.append(
            SimNode(
                node_id=node.node_id,
                capacity=node.capacity,
                attributes=frozenset(node.attributes) | extra,
            )
        )
    return Cluster(nodes, central_capacity=cluster.central_capacity)


def replica_plan_coverage(plan: MonitoringPlan, rewrite: ReplicationRewrite) -> float:
    """Fraction of *base* node-attribute pairs covered by >= 1 replica.

    The plan's raw coverage counts every alias separately; for the user
    a pair is served as soon as any replica path delivers it.
    """
    alias_to_base = rewrite.alias_to_base
    requested: Set[NodeAttributePair] = set()
    covered: Set[NodeAttributePair] = set()
    for pair in plan.pairs:
        base = alias_to_base.get(pair.attribute, base_of(pair.attribute))
        requested.add(NodeAttributePair(pair.node, base))
    for pair in plan.collected_pairs():
        base = alias_to_base.get(pair.attribute, base_of(pair.attribute))
        covered.add(NodeAttributePair(pair.node, base))
    if not requested:
        return 1.0
    return len(covered & requested) / len(requested)


class ReplicatedRegistry(MetricRegistry):
    """A metric registry where every alias shares its base's generator.

    Built on top of a base registry so that ``value()`` of an aliased
    pair returns exactly the base pair's ground truth -- SSDP aliases
    are the *same source*.
    """

    def __init__(self, base: MetricRegistry, alias_to_base: Dict[AttributeId, AttributeId]) -> None:
        # Intentionally does NOT call super().__init__: all state lives
        # in the wrapped base registry.
        self._base = base
        self._alias_to_base = dict(alias_to_base)

    def _resolve(self, pair: NodeAttributePair) -> NodeAttributePair:
        base_attr = self._alias_to_base.get(pair.attribute, base_of(pair.attribute))
        return NodeAttributePair(pair.node, base_attr)

    def __len__(self) -> int:
        return len(self._base)

    def __contains__(self, pair: NodeAttributePair) -> bool:
        return self._resolve(pair) in self._base

    def pairs(self):
        return self._base.pairs()

    def value(self, pair: NodeAttributePair) -> float:
        return self._base.value(self._resolve(pair))

    def reader(self, pairs: Sequence[NodeAttributePair]) -> Callable[[], List[float]]:
        return self._base.reader([self._resolve(pair) for pair in pairs])

    def advance_all(self) -> None:
        self._base.advance_all()

    def ensure(self, pair: NodeAttributePair, factory=None) -> None:
        self._base.ensure(self._resolve(pair), factory)
