"""Cluster nodes and the cluster container.

A :class:`SimNode` is a monitoring node: it owns a resource capacity
``b_i`` (cost units per unit time available for monitoring I/O, CPU
being the paper's primary resource) and a set of locally observable
attributes.  The :class:`Cluster` also models the *central node* (the
data collector), which has its own capacity -- the paper's Fig. 4(a)
"star collection" fails precisely because the central node's capacity
is finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Set

from repro.core.attributes import AttributeId, NodeAttributePair, NodeId

#: Conventional id for the central collector in topology descriptions.
CENTRAL_NODE_ID: NodeId = -1


@dataclass
class SimNode:
    """One monitoring node.

    Parameters
    ----------
    node_id:
        Unique non-negative integer id.
    capacity:
        ``b_i``: budget of cost units per unit time the node may spend
        sending and receiving monitoring messages.
    attributes:
        Attribute types observable at this node.
    """

    node_id: NodeId
    capacity: float
    attributes: FrozenSet[AttributeId] = frozenset()

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValueError(f"node_id must be >= 0, got {self.node_id}")
        if self.capacity <= 0:
            raise ValueError(
                f"node {self.node_id} capacity must be > 0, got {self.capacity}"
            )
        self.attributes = frozenset(self.attributes)

    def observes(self, attribute: AttributeId) -> bool:
        """Whether ``attribute`` is locally observable at this node."""
        return attribute in self.attributes


class Cluster:
    """A set of monitoring nodes plus the central data collector.

    The cluster is the planner's view of the deployment: ids,
    capacities and observability.  Dynamic state (metric values,
    failures) lives in the simulation layer.
    """

    def __init__(self, nodes: Iterable[SimNode], central_capacity: float) -> None:
        self._nodes: Dict[NodeId, SimNode] = {}
        for node in nodes:
            if node.node_id in self._nodes:
                raise ValueError(f"duplicate node id {node.node_id}")
            self._nodes[node.node_id] = node
        if central_capacity <= 0:
            raise ValueError(f"central capacity must be > 0, got {central_capacity}")
        self.central_capacity = central_capacity

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def __iter__(self) -> Iterator[SimNode]:
        return iter(self._nodes.values())

    def node(self, node_id: NodeId) -> SimNode:
        """Return the node with ``node_id``."""
        return self._nodes[node_id]

    def capacity(self, node_id: NodeId) -> float:
        """Capacity ``b_i`` of ``node_id``."""
        return self._nodes[node_id].capacity

    @property
    def node_ids(self) -> List[NodeId]:
        """All node ids, ascending."""
        return sorted(self._nodes)

    def observable_pairs(self) -> Set[NodeAttributePair]:
        """Every (node, attribute) pair the cluster can produce."""
        return {
            NodeAttributePair(node.node_id, attr)
            for node in self._nodes.values()
            for attr in node.attributes
        }
