"""Attribute and node-attribute-pair primitives.

The paper models each monitoring node as exposing a set of observable
*attributes* (interchangeably called *metrics*): locally observable,
continuously changing variables such as CPU utilization or a stream
operator's tuple rate.  Attributes at different nodes with the same
name are attributes of the same *type*.

A monitoring task ultimately reduces to a set of *node-attribute
pairs* ``(i, j)`` -- "collect attribute ``j`` from node ``i``" -- and
the planner's objective (Problem Statement 1) is to maximize the
number of such pairs delivered to the central collector without
violating any node's resource constraint.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Set

#: Node identifiers are small integers assigned by the cluster substrate.
NodeId = int

#: Attribute identifiers are short strings such as ``"cpu"`` or
#: ``"op12.tuple_rate"``.  Equal strings denote the same attribute type.
AttributeId = str


class NodeAttributePair(NamedTuple):
    """A single unit of monitoring work: attribute ``attribute`` at node ``node``.

    Instances are immutable, hashable, and totally ordered so they can
    be used in sets, as dict keys, and in deterministic sorted output.
    A tuple keeps hashing, equality and ordering in C; the hash is
    ``hash((node, attribute))``, so sets of pairs iterate in a fixed
    order for a given hash seed.  Being a tuple, a pair also equals
    the plain ``(node, attribute)`` tuple and encodes to JSON as a
    two-element list.
    """

    node: NodeId
    attribute: AttributeId

    def __str__(self) -> str:
        return f"{self.node}:{self.attribute}"


def pairs_for(nodes: Iterable[NodeId], attributes: Iterable[AttributeId]) -> Set[NodeAttributePair]:
    """Cartesian helper: every attribute observed at every node.

    This mirrors how a monitoring task ``t = (A_t, N_t)`` expands into
    its node-attribute pair list (Definition 1).
    """
    attrs = tuple(attributes)
    return {NodeAttributePair(n, a) for n in nodes for a in attrs}
