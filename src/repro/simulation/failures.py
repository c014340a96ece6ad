"""Failure injection for reliability experiments (Section 6.2).

A link outage silences one child->parent edge of one tree over a
window of simulated time (messages sent during the window are lost).
A node outage is the runtime's :class:`~repro.runtime.config.AgentOutage`:
over whole periods, the node's messages -- sent or addressed to it --
are lost.  The reliability extension's SSDP/DSDP replication is
validated against these: values duplicated onto disjoint trees survive
outages that sever a single path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from repro.core.attributes import NodeId
from repro.core.partition import AttributeSet
from repro.runtime.config import AgentOutage


@dataclass(frozen=True)
class LinkOutage:
    """The ``child -> parent`` edge of ``tree`` is down in [start, end)."""

    child: NodeId
    tree: AttributeSet
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"outage window must have end > start, got [{self.start}, {self.end})")


class FailureInjector:
    """Queryable outage schedule."""

    def __init__(
        self,
        link_outages: Iterable[LinkOutage] = (),
        node_outages: Iterable[AgentOutage] = (),
    ) -> None:
        self.link_outages: List[LinkOutage] = list(link_outages)
        self.node_outages: List[AgentOutage] = list(node_outages)

    def link_down(self, child: NodeId, tree: AttributeSet, time: float) -> bool:
        return any(
            o.child == child and o.tree == tree and o.start <= time < o.end
            for o in self.link_outages
        )

    def node_down(self, node: NodeId, time: float) -> bool:
        """Whether ``node`` is down at ``time``, which falls in period
        ``int(time)``."""
        period = int(time)
        return any(o.node == node and o.covers(period) for o in self.node_outages)

    def blocks(self, sender: NodeId, receiver: NodeId, tree: AttributeSet, time: float) -> bool:
        """Whether a message on this edge at ``time`` is lost."""
        if self.link_down(sender, tree, time):
            return True
        if self.node_down(sender, time):
            return True
        if receiver >= 0 and self.node_down(receiver, time):
            return True
        return False
