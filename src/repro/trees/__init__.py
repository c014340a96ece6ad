"""Capacity-constrained monitoring collection trees.

A monitoring tree delivers one partition-set of attributes: each member
node periodically sends its parent a message carrying its locally
observed values plus every value relayed from its children, and the
tree root forwards the merged message to the central collector.  Node
``i`` may spend at most its allocated capacity on this traffic, where a
message with ``x`` values costs ``C + a*x`` on both the sender and the
receiver (Problem Statement 2).

Four builders are provided, mirroring Section 3.2.1 and Fig. 7:

- :class:`~repro.trees.star.StarTreeBuilder` -- breadth-first, minimum
  relay cost, but the root drowns in per-message overhead;
- :class:`~repro.trees.chain.ChainTreeBuilder` -- depth-first, best
  load balance, worst relay cost;
- :class:`~repro.trees.max_avb.MaxAvailableTreeBuilder` -- the TMON
  heuristic: attach to the node with most available capacity;
- :class:`~repro.trees.adaptive.AdaptiveTreeBuilder` -- REMO's
  construction/adjusting iteration that trades relay cost against
  per-message overhead to maximize tree size.
"""

from repro.trees.model import MonitoringTree, NodeDemand, TreeInvariantError
from repro.trees.star import StarTreeBuilder
from repro.trees.chain import ChainTreeBuilder
from repro.trees.max_avb import MaxAvailableTreeBuilder
from repro.trees.adaptive import AdaptiveTreeBuilder

__all__ = [
    "AdaptiveTreeBuilder",
    "ChainTreeBuilder",
    "MaxAvailableTreeBuilder",
    "MonitoringTree",
    "NodeDemand",
    "StarTreeBuilder",
    "TreeInvariantError",
]
