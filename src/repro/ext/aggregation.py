"""In-network aggregation awareness (Section 6.1).

The heavy lifting lives in the tree model, which applies each
attribute's *funnel function* when computing per-node outgoing value
counts: a node relaying a SUM forwards one partial result no matter
how many values arrive, a TOP-k relay forwards at most ``k``, and
holistic attributes forward everything.

An aggregation-**aware** planner receives the :data:`AggregationMap`
(via ``RemoPlanner(aggregation=...)``) and therefore knows merged
trees stay cheap; the **oblivious** baseline plans as if every value
were relayed holistically, overestimates communication cost, and
retreats to singleton-like partitions with their per-message overhead
(the Fig. 12a comparison).
"""

from __future__ import annotations

from typing import Iterable

from repro.core.attributes import AttributeId
from repro.core.cost import AggregationKind, AggregationMap, AggregationSpec


def uniform_aggregation(
    attributes: Iterable[AttributeId],
    kind: AggregationKind,
) -> AggregationMap:
    """Assign the same aggregation ``kind`` to every listed attribute.

    Convenience for experiments like Fig. 12a's "MAX on all tasks".
    """
    spec = AggregationSpec(kind=kind)
    return {attr: spec for attr in attributes}
