"""The REMO message cost model and in-network aggregation funnels.

The paper's central modelling decision (Section 2.3, Fig. 2) is that
the cost of transmitting a message carrying ``x`` attribute values is

    ``C + a * x``

where ``C`` is a fixed *per-message overhead* (TCP/IP headers, protocol
processing, context switches) and ``a`` is the per-value payload cost.
The authors measured on BlueGene/P that per-message overhead dominates:
a root receiving 256 small messages per period burns ~68% of a core,
while growing one message from 1 to 256 values only raises its cost
from 0.2% to 1.4%.  Every planning decision in REMO flows from this
asymmetry, so the model lives here as a first-class object.

Section 6.1 extends the model with *funnel functions*: when a tree
performs in-network aggregation for a metric, the number of values a
node forwards is a function of the aggregation type and the number of
incoming values (e.g. SUM forwards 1 value regardless of fan-in).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

from repro.core.attributes import AttributeId


class AggregationKind(enum.Enum):
    """Supported in-network aggregation types (Section 6.1).

    ``HOLISTIC`` is the default "no aggregation" mode: every individual
    value is relayed to the collector.  ``DISTINCT`` is data-dependent;
    following the paper we bound it by the holistic funnel.
    """

    HOLISTIC = "holistic"
    SUM = "sum"
    MAX = "max"
    MIN = "min"
    AVG = "avg"
    COUNT = "count"
    TOP_K = "top_k"
    DISTINCT = "distinct"


@dataclass(frozen=True)
class AggregationSpec:
    """An aggregation assignment for one attribute type.

    ``k`` only applies to :attr:`AggregationKind.TOP_K`.
    """

    kind: AggregationKind = AggregationKind.HOLISTIC
    k: int = 10

    def funnel(self, incoming: int) -> int:
        """Number of outgoing values given ``incoming`` values.

        This is the paper's ``fnl_i^m(g_m, n_m)``: SUM/MAX/MIN/AVG/COUNT
        collapse any fan-in to a single partial result, TOP-k forwards at
        most ``k`` values, DISTINCT is bounded from above by the holistic
        funnel (the paper uses the same upper-bound estimate), and
        HOLISTIC forwards everything.
        """
        if incoming < 0:
            raise ValueError(f"incoming value count must be >= 0, got {incoming}")
        if incoming == 0:
            return 0
        if self.kind in (
            AggregationKind.SUM,
            AggregationKind.MAX,
            AggregationKind.MIN,
            AggregationKind.AVG,
            AggregationKind.COUNT,
        ):
            return 1
        if self.kind is AggregationKind.TOP_K:
            if self.k <= 0:
                raise ValueError(f"TOP_K requires k >= 1, got {self.k}")
            return min(self.k, incoming)
        # HOLISTIC and DISTINCT (upper bound): forward everything.
        return incoming


#: Aggregation assignments per attribute type.  Attributes absent from
#: the map are holistic.
AggregationMap = Dict[AttributeId, AggregationSpec]

HOLISTIC = AggregationSpec(AggregationKind.HOLISTIC)


@dataclass(frozen=True)
class CostModel:
    """The ``C + a * x`` message cost model.

    Parameters
    ----------
    per_message:
        ``C`` -- fixed cost charged for every message sent (and the
        same amount charged to the receiver for processing it).
    per_value:
        ``a`` -- incremental cost per attribute value carried.

    Costs and node capacities share one abstract unit ("cost units per
    unit time"); only ratios matter to the planner, which is why the
    evaluation sweeps the ``C/a`` ratio (Fig. 6c/6d).
    """

    per_message: float = 2.0
    per_value: float = 1.0

    def __post_init__(self) -> None:
        if self.per_message < 0:
            raise ValueError(f"per_message must be >= 0, got {self.per_message}")
        if self.per_value <= 0:
            raise ValueError(f"per_value must be > 0, got {self.per_value}")

    def message_cost(self, n_values: int) -> float:
        """Cost of sending (or receiving) one message with ``n_values`` values."""
        if n_values < 0:
            raise ValueError(f"n_values must be >= 0, got {n_values}")
        return self.per_message + self.per_value * n_values

    def value_cost(self, total_values: float) -> float:
        """Payload cost ``a * x`` for ``total_values`` value-weights.

        ``total_values`` may be fractional (heterogeneous frequencies)
        or negative (cost deltas in incremental bookkeeping).
        """
        return self.per_value * total_values

    def overhead_cost(self, msg_weight: float = 1.0) -> float:
        """Per-message overhead ``C * w`` for ``msg_weight`` messages.

        Like :meth:`value_cost`, accepts fractional and delta weights.
        """
        return self.per_message * msg_weight

    def weighted_message_cost(self, msg_weight: float, total_values: float) -> float:
        """``C*w + a*x``: :meth:`message_cost` generalized to fractional
        message weights and value volumes.

        This is the one place the two model parameters combine; all
        cost arithmetic outside this module must go through these
        methods (``tests/test_source_conventions.py`` enforces it).
        """
        return self.per_message * msg_weight + self.per_value * total_values

    def values_within_budget(self, budget: float) -> float:
        """Largest value volume one message can carry without its cost
        exceeding ``budget`` (may be negative when the budget cannot
        even cover the per-message overhead)."""
        return (budget - self.per_message) / self.per_value

    def star_root_cost(self, n_children: int) -> float:
        """Receive-side cost at a star root with ``n_children`` senders
        of one value each.

        This is the Fig. 2 micro-experiment in closed form: cost grows
        linearly in the *number of messages*, not merely total payload.
        """
        if n_children < 0:
            raise ValueError(f"n_children must be >= 0, got {n_children}")
        return n_children * self.message_cost(1)
