"""Wire envelopes exchanged between runtime agents, and the slot layout
their update batches are written in.

Everything an agent can find in its inbox is an :class:`Envelope`:

- :class:`TickEnvelope` -- the engine's period-start broadcast (the
  runtime's clock distribution; a later socket transport would replace
  this with per-node timers plus NTP-style sync);
- :class:`UpdateEnvelope` -- a :class:`Batch` of attribute readings
  travelling one hop up a monitoring tree;
- :class:`HeartbeatEnvelope` -- the liveness signal the collector's
  failure detector consumes;
- :class:`StopEnvelope` -- orderly shutdown.

The plan fixes, before the first tick, which pairs every node
contributes and relays in every tree, so an update never names them:
a :class:`TreeLayout` gives each collected pair of a tree a dense
*slot*, and a :class:`Batch` is a run of consecutive slots as two
columns of doubles -- the values and the periods they were sampled in
(the two fields of a :class:`~repro.runtime.collector.Reading`).  Its
capacity charge is computed through the same
:class:`~repro.core.cost.CostModel`, and a sender short on budget
shapes it with :func:`trim` -- in the live agents and in the
discrete-event simulator alike.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.attributes import NodeAttributePair, NodeId
from repro.core.cost import CostModel
from repro.core.partition import AttributeSet
from repro.obs.trace import TraceContext

#: The stamp of a slot that holds no reading (periods count from 0).
ABSENT = -1.0
_EPS = 1e-9


@dataclass(frozen=True)
class TreeLayout:
    """The slots of one collection tree, fixed by the plan.

    Slots run in preorder -- a node's own pairs (by attribute), then
    its children's subtrees (by node id) -- so every subtree is one
    contiguous range and a relay places a child's batch with one slice
    assignment.
    """

    #: Position in ``compile_layouts(plan)``; what an update's ``tree`` names.
    tree: int
    attr_set: AttributeSet
    #: Slot -> the pair it carries.
    pairs: Tuple[NodeAttributePair, ...]
    #: Member node -> ``(first slot, slot count)`` of its subtree.
    ranges: Dict[NodeId, Tuple[int, int]] = field(repr=False)


@dataclass
class Batch:
    """Slots ``lo .. lo + len(stamps)`` of one tree, as two columns.

    ``stamps[i]`` is the period slot ``lo + i`` was sampled in, or
    :data:`ABSENT` for a hole (a trimmed value, a child that stayed
    silent).  ``count`` is the number of readings present -- the
    ``x`` of every ``C + a*x`` charge, whatever the span -- and is
    counted from the stamps when not given.
    """

    lo: int
    values: "array[float]"
    stamps: "array[float]"
    count: int = -1

    def __post_init__(self) -> None:
        if self.count < 0:
            self.count = len(self.stamps) - self.stamps.count(ABSENT)


#: A value column and a stamp column over the same slots.
Columns = Tuple["array[float]", "array[float]"]


def blank_columns(size: int) -> Columns:
    """Value and stamp columns of ``size`` slots, every one a hole."""
    return array("d", bytes(8 * size)), array("d", (ABSENT,)) * size


def fold(values: "array[float]", stamps: "array[float]", base: int, batch: Batch) -> None:
    """Fold ``batch`` into columns whose first slot is ``base``: slot by
    slot the fresher reading stays, and on equal stamps the incoming one
    wins.  The batch must lie inside the columns."""
    at = batch.lo - base
    incoming = batch.values
    for index, stamp in enumerate(batch.stamps):
        if stamp != ABSENT and stamp >= stamps[at + index]:
            stamps[at + index] = stamp
            values[at + index] = incoming[index]


def gather(lo: int, size: int, batches: Sequence[Batch]) -> Columns:
    """Columns for slots ``lo .. lo + size`` holding what :func:`fold`
    of each batch in turn (arrival order) would build, at C speed when
    no slot arrives twice.

    Children of one tree report disjoint ranges, so the usual union is
    one slice assignment per batch -- no per-slot Python -- and the
    count proves it exact: as many readings present as went in, so none
    displaced another.  A short count means some slot repeats (a late
    period) and the later arrival won whatever its age; only then is
    the union redone slot by slot.  The batches must lie inside the
    range and are never written to.
    """
    values, stamps = blank_columns(size)
    expected = 0
    for batch in batches:
        at = batch.lo - lo
        values[at : at + len(batch.values)] = batch.values
        stamps[at : at + len(batch.stamps)] = batch.stamps
        expected += batch.count
    if size - stamps.count(ABSENT) != expected:
        values, stamps = blank_columns(size)
        for batch in batches:
            fold(values, stamps, lo, batch)
    return values, stamps


def trim(batch: Batch, order: List[int], cost: CostModel, budget: float) -> Optional[int]:
    """Shape ``batch`` (edited in place) to what ``budget`` can send:
    the first readings it affords in pair order stay, the rest are
    shed.  ``order`` lists the batch's slot offsets in pair order.

    Returns how many readings were shed, or ``None`` when the budget
    cannot cover even the per-message overhead and nothing may go out.
    """
    affordable = int(cost.values_within_budget(budget) + _EPS)
    if affordable <= 0:
        return None
    if affordable >= batch.count:
        return 0
    stamps = batch.stamps
    present = [offset for offset in order if stamps[offset] != ABSENT]
    for offset in present[affordable:]:
        stamps[offset] = ABSENT
    batch.count = affordable
    return len(present) - affordable


#: Address of the central collector on any transport.  With sharded
#: collectors this is shard 0's address; see
#: :func:`collector_shard_address`.
COLLECTOR_ADDRESS: NodeId = -1

#: Collector shard addresses occupy ``-1 .. -(MAX_COLLECTOR_SHARDS)``;
#: the cap keeps them clear of the deploy control addresses, which
#: start at ``-1000`` (``repro.net.deploy.CONTROL_ADDRESS_BASE``).
MAX_COLLECTOR_SHARDS = 998


def check_collector_count(collectors: int) -> None:
    """Refuse a collector-shard count the address range cannot hold
    (``ValueError``); every entry point that takes one asks here."""
    if not 1 <= collectors <= MAX_COLLECTOR_SHARDS:
        raise ValueError(
            f"collectors must be in [1, {MAX_COLLECTOR_SHARDS}], got {collectors}"
        )


def collector_shard_address(shard: int) -> NodeId:
    """Transport address of collector shard ``shard`` (shard 0 == -1)."""
    if not 0 <= shard < MAX_COLLECTOR_SHARDS:
        raise ValueError(
            f"collector shard must be in [0, {MAX_COLLECTOR_SHARDS}), got {shard}"
        )
    return COLLECTOR_ADDRESS - shard


@dataclass(frozen=True)
class Envelope:
    """Base class for everything a transport can carry."""


@dataclass(frozen=True)
class TickEnvelope(Envelope):
    """Period ``period`` starts now.

    ``sent_monotonic`` anchors wall-clock latency measurement: the
    collector reports collection latency as arrival time minus the
    tick's send time.

    ``trace_ctx`` carries the period's distributed-trace identity (the
    clock owner mints one trace per period): agents that adopt it make
    one monitoring period one trace across every process.  Excluded
    from equality so pre-tracing round-trip expectations still hold.
    """

    period: int
    sent_monotonic: float = field(default_factory=time.monotonic)
    trace_ctx: Optional[TraceContext] = field(
        default=None, compare=False, repr=False
    )


@dataclass(frozen=True)
class UpdateEnvelope(Envelope):
    """A batched monitoring update for one tree, one hop.

    ``trace_ctx`` points at the sending agent's wave span so the
    receiver (parent agent or collector, possibly across TCP) can emit
    events linked into the same per-period trace.
    """

    sender: NodeId
    #: The tree's :attr:`TreeLayout.tree` index.
    tree: int
    period: int
    payload: Batch
    trace_ctx: Optional[TraceContext] = field(
        default=None, compare=False, repr=False
    )

    def cost(self, model: CostModel) -> float:
        """Capacity charge on each endpoint (the ``C + a*x`` model)."""
        return model.message_cost(self.payload.count)


@dataclass(frozen=True)
class HeartbeatEnvelope(Envelope):
    """Liveness beacon from ``sender`` during ``period``."""

    sender: NodeId
    period: int


@dataclass(frozen=True)
class StopEnvelope(Envelope):
    """Drain and exit."""
