"""Wire envelopes exchanged between runtime agents.

Everything an agent can find in its inbox is an :class:`Envelope`:

- :class:`TickEnvelope` -- the engine's period-start broadcast (the
  runtime's clock distribution; a later socket transport would replace
  this with per-node timers plus NTP-style sync);
- :class:`UpdateEnvelope` -- a batch of attribute readings travelling
  one hop up a monitoring tree;
- :class:`HeartbeatEnvelope` -- the liveness signal the collector's
  failure detector consumes;
- :class:`StopEnvelope` -- orderly shutdown.

Updates reuse the simulator's :class:`~repro.simulation.messages.Reading`
value type, and their capacity charge is computed through the same
:class:`~repro.core.cost.CostModel` -- one cost model, two execution
engines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.core.attributes import NodeAttributePair, NodeId
from repro.core.cost import CostModel
from repro.core.partition import AttributeSet
from repro.obs.trace import TraceContext
from repro.simulation.messages import Reading

#: What an update carries, and what an agent buffers for relay.
Payload = Dict[NodeAttributePair, Reading]

#: Address of the central collector on any transport.  With sharded
#: collectors this is shard 0's address; see
#: :func:`collector_shard_address`.
COLLECTOR_ADDRESS: NodeId = -1

#: Collector shard addresses occupy ``-1 .. -(MAX_COLLECTOR_SHARDS)``;
#: the cap keeps them clear of the deploy control addresses, which
#: start at ``-1000`` (``repro.net.deploy.CONTROL_ADDRESS_BASE``).
MAX_COLLECTOR_SHARDS = 998


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
    tree: AttributeSet
    period: int
    payload: Payload
    trace_ctx: Optional[TraceContext] = field(
        default=None, compare=False, repr=False
    )

    def cost(self, model: CostModel) -> float:
        """Capacity charge on each endpoint (the ``C + a*x`` model)."""
        return model.message_cost(len(self.payload))

    def merge_into(self, buffer: Payload) -> None:
        """Fold readings into a relay buffer, keeping the freshest."""
        merge_freshest(buffer, self.payload)


def merge_freshest(buffer: Payload, payload: Payload) -> None:
    """Fold ``payload`` into ``buffer`` pair by pair: the fresher reading
    stays, and on equal ``sampled_at`` the incoming one wins."""
    for pair, reading in payload.items():
        existing = buffer.get(pair)
        if existing is None or reading.sampled_at >= existing.sampled_at:
            buffer[pair] = reading


def union_payloads(payloads: Sequence[Payload]) -> Payload:
    """What :func:`merge_freshest` of each payload in turn (arrival
    order) would build, at C speed when no pair arrives twice.

    Children of one tree report disjoint pairs, so the usual union is a
    ``dict`` copy plus ``dict.update`` -- stored hashes, no per-pair
    Python -- and the key count proves it exact: every key went in
    once, so no reading displaced another.  A short count means some
    pair repeats (a DEFER leftover, a late period) and ``update`` let
    the later arrival win whatever its age; only then is the union
    redone pair by pair.  The inputs are never written to.
    """
    merged = dict(payloads[0])
    expected = len(merged)
    for payload in payloads[1:]:
        merged.update(payload)
        expected += len(payload)
    if len(merged) != expected:
        merged = dict(payloads[0])
        for payload in payloads[1:]:
            merge_freshest(merged, payload)
    return merged


@dataclass(frozen=True)
class HeartbeatEnvelope(Envelope):
    """Liveness beacon from ``sender`` during ``period``."""

    sender: NodeId
    period: int


@dataclass(frozen=True)
class StopEnvelope(Envelope):
    """Drain and exit."""
