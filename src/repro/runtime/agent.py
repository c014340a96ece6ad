"""The per-node monitoring agent.

One :class:`NodeAgent` runs per cluster node that participates in any
collection tree.  Each agent owns one inbox on the transport and plays
one :class:`TreeRole` per tree it belongs to: sample the local
node-attribute pairs, merge whatever child updates have arrived, and
forward one batched message per tree per period -- bottom-up, so the
wave converges toward the root the same way the simulator schedules it.

The agent is a state machine driven from its one inbox coroutine; no
task exists per role or per period.  A tick beacons, opens a
*missing-children set* for every interior role and emits every role
whose set is empty; a child's update is checked against the slots the
plan gives that child, charged and buffered, leaves that one tree's
set, and emits the role the moment the set empties.
The child-wait deadline rides on the ``recv`` timeout the loop pays
anyway; its expiry, or the next tick, flushes whoever still waits.
(Not timer-phased like the simulator: under a real event loop an
overdue timer can fire before the inbox coroutine that would have
delivered a child's queued batch.)  Sends are awaited inline: a peer
link at its queue bound stalls this node's inbox until it drains --
node-level backpressure -- and nobody else's.

Resource-awareness is enforced live: every send and receive is charged
``C + a*x`` against the node's per-period budget, always.  An agent
that cannot afford its whole payload trims it by the rule the
simulator uses too (:func:`~repro.runtime.messages.trim`): the
readings the budget affords go in ``(node, attribute)`` order and the
rest are shed; one that cannot cover even the per-message overhead
sends nothing.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple

from repro.cluster.metrics import MetricRegistry
from repro.core.attributes import NodeAttributePair, NodeId
from repro.core.cost import CostModel
from repro.obs import names, trace
from repro.runtime.config import RuntimeConfig
from repro.runtime.messages import (
    COLLECTOR_ADDRESS,
    Batch,
    HeartbeatEnvelope,
    StopEnvelope,
    TickEnvelope,
    TreeLayout,
    UpdateEnvelope,
    gather,
    trim,
)
from repro.runtime.metrics import Histogram, RuntimeMetrics
from repro.runtime.transport import Transport

_EPS = 1e-9


@dataclass(frozen=True)
class TreeRole:
    """This node's position in one collection tree."""

    #: The tree's index (what updates name it by) and its slots.
    tree: int
    layout: TreeLayout = field(repr=False)
    parent: Optional[NodeId]
    children: Tuple[NodeId, ...]
    #: The node's own pairs: the first slots of its range.
    local_pairs: Tuple[NodeAttributePair, ...]
    depth: int
    height: int
    #: The node's subtree is slots ``lo .. lo + size``.
    lo: int
    size: int
    #: ``(lo, size)`` of each child's subtree, aligned with ``children``.
    child_ranges: Tuple[Tuple[int, int], ...]
    #: Stable short id (``t0``, ``t1``, ...) labeling this tree's
    #: metric series and trace spans; assigned by the engine.
    tree_id: str = ""
    #: Address of the collector shard this tree reports to.
    collector: NodeId = COLLECTOR_ADDRESS

    @property
    def receiver(self) -> NodeId:
        """Where this node's batch goes: parent, or the tree's collector."""
        return self.parent if self.parent is not None else self.collector

    @cached_property
    def pair_order(self) -> List[int]:
        """The subtree's slot offsets in pair order (what :func:`trim` keeps)."""
        pairs = self.layout.pairs[self.lo : self.lo + self.size]
        return sorted(range(self.size), key=pairs.__getitem__)


@dataclass
class _OpenWave:
    """An interior role that has ticked but not yet sent."""

    role: TreeRole
    period: int
    #: Children that have not reported ``period`` (or later) yet.
    missing: Set[NodeId]
    #: The tick's trace context and ``perf_counter``, for the spans.
    ctx: Optional[trace.TraceContext]
    started: float


class NodeAgent:
    """A concurrent monitoring agent for one node."""

    def __init__(
        self,
        node_id: NodeId,
        capacity: float,
        roles: List[TreeRole],
        cost: CostModel,
        registry: MetricRegistry,
        transport: Transport,
        metrics: RuntimeMetrics,
        config: RuntimeConfig,
    ) -> None:
        self.node_id = node_id
        self.capacity = capacity
        self.roles = list(roles)
        self.cost = cost
        self.registry = registry
        self.transport = transport
        self.metrics = metrics
        self.config = config
        self._budget = capacity
        self._current_period = -1
        #: Child batches pending relay, per tree, in arrival order
        #: (never written to).
        self._buffers: Dict[int, List[Batch]] = {}
        #: Latest period each child has reported, per tree.
        self._children_seen: Dict[int, Dict[NodeId, int]] = {r.tree: {} for r in self.roles}
        #: The slots ``lo .. hi`` each child may report, by (tree, child):
        #: an update from anyone else, or outside them, is refused.
        self._child_slots: Dict[Tuple[int, NodeId], Tuple[int, int]] = {
            (r.tree, child): (lo, lo + size)
            for r in self.roles
            for child, (lo, size) in zip(r.children, r.child_ranges)
        }
        #: Each role's local pairs, bound to their generators once.
        self._samplers = {r.tree: registry.reader(r.local_pairs) for r in self.roles}
        #: Roles waiting on children, per tree, and the monotonic time
        #: at which they stop waiting.
        self._waiting: Dict[int, _OpenWave] = {}
        self._deadline = 0.0
        # With sharded collectors, each shard runs its own failure
        # detector over the nodes in its trees -- beacon every shard
        # this node reports to (the single-collector case sends one).
        self._collectors = sorted({r.collector for r in self.roles}) or [COLLECTOR_ADDRESS]
        #: Trace-viewer row for this agent's spans.
        self._lane = names.node_lane(node_id)
        # The per-envelope counters, keyed once (the last by tree).
        self._count_delivered = metrics.bind_counter(names.MESSAGES_DELIVERED, node=node_id)
        self._count_cost = metrics.bind_counter(names.COST_UNITS_SPENT, node=node_id)
        self._count_heartbeats = metrics.bind_counter(names.HEARTBEATS_SENT, node=node_id)
        self._count_sent = {
            r.tree: metrics.bind_counter(names.MESSAGES_SENT, node=node_id, tree=r.tree_id)
            for r in self.roles
        }

    @cached_property
    def _payload_values(self) -> Histogram:
        # Created by the first emit: an idle agent exports no empty series.
        return self.metrics.histogram(names.PAYLOAD_VALUES)

    # ------------------------------------------------------------------
    def busy(self) -> bool:
        """Whether any role is still waiting on its children."""
        return bool(self._waiting)

    def down(self, period: int) -> bool:
        """Whether this node is scripted dead during ``period``."""
        return self.config.node_down(self.node_id, period)

    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Inbox loop: react to ticks, updates, the wait deadline, stop.

        An idle agent parks on its inbox with no timeout; only while a
        role waits on children does ``recv`` time out, at the deadline.
        """
        while True:
            timeout: Optional[float] = None
            if self._waiting:
                timeout = self._deadline - time.monotonic()
                if timeout <= 0:
                    await self._flush()
                    continue
            envelope = await self.transport.recv(self.node_id, timeout=timeout)
            if envelope is None:
                continue  # the deadline passed; the next pass flushes
            if isinstance(envelope, UpdateEnvelope):
                await self._on_update(envelope)
            elif isinstance(envelope, TickEnvelope):
                # Whoever still waits belongs to the period that just
                # ended: it sends that batch before the new one opens.
                await self._flush()
                await self._on_tick(envelope)
            elif isinstance(envelope, StopEnvelope):
                await self._flush()
                break

    # ------------------------------------------------------------------
    # Inbox reactions
    # ------------------------------------------------------------------
    async def _on_tick(self, tick: TickEnvelope) -> None:
        period = self._current_period = tick.period
        self._budget = self.capacity
        if self.down(period):
            self.metrics.incr(names.AGENT_DOWN_PERIODS, node=self.node_id)
            return
        started = time.perf_counter()
        self._deadline = time.monotonic() + self.config.child_wait_seconds
        ready = []
        for role in self.roles:
            # A child's update may beat the tick across processes.
            seen = self._children_seen[role.tree]
            missing = {c for c in role.children if seen.get(c, -1) < period}
            if missing:
                self._waiting[role.tree] = _OpenWave(
                    role, period, missing, tick.trace_ctx, started
                )
            else:
                ready.append(role)
        # Adopt the tick's trace context: every wave records its spans
        # inside the period's trace with the (possibly remote) period
        # root span as parent.
        with trace.attach(tick.trace_ctx):
            beacon = HeartbeatEnvelope(sender=self.node_id, period=period)
            for collector in self._collectors:
                await self.transport.send(collector, beacon)
                self._count_heartbeats.add()
            for role in ready:
                await self._emit(role, period, started)

    async def _on_update(self, envelope: UpdateEnvelope) -> None:
        tree, sender, period = envelope.tree, envelope.sender, envelope.period
        batch = envelope.payload
        slots = self._child_slots.get((tree, sender))
        if slots is None or batch.lo < slots[0] or batch.lo + len(batch.stamps) > slots[1]:
            # Not this node's tree, not its child, or not that child's
            # slots: refused before it costs budget or memory.
            self.metrics.incr(names.MESSAGES_DROPPED_INVALID, node=self.node_id)
            return
        if envelope.trace_ctx is not None and trace.active_tracer() is not None:
            # Linked to the sender's wave span: the reverse-direction
            # cross-process edge in a merged trace.
            with trace.attach(envelope.trace_ctx):
                trace.event(names.EVENT_AGENT_RECV, lane=self._lane, sender=sender, period=period)
        if self.down(self._current_period):
            self.metrics.incr(names.MESSAGES_DROPPED_FAILURE, node=self.node_id)
            return
        # The child reported, whether or not its batch is affordable --
        # record that first so a capacity drop cannot stall the wave.
        seen = self._children_seen[tree]
        seen[sender] = max(seen.get(sender, -1), period)
        charge = envelope.cost(self.cost)
        if self._budget < charge - _EPS:
            self.metrics.incr(names.MESSAGES_DROPPED_CAPACITY, node=self.node_id)
        else:
            self._budget -= charge
            self._buffers.setdefault(tree, []).append(batch)
            self._count_delivered.add()
            self._count_cost.add(charge)
        wave = self._waiting.get(tree)
        if wave is not None and period >= wave.period:
            wave.missing.discard(sender)
            if not wave.missing:
                del self._waiting[tree]
                await self._close(wave)

    async def _flush(self) -> None:
        """Stop waiting: every open wave sends what it has."""
        stragglers, self._waiting = self._waiting, {}
        for wave in stragglers.values():
            self.metrics.incr(names.CHILD_WAIT_TIMEOUTS, node=self.node_id)
            await self._close(wave)

    async def _close(self, wave: _OpenWave) -> None:
        with trace.attach(wave.ctx):
            await self._emit(wave.role, wave.period, wave.started, waited=True)

    # ------------------------------------------------------------------
    # Per-period work
    # ------------------------------------------------------------------
    async def _emit(
        self, role: TreeRole, period: int, started: float, waited: bool = False
    ) -> None:
        """Sample, batch, shape to the budget and send one tree's update.

        Recorded once the role is ready, the spans still run from the
        tick (``started``) to the send.
        """
        attrs = {"tree": role.tree_id, "period": period}
        with trace.span_since(names.SPAN_AGENT_WAVE, started, lane=self._lane, **attrs) as wave:
            if waited:
                with trace.span_since(
                    names.SPAN_AGENT_CHILD_WAIT, started, lane=self._lane, **attrs
                ):
                    pass
            # Children first (disjoint ranges: a slice each), then this
            # node's own pairs, sampled now.
            values, stamps = gather(role.lo, role.size, self._buffers.pop(role.tree, ()))
            local = len(role.local_pairs)
            values[:local] = array("d", self._samplers[role.tree]())
            stamps[:local] = array("d", (float(period),)) * local
            batch = Batch(role.lo, values, stamps)
            if not batch.count:
                wave.set(outcome="empty")
                return
            if not self._trim_to_budget(role, batch):
                wave.set(outcome="shaped_out", offered=batch.count)
                return
            charge = self.cost.message_cost(batch.count)
            self._budget -= charge
            self._count_sent[role.tree].add()
            self._count_cost.add(charge)
            self._payload_values.observe(batch.count)
            wave.set(outcome="sent", values=batch.count)
            update = UpdateEnvelope(self.node_id, role.tree, period, batch, wave.context())
            await self.transport.send(role.receiver, update)

    def _trim_to_budget(self, role: TreeRole, batch: Batch) -> bool:
        """Trim ``batch`` (this emit's own) to the remaining budget.

        Returns whether anything goes out: ``False`` when the budget
        cannot cover even the per-message overhead.
        """
        shed = trim(batch, role.pair_order, self.cost, self._budget)
        if shed is None:
            self.metrics.incr(names.MESSAGES_DROPPED_CAPACITY, node=self.node_id)
            return False
        if shed:
            self.metrics.incr(names.VALUES_TRIMMED, shed, node=self.node_id)
        return True
