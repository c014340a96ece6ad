"""The per-node monitoring agent.

One :class:`NodeAgent` runs per cluster node that participates in any
collection tree.  Each agent owns one inbox on the transport and plays
one :class:`TreeRole` per tree it belongs to: sample the local
node-attribute pairs, merge whatever child updates have arrived, and
forward one batched message per tree per period -- bottom-up, so the
wave converges toward the root the same way the simulator schedules it.

The agent is a state machine driven from its one inbox coroutine; no
task exists per role or per period.  A tick opens a *missing-children
set* for every interior role and emits every role whose set is empty;
a child's update is checked against the slots the plan gives that
child, charged and buffered, leaves that one tree's set, and emits the
role the moment the set empties.  Each waiting role has a child-wait
deadline of its own, earlier the deeper the role, so relays stop
waiting bottom-up and a silent node costs only its parent's wait.  The
earliest rides on the ``recv`` timeout the loop pays anyway; its
expiry flushes the waves due, the next tick every one.  (Not
timer-phased like the simulator: under a real event loop an overdue
timer can fire before the inbox coroutine that would have delivered a
child's queued batch.)  Sends are awaited inline: a peer link at its
queue bound stalls this node's inbox until it drains -- node-level
backpressure -- and nobody else's.

Resource-awareness is enforced live: every send and receive is charged
``C + a*x`` against the node's per-period budget, always, by three
synchronous steps that the inbox reactions call and the simulator
calls on its own schedule: :meth:`NodeAgent.begin` opens a period,
:meth:`~NodeAgent.accept` charges and buffers a child's batch, and
:meth:`~NodeAgent.shape` builds, trims and charges the node's own.  An
agent that cannot afford its whole payload trims it
(:func:`~repro.runtime.messages.trim`): the readings the budget affords
go in ``(node, attribute)`` order and the rest are shed; one that
cannot cover even the per-message overhead sends no reading.  A dead
node sends nothing and loses what it is sent.  A role left with
nothing sends an empty update all the same, uncharged: a relay stops
waiting on a child once it has reported, the collector closes a period
once every root has, and the children a relay stopped waiting for ride
up, uncharged, in its update's ``silent`` ids to the failure detector.
"""

from __future__ import annotations

import asyncio
import math
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

    @property
    def receiver(self) -> NodeId:
        """Where this node's batch goes: parent, or the collector."""
        return self.parent if self.parent is not None else COLLECTOR_ADDRESS

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
    #: Loop time at which the role stops waiting and sends without them.
    deadline: float
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
        self.transport = transport
        self.metrics = metrics
        self.config = config
        self._budget = capacity
        #: Whether the node is scripted dead in the period it is in.
        self._dead = False
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
        self._advance_to = registry.advance_to
        #: Roles waiting on children, per tree.
        self._waiting: Dict[int, _OpenWave] = {}
        #: Members the children's updates named silent, by (tree, period).
        self._silent_below: Dict[Tuple[int, int], Set[NodeId]] = {}
        #: Trace-viewer row for this agent's spans.
        self._lane = names.node_lane(node_id)
        # The per-envelope counters, keyed once (the last by tree).
        self._count_delivered = metrics.bind_counter(names.MESSAGES_DELIVERED, node=node_id)
        self._count_cost = metrics.bind_counter(names.COST_UNITS_SPENT, node=node_id)
        self._count_sent = {
            r.tree: metrics.bind_counter(names.MESSAGES_SENT, node=node_id, tree=r.tree_id)
            for r in self.roles
        }

    @cached_property
    def _payload_values(self) -> Histogram:
        # Created by the first batch sent: an idle agent exports no
        # empty series.
        return self.metrics.histogram(names.PAYLOAD_VALUES)

    # ------------------------------------------------------------------
    def down(self, period: int) -> bool:
        """Whether this node is scripted dead during ``period``."""
        return self.config.node_down(self.node_id, period)

    # The period's rules, one synchronous step each: the inbox loop
    # below and the simulator's schedule both drive them.
    def begin(self, period: int) -> bool:
        """Open ``period`` with a fresh budget ``b_i``; ``False`` when
        this node is down in it, and so sends nothing."""
        self._budget = self.capacity
        self._dead = self.down(period)
        if self._dead:
            self.metrics.incr(names.AGENT_DOWN_PERIODS, node=self.node_id)
            return False
        return True

    def accept(self, tree: int, batch: Batch) -> bool:
        """Charge a child's batch for ``tree`` and buffer it for relay;
        ``False`` when this node is down and the batch is lost.  An empty
        batch is uncharged, and one the budget cannot afford is dropped."""
        if self._dead:
            if batch.count:  # an empty batch was never counted as sent
                self.metrics.incr(names.MESSAGES_DROPPED_FAILURE, node=self.node_id)
            return False
        if not batch.count:
            return True  # a child with nothing to send, saying so
        charge = self.cost.message_cost(batch.count)
        if self._budget < charge - _EPS:
            self.metrics.incr(names.MESSAGES_DROPPED_CAPACITY, node=self.node_id)
        else:
            self._budget -= charge
            self._buffers.setdefault(tree, []).append(batch)
            self._count_delivered.add()
            self._count_cost.add(charge)
        return True

    def shape(self, role: TreeRole, stamp: float) -> Tuple[Batch, int]:
        """``role``'s batch: the buffered children's slices, then this
        node's own pairs sampled now and stamped ``stamp``, trimmed to the
        budget and charged.  Returns it -- empty when there is nothing, or
        the budget cannot cover even the per-message overhead -- and how
        many readings were offered."""
        values, stamps = gather(role.lo, role.size, self._buffers.pop(role.tree, ()))
        local = len(role.local_pairs)
        values[:local] = array("d", self._samplers[role.tree]())
        stamps[:local] = array("d", (stamp,)) * local
        batch = Batch(role.lo, values, stamps)
        offered = batch.count
        shed = trim(batch, role.pair_order, self.cost, self._budget) if offered else None
        if shed is None:
            if offered:
                self.metrics.incr(names.MESSAGES_DROPPED_CAPACITY, node=self.node_id)
            return Batch(role.lo, array("d"), array("d")), offered
        if shed:
            self.metrics.incr(names.VALUES_TRIMMED, shed, node=self.node_id)
        charge = self.cost.message_cost(batch.count)
        self._budget -= charge
        self._count_sent[role.tree].add()
        self._count_cost.add(charge)
        self._payload_values.observe(batch.count)
        return batch, offered

    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Inbox loop: react to ticks, updates, the wait deadline, stop.

        An idle agent parks on its inbox with no timeout; only while a
        role waits on children does ``recv`` time out, at the earliest
        deadline.  What is already queued is taken first, even past a
        deadline: a child's update that arrived while this loop was
        held up (a busy host) still counts.
        """
        loop = asyncio.get_running_loop()
        while True:
            timeout: Optional[float] = None
            if self._waiting:
                timeout = min(wave.deadline for wave in self._waiting.values()) - loop.time()
            envelope = await self.transport.recv(self.node_id, timeout=timeout)
            if envelope is None:  # the earliest deadline passed (its timer may fire a tick early)
                await self._flush(min(wave.deadline for wave in self._waiting.values()))
                continue
            if isinstance(envelope, UpdateEnvelope):
                await self._on_update(envelope)
            elif isinstance(envelope, TickEnvelope):
                # The ground truth moves to the tick's period (a no-op
                # where the clock advanced it already); whoever still
                # waits belongs to the period that just ended and sends
                # that batch, sampled now, before the new one opens.
                self._advance_to(envelope.period)
                await self._flush()
                await self._on_tick(envelope)
            elif isinstance(envelope, StopEnvelope):
                await self._flush()
                break

    # ------------------------------------------------------------------
    # Inbox reactions
    # ------------------------------------------------------------------
    async def _on_tick(self, tick: TickEnvelope) -> None:
        period = tick.period
        if not self.begin(period):
            return
        started = time.perf_counter()
        received = asyncio.get_running_loop().time()
        ready = []
        for role in self.roles:
            # A child's update may beat the tick across processes.
            seen = self._children_seen[role.tree]
            missing = {c for c in role.children if seen.get(c, -1) < period}
            if missing:
                # The root waits it all, each level down 1 / (2 (H + 1)) less.
                share = 1.0 - role.depth / (2 * (role.height + 1))
                deadline = received + self.config.child_wait_seconds * share
                self._waiting[role.tree] = _OpenWave(
                    role, period, missing, deadline, tick.trace_ctx, started
                )
            else:
                ready.append(role)
        # Earlier waves are sent: what was named silent for them is late.
        for stale in [key for key in self._silent_below if key[1] < period]:
            del self._silent_below[stale]
        # Adopt the tick's trace context: every wave records its spans
        # inside the period's trace with the (possibly remote) period
        # root span as parent.
        with trace.attach(tick.trace_ctx):
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
        if not self.accept(tree, batch):
            return
        if envelope.silent:
            self._silent_below.setdefault((tree, period), set()).update(envelope.silent)
        # The child reported, whether or not its batch was affordable:
        # a capacity drop must not stall the wave.
        seen = self._children_seen[tree]
        seen[sender] = max(seen.get(sender, -1), period)
        wave = self._waiting.get(tree)
        if wave is not None and period >= wave.period:
            wave.missing.discard(sender)
            if not wave.missing:
                del self._waiting[tree]
                await self._close(wave)

    async def _flush(self, now: float = math.inf) -> None:
        """Stop waiting: every open wave due by ``now`` sends what it has."""
        due = [wave for wave in self._waiting.values() if wave.deadline <= now]
        for wave in due:
            del self._waiting[wave.role.tree]
            self.metrics.incr(names.CHILD_WAIT_TIMEOUTS, node=self.node_id)
            await self._close(wave)

    async def _close(self, wave: _OpenWave) -> None:
        with trace.attach(wave.ctx):
            await self._emit(wave.role, wave.period, wave.started, wave.missing)

    # ------------------------------------------------------------------
    # Per-period work
    # ------------------------------------------------------------------
    async def _emit(
        self, role: TreeRole, period: int, started: float, missing: Optional[Set[NodeId]] = None
    ) -> None:
        """Shape one tree's update and send it (:meth:`_send`), inside its
        wave span when tracing.  ``missing`` is ``None`` for a role that
        did not wait, else the children it stopped waiting for.

        Recorded once the role is ready, the spans still run from the
        tick (``started``) to the send.
        """
        if trace.active_tracer() is None:
            await self._send(role, period, None, missing or set())
            return
        attrs = {"tree": role.tree_id, "period": period}
        with trace.span_since(names.SPAN_AGENT_WAVE, started, lane=self._lane, **attrs) as wave:
            if missing is not None:
                with trace.span_since(
                    names.SPAN_AGENT_CHILD_WAIT, started, lane=self._lane, **attrs
                ):
                    pass
            batch, offered = await self._send(role, period, wave.context(), missing or set())
            if batch.count:
                wave.set(outcome="sent", values=batch.count)
            else:
                wave.set(outcome="shaped_out" if offered else "empty", offered=offered)

    async def _send(
        self, role: TreeRole, period: int, ctx: Optional[trace.TraceContext], missing: Set[NodeId]
    ) -> Tuple[Batch, int]:
        """:meth:`shape` ``role``'s batch and send it, stamped with the
        wave's trace context ``ctx`` and naming as silent the ``missing``
        children and whom the children named for ``period``; returns
        what :meth:`shape` did.

        An empty batch is sent all the same: the receiver waits on this
        role each period, so it says there is nothing -- no reading, so
        no charge.
        """
        batch, offered = self.shape(role, float(period))
        silent = tuple(sorted(missing.union(self._silent_below.pop((role.tree, period), ()))))
        update = UpdateEnvelope(self.node_id, role.tree, period, batch, ctx, silent)
        await self.transport.send(role.receiver, update)
        return batch, offered
