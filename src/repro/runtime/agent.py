"""The per-node monitoring agent.

One :class:`NodeAgent` runs per cluster node that participates in any
collection tree.  Each agent owns one inbox on the transport and plays
one :class:`TreeRole` per tree it belongs to: sample the local
node-attribute pairs, merge whatever child updates have arrived, and
forward one batched message per tree per period -- phased bottom-up
(deeper nodes send earlier) so the wave converges toward the root the
same way the simulator schedules it.

Resource-awareness is enforced live: every send and receive is charged
``C + a*x`` against the node's per-period budget, and an agent that
cannot afford its payload applies the configured
:class:`~repro.runtime.config.DropPolicy` -- trim values, drop the
message, or defer the overflow to the next period (backpressure).
"""

# The bottom-up wave is event-driven rather than timer-phased: an
# interior node sends the moment every child has reported this period,
# falling back to the ``child_wait`` deadline when one is dead or
# dropped.  Timer phasing (the simulator's approach) is fragile under a
# real event loop -- an overdue timer can fire before the inbox
# coroutine that would have delivered a child's already-queued batch.

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Coroutine, Dict, List, Optional, Set, Tuple

from repro.cluster.metrics import MetricRegistry
from repro.core.attributes import NodeAttributePair, NodeId
from repro.core.cost import CostModel
from repro.core.partition import AttributeSet
from repro.obs import names, trace
from repro.runtime.config import DropPolicy, RuntimeConfig
from repro.runtime.messages import (
    COLLECTOR_ADDRESS,
    Envelope,
    HeartbeatEnvelope,
    StopEnvelope,
    TickEnvelope,
    UpdateEnvelope,
)
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.transport import Transport
from repro.simulation.messages import Reading

_EPS = 1e-9


@dataclass(frozen=True)
class TreeRole:
    """This node's position in one collection tree."""

    attr_set: AttributeSet
    parent: Optional[NodeId]
    children: Tuple[NodeId, ...]
    local_pairs: Tuple[NodeAttributePair, ...]
    depth: int
    height: int
    #: Stable short id (``t0``, ``t1``, ...) labeling this tree's
    #: metric series and trace spans; assigned by the engine.
    tree_id: str = ""
    #: Address of the collector shard this tree reports to.
    collector: NodeId = COLLECTOR_ADDRESS

    @property
    def receiver(self) -> NodeId:
        """Where this node's batch goes: parent, or the tree's collector."""
        return self.parent if self.parent is not None else self.collector


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
        #: Child readings (and deferred overflow) pending relay, per tree.
        self._buffers: Dict[AttributeSet, Dict[NodeAttributePair, Reading]] = {}
        #: Latest period each child has reported, per tree.
        self._children_seen: Dict[AttributeSet, Dict[NodeId, int]] = {}
        #: Last period each pair made it into a sent batch, per tree
        #: (DEFER fairness: least-recently-sent pairs go first).
        self._last_sent: Dict[AttributeSet, Dict[NodeAttributePair, int]] = {}
        #: Signalled whenever a child update lands.
        self._update_event: Optional["asyncio.Event"] = None
        self._period_tasks: Set["asyncio.Task[None]"] = set()
        #: Trace-viewer row for this agent's spans.
        self._lane = names.node_lane(node_id)

    # ------------------------------------------------------------------
    def busy(self) -> bool:
        """Whether any per-period send task is still outstanding."""
        return any(not task.done() for task in self._period_tasks)

    def down(self, period: int) -> bool:
        """Whether this node is scripted dead during ``period``."""
        return self.config.node_down(self.node_id, period)

    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Inbox loop: react to ticks, updates, and stop."""
        self._update_event = asyncio.Event()
        try:
            while True:
                envelope = await self.transport.recv(
                    self.node_id, timeout=self.config.recv_timeout_seconds
                )
                if envelope is None:
                    continue  # recv timed out; re-check the inbox
                if isinstance(envelope, StopEnvelope):
                    break
                if isinstance(envelope, TickEnvelope):
                    self._on_tick(envelope)
                elif isinstance(envelope, UpdateEnvelope):
                    self._on_update(envelope)
        finally:
            await self._retire_period_tasks()

    async def _retire_period_tasks(self) -> None:
        # Snapshot and clear BEFORE awaiting: nothing spawns once the
        # run loop has exited, and clearing first means a task that
        # finishes during the gather cannot be lost from the set's
        # read-modify-write (REMO421).
        pending = [task for task in self._period_tasks if not task.done()]
        self._period_tasks.clear()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    # ------------------------------------------------------------------
    # Inbox reactions
    # ------------------------------------------------------------------
    def _on_tick(self, tick: TickEnvelope) -> None:
        self._current_period = tick.period
        self._budget = self.capacity
        self._period_tasks = {task for task in self._period_tasks if not task.done()}
        if self.down(tick.period):
            self.metrics.incr(names.AGENT_DOWN_PERIODS, node=self.node_id)
            return
        # Adopt the tick's trace context while spawning: asyncio tasks
        # snapshot contextvars at creation, so every wave spawned here
        # records spans inside the period's trace with the (possibly
        # remote) period root span as parent.
        with trace.attach(tick.trace_ctx):
            if tick.period % self.config.heartbeat_every == 0:
                self._spawn(self._send_heartbeat(tick.period))
            for role in self.roles:
                self._spawn(self._send_update(role, tick.period))

    def _on_update(self, envelope: UpdateEnvelope) -> None:
        if envelope.trace_ctx is not None and trace.active_tracer() is not None:
            # Linked to the sender's wave span: the reverse-direction
            # cross-process edge in a merged trace.
            with trace.attach(envelope.trace_ctx):
                trace.event(
                    names.EVENT_AGENT_RECV,
                    lane=self._lane,
                    sender=envelope.sender,
                    period=envelope.period,
                )
        if self.down(self._current_period):
            self.metrics.incr(names.MESSAGES_DROPPED_FAILURE, node=self.node_id)
            return
        # The child reported, whether or not its batch is affordable --
        # record that first so a capacity drop cannot stall the wave.
        seen = self._children_seen.setdefault(envelope.tree, {})
        seen[envelope.sender] = max(seen.get(envelope.sender, -1), envelope.period)
        if self._update_event is not None:
            self._update_event.set()
        charge = envelope.cost(self.cost)
        if self.config.enforce_capacity:
            if self._budget < charge - _EPS:
                self.metrics.incr(names.MESSAGES_DROPPED_CAPACITY, node=self.node_id)
                return
            self._budget -= charge
        envelope.merge_into(self._buffers.setdefault(envelope.tree, {}))
        self.metrics.incr(names.MESSAGES_DELIVERED, node=self.node_id)
        self.metrics.incr(names.COST_UNITS_SPENT, charge, node=self.node_id)

    # ------------------------------------------------------------------
    # Per-period work
    # ------------------------------------------------------------------
    def _spawn(self, coro: Coroutine[object, object, None]) -> None:
        task = asyncio.ensure_future(coro)
        self._period_tasks.add(task)

    async def _send_heartbeat(self, period: int) -> None:
        # With sharded collectors, each shard runs its own failure
        # detector over the nodes in its trees -- beacon every shard
        # this node reports to (the single-collector case sends one).
        collectors = sorted({role.collector for role in self.roles}) or [
            COLLECTOR_ADDRESS
        ]
        for collector in collectors:
            await self.transport.send(
                collector, HeartbeatEnvelope(sender=self.node_id, period=period)
            )
            self.metrics.incr(names.HEARTBEATS_SENT, node=self.node_id)

    async def _send_update(self, role: TreeRole, period: int) -> None:
        with trace.span(
            names.SPAN_AGENT_WAVE, lane=self._lane, tree=role.tree_id, period=period
        ) as wave:
            await self._await_children(role, period)
            payload: Dict[NodeAttributePair, Reading] = {}
            buffered = self._buffers.pop(role.attr_set, None)
            if buffered:
                payload.update(buffered)
            for pair in role.local_pairs:
                payload[pair] = Reading(
                    self.registry.value(pair), sampled_at=float(period)
                )
            if not payload:
                wave.set(outcome="empty")
                return
            shaped = self._apply_budget(role, payload, period)
            if shaped is None:
                wave.set(outcome="shaped_out", offered=len(payload))
                return
            charge = self.cost.message_cost(len(shaped))
            if self.config.enforce_capacity:
                self._budget -= charge
            self.metrics.incr(names.MESSAGES_SENT, node=self.node_id, tree=role.tree_id)
            self.metrics.incr(names.COST_UNITS_SPENT, charge, node=self.node_id)
            self.metrics.observe(names.PAYLOAD_VALUES, len(shaped))
            wave.set(outcome="sent", values=len(shaped))
            await self.transport.send(
                role.receiver,
                UpdateEnvelope(
                    sender=self.node_id,
                    tree=role.attr_set,
                    period=period,
                    payload=shaped,
                    trace_ctx=wave.context(),
                ),
            )

    def _children_ready(self, role: TreeRole, period: int) -> bool:
        seen = self._children_seen.get(role.attr_set, {})
        return all(seen.get(child, -1) >= period for child in role.children)

    async def _await_children(self, role: TreeRole, period: int) -> None:
        """Block until every child has reported ``period``'s batch for
        this tree, or the child-wait deadline passes."""
        if not role.children:
            return
        with trace.span(
            names.SPAN_AGENT_CHILD_WAIT, lane=self._lane, tree=role.tree_id, period=period
        ):
            deadline = time.monotonic() + self.config.child_wait_seconds
            while not self._children_ready(role, period):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._update_event is None:
                    self.metrics.incr(names.CHILD_WAIT_TIMEOUTS, node=self.node_id)
                    return
                self._update_event.clear()
                if self._children_ready(role, period):
                    return
                try:
                    # asyncio.timeout, not wait_for: see MailboxTransport.recv.
                    async with asyncio.timeout(remaining):
                        await self._update_event.wait()
                except TimeoutError:
                    self.metrics.incr(names.CHILD_WAIT_TIMEOUTS, node=self.node_id)
                    return

    def _apply_budget(
        self, role: TreeRole, payload: Dict[NodeAttributePair, Reading], period: int
    ) -> Optional[Dict[NodeAttributePair, Reading]]:
        """Shape ``payload`` to the remaining budget per the drop policy.

        Returns the payload to send, or ``None`` when nothing goes out
        this period.
        """
        if not self.config.enforce_capacity:
            return payload
        policy = self.config.drop_policy
        if policy is DropPolicy.DROP:
            if self._budget < self.cost.message_cost(len(payload)) - _EPS:
                self.metrics.incr(names.MESSAGES_DROPPED_CAPACITY, node=self.node_id)
                return None
            return payload
        affordable = int(self.cost.values_within_budget(self._budget) + _EPS)
        if affordable <= 0:
            # Cannot even cover the per-message overhead.
            if policy is DropPolicy.DEFER:
                self._defer(role, payload)
            else:
                self.metrics.incr(names.MESSAGES_DROPPED_CAPACITY, node=self.node_id)
            return None
        if affordable >= len(payload):
            return payload
        if policy is DropPolicy.DEFER:
            # Fairness under sustained overload: least-recently-sent
            # pairs first, then oldest readings.  Pure recency (or a
            # fixed pair order) permanently starves the same pairs,
            # because every pair is refreshed each period.
            last_sent = self._last_sent.setdefault(role.attr_set, {})
            ordered = sorted(
                payload,
                key=lambda pair: (last_sent.get(pair, -1), payload[pair].sampled_at, pair),
            )
        else:
            ordered = sorted(payload)
        keep = ordered[:affordable]
        overflow = {pair: payload[pair] for pair in ordered[affordable:]}
        if policy is DropPolicy.DEFER:
            last_sent = self._last_sent.setdefault(role.attr_set, {})
            for pair in keep:
                last_sent[pair] = period
            self._defer(role, overflow)
        else:
            self.metrics.incr(names.VALUES_TRIMMED, len(overflow), node=self.node_id)
        return {pair: payload[pair] for pair in keep}

    def _defer(self, role: TreeRole, overflow: Dict[NodeAttributePair, Reading]) -> None:
        """Backpressure: carry unaffordable readings to the next period."""
        buffer = self._buffers.setdefault(role.attr_set, {})
        for pair, reading in overflow.items():
            existing = buffer.get(pair)
            if existing is None or reading.sampled_at >= existing.sampled_at:
                buffer[pair] = reading
        self.metrics.incr(names.VALUES_DEFERRED, len(overflow), node=self.node_id)
