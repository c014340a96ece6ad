"""The monitoring simulation engine.

Runs a :class:`~repro.core.plan.MonitoringPlan` over discrete
collection periods of one unit of time each, on the runtime's plan
model: the slots and roles every runtime process derives
(:func:`~repro.runtime.engine.compile_layouts`,
:func:`~repro.runtime.engine.build_roles`),
:class:`~repro.runtime.messages.Batch` payloads shaped by the runtime's
:func:`~repro.runtime.messages.trim`, and a collector side of
:class:`~repro.runtime.collector.CollectedColumns` scored by
:func:`~repro.runtime.collector.score_period`.  What is its own is the
schedule.  Within each period:

1. ground-truth metric values advance (one unit of time);
2. every member node of every tree sends one batch, phased bottom-up:
   a node at depth ``d`` of a height-``H`` tree sends at
   ``(H - d) * hop_latency`` after the period start, so children's
   batches arrive (half a hop later) before the parent merges and
   forwards;
3. each batch costs ``C + a*x`` against the sender's and receiver's
   per-period budget: a sender short on budget trims values, one that
   cannot cover the overhead sends nothing, and a receiver that cannot
   afford a batch drops it whole (this is the overload behaviour the
   paper's resource-awareness exists to avoid);
4. at the period deadline the collector's view is scored against the
   ground truth (percentage error, freshness).

A reading is stamped with the simulated time it was sampled at, which
counts in periods, so a stamp means what it means in the runtime.
Deep trees whose bottom-up wave ``(H+1) * hop_latency`` spills past
the period deadline deliver one period late -- the latency-induced
staleness that makes bushier trees more accurate in Fig. 8.

Events sit on one heap of ``(time, seq, action)``, so same-time events
fire in scheduling order: trees in plan order, members in tree order.
Same-time sends and arrivals compete for one budget, and that order
decides which batch is trimmed or dropped.
"""

from __future__ import annotations

import heapq
import itertools
import math
from array import array
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.metrics import MetricRegistry
from repro.cluster.node import Cluster
from repro.core.attributes import NodeId
from repro.core.plan import MonitoringPlan
from repro.obs import names, trace
from repro.obs.metrics import default_registry
from repro.runtime.agent import TreeRole
from repro.runtime.collector import CollectedColumns, score_period
from repro.runtime.engine import build_roles, compile_layouts, ground_truth
from repro.runtime.messages import COLLECTOR_ADDRESS, Batch, fold, gather, trim
from repro.simulation.collection import CollectionStats
from repro.simulation.failures import FailureInjector

_EPS = 1e-9


@dataclass
class SimulationConfig:
    """Tunable knobs of one simulation run."""

    hop_latency: float = 0.02
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.hop_latency <= 0:
            raise ValueError(f"hop_latency must be > 0, got {self.hop_latency}")


class MonitoringSimulation:
    """Discrete-event execution of one monitoring plan."""

    def __init__(
        self,
        plan: MonitoringPlan,
        cluster: Cluster,
        registry: Optional[MetricRegistry] = None,
        config: Optional[SimulationConfig] = None,
        failures: Optional[FailureInjector] = None,
    ) -> None:
        self.plan = plan
        self.cluster = cluster
        self.config = config if config is not None else SimulationConfig()
        self.failures = failures if failures is not None else FailureInjector()
        self.registry = (
            registry if registry is not None else ground_truth(plan, self.config.seed)
        )
        requested = sorted(plan.pairs)
        for pair in requested:
            self.registry.ensure(pair)

        layouts = compile_layouts(plan)
        role_of = {
            (node, role.layout.attr_set): role
            for node, roles in build_roles(plan, layouts).items()
            for role in roles
        }
        #: Every period's senders in scheduling order, each with its
        #: role and its local pairs' sampler.
        self._senders: List[Tuple[NodeId, TreeRole, Callable[[], List[float]]]] = []
        for attr_set, result in plan.trees.items():
            for node in result.tree.nodes:
                role = role_of[node, attr_set]
                self._senders.append((node, role, self.registry.reader(role.local_pairs)))
        self._collected = CollectedColumns(layouts)
        self._cells = [self._collected.cell(pair) for pair in requested]
        self._truths = self.registry.reader(requested)

        self.stats = CollectionStats(requested_pairs=len(requested))
        #: Registry-mirrored counter values as of the last ``run`` end.
        self._mirrored: Dict[str, float] = {}
        self._events: List[Tuple[float, int, Callable[[float], None]]] = []
        self._seq = itertools.count()
        self._budget: Dict[NodeId, float] = {}
        self._central_budget = 0.0
        #: Relay buffers: batches received per (node, tree), in arrival order.
        self._buffers: Dict[Tuple[NodeId, int], List[Batch]] = {}

    # ------------------------------------------------------------------
    def run(self, n_periods: int) -> CollectionStats:
        """Run ``n_periods`` collection periods and return the stats."""
        if n_periods <= 0:
            raise ValueError(f"n_periods must be > 0, got {n_periods}")
        hop_latency = self.config.hop_latency
        for k in range(n_periods):
            with trace.span(names.SPAN_SIMULATION_PERIOD, lane=names.LANE_SIMULATOR, period=k):
                t0 = float(k)
                self._schedule(t0, self._begin_period)
                for node, role, sample in self._senders:
                    phase = (role.height - role.depth) * hop_latency
                    self._schedule(t0 + phase, partial(self._send, node, role, sample))
                deadline = t0 + 1.0 - 1e-9
                self._schedule(deadline, partial(self._measure, k))
                self._fire_until(deadline)
        # Drain any stragglers scheduled past the last deadline so late
        # arrivals are at least accounted in message statistics.
        self._fire_until(math.inf)
        self._mirror_stats()
        return self.stats

    def _schedule(self, time: float, action: Callable[[float], None]) -> None:
        heapq.heappush(self._events, (time, next(self._seq), action))

    def _fire_until(self, deadline: float) -> None:
        events = self._events
        while events and events[0][0] <= deadline + 1e-12:
            time, _, action = heapq.heappop(events)
            action(time)

    def _mirror_stats(self) -> None:
        """Mirror :class:`CollectionStats` tallies into the ambient
        metrics registry so ``--metrics`` snapshots cover simulation
        runs too.  Deltas since the last mirror, so repeated ``run``
        calls on one simulation do not double-count."""
        registry = default_registry()
        tallies = {
            names.SIM_MESSAGES_SENT: float(self.stats.messages_sent),
            names.SIM_MESSAGES_DELIVERED: float(self.stats.messages_delivered),
            names.SIM_MESSAGES_DROPPED_CAPACITY: float(
                self.stats.messages_dropped_capacity
            ),
            names.SIM_MESSAGES_DROPPED_FAILURE: float(self.stats.messages_dropped_failure),
            names.SIM_VALUES_TRIMMED: float(self.stats.values_trimmed),
            names.SIM_COST_UNITS_SPENT: float(self.stats.cost_units_spent),
            names.SIM_PERIODS: float(len(self.stats.periods)),
        }
        for name, total in tallies.items():
            delta = total - self._mirrored.get(name, 0.0)
            if delta:
                registry.incr(name, delta)
            self._mirrored[name] = total

    # ------------------------------------------------------------------
    # Event actions
    # ------------------------------------------------------------------
    def _begin_period(self, _now: float) -> None:
        self.registry.advance_all()
        self._budget = {node.node_id: node.capacity for node in self.cluster}
        self._central_budget = self.cluster.central_capacity

    def _send(
        self, node: NodeId, role: TreeRole, sample: Callable[[], List[float]], now: float
    ) -> None:
        # Buffered child batches first, then this node's own pairs,
        # sampled now.
        values, stamps = gather(role.lo, role.size, self._buffers.pop((node, role.tree), ()))
        local = len(role.local_pairs)
        values[:local] = array("d", sample())
        stamps[:local] = array("d", (now,)) * local
        batch = Batch(role.lo, values, stamps)
        if not batch.count:
            return
        stats = self.stats
        shed = trim(batch, role.pair_order, self.plan.cost, self._budget.get(node, 0.0))
        if shed is None:
            stats.messages_dropped_capacity += 1
            return
        stats.values_trimmed += shed
        cost = self.plan.cost.message_cost(batch.count)
        self._budget[node] = self._budget.get(node, 0.0) - cost
        stats.messages_sent += 1
        stats.cost_units_spent += cost
        receiver = role.receiver
        if self.failures.blocks(node, receiver, role.layout.attr_set, now):
            stats.messages_dropped_failure += 1
            return
        arrival = now + 0.5 * self.config.hop_latency
        self._schedule(arrival, partial(self._arrive, receiver, role.tree, batch))

    def _arrive(self, receiver: NodeId, tree: int, batch: Batch, _now: float) -> None:
        cost = self.plan.cost.message_cost(batch.count)
        if receiver == COLLECTOR_ADDRESS:
            if self._central_budget < cost - _EPS:
                self.stats.messages_dropped_capacity += 1
                return
            self._central_budget -= cost
            columns = self._collected.columns(tree, batch)
            assert columns is not None  # a root's batch spans its own tree
            fold(columns[0], columns[1], 0, batch)
        else:
            budget = self._budget.get(receiver, 0.0)
            if budget < cost - _EPS:
                self.stats.messages_dropped_capacity += 1
                return
            self._budget[receiver] = budget - cost
            self._buffers.setdefault((receiver, tree), []).append(batch)
        self.stats.messages_delivered += 1
        self.stats.cost_units_spent += cost

    def _measure(self, period: int, _now: float) -> None:
        sample, _ = score_period(period, self._truths(), self._cells)
        self.stats.periods.append(sample)
