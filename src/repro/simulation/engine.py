"""The monitoring simulation engine.

Runs a :class:`~repro.core.plan.MonitoringPlan` over discrete
collection periods of one unit of time each, on the runtime's plan
model: the slots and roles every runtime process derives
(:func:`~repro.runtime.engine.compile_layouts`,
:func:`~repro.runtime.engine.build_roles`),
:class:`~repro.runtime.messages.Batch` payloads shaped by the runtime's
:func:`~repro.runtime.messages.trim`, and a collector side of
:class:`~repro.runtime.collector.CollectedColumns` scored by
:func:`~repro.runtime.collector.score_period`.  It reports like the
runtime too: its tallies go to a
:class:`~repro.runtime.metrics.RuntimeMetrics` under the runtime's
metric names, and :meth:`MonitoringSimulation.run` returns a
:class:`~repro.runtime.report.RuntimeReport`.  What is its own is the
schedule.  Within each period:

1. ground-truth metric values advance (one unit of time);
2. every member node of every tree sends one batch, phased bottom-up:
   a node at depth ``d`` of a height-``H`` tree sends at
   ``(H - d) * HOP_LATENCY`` after the period start, so children's
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
Deep trees whose bottom-up wave ``(H+1) * HOP_LATENCY`` spills past
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
import time
from array import array
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.metrics import MetricRegistry
from repro.cluster.node import Cluster
from repro.core.attributes import NodeId
from repro.core.plan import MonitoringPlan
from repro.obs import names, trace
from repro.runtime.agent import TreeRole
from repro.runtime.collector import CollectedColumns, score_period
from repro.runtime.engine import build_roles, compile_layouts, ground_truth
from repro.runtime.messages import COLLECTOR_ADDRESS, Batch, fold, gather, trim
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.report import RuntimePeriodSample, RuntimeReport
from repro.simulation.failures import FailureInjector

_EPS = 1e-9

#: One hop's latency, in periods.  Not a knob: it is what makes depth
#: cost accuracy (Fig. 8) -- a tree 50 or more levels tall delivers a
#: period late -- so every figure and pin is measured at this value.
HOP_LATENCY = 0.02


class MonitoringSimulation:
    """Discrete-event execution of one monitoring plan."""

    def __init__(
        self,
        plan: MonitoringPlan,
        cluster: Cluster,
        registry: Optional[MetricRegistry] = None,
        seed: Optional[int] = None,
        failures: Optional[FailureInjector] = None,
        metrics: Optional[RuntimeMetrics] = None,
    ) -> None:
        self.plan = plan
        self.cluster = cluster
        self.failures = failures if failures is not None else FailureInjector()
        self.registry = (
            registry if registry is not None else ground_truth(plan, seed)
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

        self.metrics = metrics if metrics is not None else RuntimeMetrics()
        # Unlabelled: the report reads label-collapsed totals.
        self._count_sent = self.metrics.bind_counter(names.MESSAGES_SENT)
        self._count_delivered = self.metrics.bind_counter(names.MESSAGES_DELIVERED)
        self._count_capacity = self.metrics.bind_counter(names.MESSAGES_DROPPED_CAPACITY)
        self._count_failure = self.metrics.bind_counter(names.MESSAGES_DROPPED_FAILURE)
        self._count_trimmed = self.metrics.bind_counter(names.VALUES_TRIMMED)
        self._count_cost = self.metrics.bind_counter(names.COST_UNITS_SPENT)
        self._samples: List[RuntimePeriodSample] = []
        self._events: List[Tuple[float, int, Callable[[float], None]]] = []
        self._seq = itertools.count()
        self._budget: Dict[NodeId, float] = {}
        self._central_budget = 0.0
        #: Relay buffers: batches received per (node, tree), in arrival order.
        self._buffers: Dict[Tuple[NodeId, int], List[Batch]] = {}

    # ------------------------------------------------------------------
    def run(self, n_periods: int) -> RuntimeReport:
        """Run ``n_periods`` collection periods and return the report."""
        if n_periods <= 0:
            raise ValueError(f"n_periods must be > 0, got {n_periods}")
        started = time.monotonic()
        hop_latency = HOP_LATENCY
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
        return RuntimeReport(
            requested_pairs=len(self.plan.pairs),
            n_periods=n_periods,
            samples=list(self._samples),
            metrics=self.metrics,
            wall_seconds=time.monotonic() - started,
        )

    def _schedule(self, time: float, action: Callable[[float], None]) -> None:
        heapq.heappush(self._events, (time, next(self._seq), action))

    def _fire_until(self, deadline: float) -> None:
        events = self._events
        while events and events[0][0] <= deadline + 1e-12:
            time, _, action = heapq.heappop(events)
            action(time)

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
        shed = trim(batch, role.pair_order, self.plan.cost, self._budget.get(node, 0.0))
        if shed is None:
            self._count_capacity.add()
            return
        if shed:
            self._count_trimmed.add(shed)
        cost = self.plan.cost.message_cost(batch.count)
        self._budget[node] = self._budget.get(node, 0.0) - cost
        self._count_sent.add()
        self._count_cost.add(cost)
        receiver = role.receiver
        if self.failures.blocks(node, receiver, role.layout.attr_set, now):
            self._count_failure.add()
            return
        arrival = now + 0.5 * HOP_LATENCY
        self._schedule(arrival, partial(self._arrive, receiver, role.tree, batch))

    def _arrive(self, receiver: NodeId, tree: int, batch: Batch, _now: float) -> None:
        cost = self.plan.cost.message_cost(batch.count)
        if receiver == COLLECTOR_ADDRESS:
            if self._central_budget < cost - _EPS:
                self._count_capacity.add()
                return
            self._central_budget -= cost
            columns = self._collected.columns(tree, batch)
            assert columns is not None  # a root's batch spans its own tree
            fold(columns[0], columns[1], 0, batch)
        else:
            budget = self._budget.get(receiver, 0.0)
            if budget < cost - _EPS:
                self._count_capacity.add()
                return
            self._budget[receiver] = budget - cost
            self._buffers.setdefault((receiver, tree), []).append(batch)
        self._count_delivered.add()
        self._count_cost.add(cost)

    def _measure(self, period: int, _now: float) -> None:
        sample, _ = score_period(period, self._truths(), self._cells)
        self._samples.append(sample)
