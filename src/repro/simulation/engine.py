"""The monitoring simulation engine.

Runs a :class:`~repro.core.plan.MonitoringPlan` over discrete
collection periods of one unit of time each, on a
:class:`~repro.runtime.engine.MonitoringRuntime` that it builds but
never runs: at each scheduled instant it calls that runtime's own
:class:`~repro.runtime.agent.NodeAgent` and
:class:`~repro.runtime.collector.CollectorAgent` steps, so every
per-period rule -- budgets, relay buffers, charges, shed readings,
drops, scores, the down-node rule -- is the runtime's, recorded under
the runtime's metric names, and
:meth:`MonitoringSimulation.run` returns a
:class:`~repro.runtime.report.RuntimeReport`.  What is its own is the
schedule.  Within each period:

1. ground-truth metric values advance (one unit of time) and every
   agent and the collector open the period (``begin``);
2. every live member node of every tree shapes and sends one batch
   (:meth:`NodeAgent.shape`), phased bottom-up: a node at depth ``d``
   of a height-``H`` tree sends at ``(H - d) * HOP_LATENCY`` after the
   period start, so children's batches arrive (half a hop later)
   before the parent merges and forwards;
3. the receiver charges each batch against its budget and keeps it
   for relay or in the collector's view (:meth:`NodeAgent.accept`,
   :meth:`CollectorAgent.accept`);
4. at the period deadline the collector scores its view against the
   ground truth (:meth:`CollectorAgent.score`).

A reading is stamped with the period it was sampled in, as in the
runtime.  Deep trees whose bottom-up wave ``(H+1) * HOP_LATENCY``
spills past the period deadline deliver one period late -- the
latency-induced staleness that makes bushier trees more accurate in
Fig. 8.

Events sit on one heap of ``(time, seq, action)``, so same-time events
fire in scheduling order: trees in plan order, members in tree order.
Same-time sends and arrivals compete for one budget, and that order
decides which batch sheds readings or is dropped.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from functools import partial
from typing import Callable, List, Optional, Tuple

from repro.cluster.metrics import MetricRegistry
from repro.cluster.node import Cluster
from repro.core.plan import MonitoringPlan
from repro.obs import names, trace
from repro.runtime.agent import NodeAgent, TreeRole
from repro.runtime.config import RuntimeConfig
from repro.runtime.engine import MonitoringRuntime, run_report
from repro.runtime.messages import Batch
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.report import RuntimeReport
from repro.simulation.failures import FailureInjector

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
        self.failures = failures if failures is not None else FailureInjector()
        #: The agents, collector, ground truth and metrics hub it drives.
        self.runtime = MonitoringRuntime(
            plan,
            cluster,
            registry=registry,
            config=RuntimeConfig(seed=seed, outages=self.failures.node_outages),
            metrics=metrics,
        )
        agents = self.runtime.agents
        role_of = {
            (node, role.layout.attr_set): role
            for node, agent in agents.items()
            for role in agent.roles
        }
        #: Every period's senders in scheduling order.
        self._senders: List[Tuple[NodeAgent, TreeRole]] = [
            (agents[node], role_of[node, attr_set])
            for attr_set, result in plan.trees.items()
            for node in result.tree.nodes
        ]
        self._events: List[Tuple[float, int, Callable[[float], None]]] = []
        self._seq = itertools.count()

    # ------------------------------------------------------------------
    def run(self, n_periods: int) -> RuntimeReport:
        """Run ``n_periods`` collection periods and return the report."""
        if n_periods <= 0:
            raise ValueError(f"n_periods must be > 0, got {n_periods}")
        started = time.monotonic()
        hop_latency = HOP_LATENCY
        collector = self.runtime.collector
        for k in range(n_periods):
            with trace.span(names.SPAN_SIMULATION_PERIOD, lane=names.LANE_SIMULATOR, period=k):
                t0 = float(k)
                self._schedule(t0, partial(self._begin_period, k))
                for agent, role in self._senders:
                    phase = (role.height - role.depth) * hop_latency
                    self._schedule(t0 + phase, partial(self._send, agent, role, k))
                deadline = t0 + 1.0 - 1e-9
                self._schedule(deadline, lambda _now, k=k: collector.score(k))
                self._fire_until(deadline)
        # Drain any stragglers scheduled past the last deadline so late
        # arrivals are at least accounted in message statistics.
        self._fire_until(math.inf)
        return run_report(self.plan, n_periods, collector, self.runtime.metrics, started)

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
    def _begin_period(self, period: int, _now: float) -> None:
        self.runtime.registry.advance_all()
        for agent in self.runtime.agents.values():
            agent.begin(period)
        self.runtime.collector.begin(period)

    def _send(self, agent: NodeAgent, role: TreeRole, period: int, now: float) -> None:
        if agent.down(period):
            return  # a dead agent sends nothing
        # Stamped with the period it is sampled in: a wave that spills
        # past the deadline samples, and is fresh in, the next one.
        batch, _ = agent.shape(role, float(math.floor(now)))
        if not batch.count:
            return
        if self.failures.link_down(agent.node_id, role.layout.attr_set, now):
            self.runtime.metrics.incr(names.MESSAGES_DROPPED_FAILURE, node=agent.node_id)
            return
        arrival = now + 0.5 * HOP_LATENCY
        self._schedule(arrival, partial(self._arrive, role, batch))

    def _arrive(self, role: TreeRole, batch: Batch, _now: float) -> None:
        if role.parent is not None:
            self.runtime.agents[role.parent].accept(role.tree, batch)
            return
        collector = self.runtime.collector
        columns = collector.state.columns(role.tree, batch)
        assert columns is not None  # a root's batch spans its own tree
        collector.accept(columns, batch)
