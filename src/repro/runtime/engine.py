"""The runtime engine: plan in, concurrent agents out.

:class:`MonitoringRuntime` instantiates a
:class:`~repro.core.plan.MonitoringPlan` as live asyncio tasks -- one
:class:`~repro.runtime.agent.NodeAgent` per participating node plus
one :class:`~repro.runtime.collector.CollectorAgent` -- wired over a
:class:`~repro.runtime.transport.Transport`, then paces collection
periods in wall-clock time:

1. advance the ground-truth metric registry (one unit of time);
2. broadcast a :class:`~repro.runtime.messages.TickEnvelope`;
3. sleep the period window while agents sample, batch, and relay;
4. settle in-flight messages, then have the collector score the
   period and run its failure detector.

The same plan and :class:`~repro.cluster.metrics.MetricRegistry` seed
produce matching collected-pair coverage in
:class:`~repro.simulation.engine.MonitoringSimulation` -- the parity
test in ``tests/test_runtime_parity.py`` holds the two engines to
within five percentage points of each other.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.metrics import MetricRegistry
from repro.cluster.node import Cluster
from repro.core.attributes import NodeAttributePair, NodeId
from repro.core.partition import AttributeSet
from repro.core.plan import MonitoringPlan, ShardedPlan
from repro.obs import names, trace
from repro.runtime.agent import NodeAgent, TreeRole
from repro.runtime.collector import CollectorAgent, FailureEvent
from repro.runtime.config import RuntimeConfig
from repro.runtime.messages import (
    COLLECTOR_ADDRESS,
    Envelope,
    StopEnvelope,
    TickEnvelope,
    TreeLayout,
    collector_shard_address,
)
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.report import RuntimePeriodSample, RuntimeReport
from repro.runtime.transport import InProcessTransport, Transport


def compile_layouts(plan: MonitoringPlan) -> List[TreeLayout]:
    """One :class:`TreeLayout` per tree, in sorted attribute-set order.

    A function of the plan alone, like :func:`build_roles`: the engine,
    every deploy worker and the collector process each derive it and
    agree on every slot without exchanging a byte.
    """
    layouts = []
    ordered_trees = sorted(plan.trees.items(), key=lambda kv: sorted(kv[0]))
    for index, (attr_set, result) in enumerate(ordered_trees):
        tree = result.tree
        pairs: List[NodeAttributePair] = []
        ranges: Dict[NodeId, Tuple[int, int]] = {}
        # Preorder, children by id; a node's range closes when the walk
        # comes back to it after its last child.
        stack = [(tree.root, False)] if tree.root is not None else []
        while stack:
            node, done = stack.pop()
            if done:
                ranges[node] = (ranges[node][0], len(pairs) - ranges[node][0])
                continue
            ranges[node] = (len(pairs), 0)
            pairs.extend(NodeAttributePair(node, attr) for attr in sorted(tree.local_demand(node)))
            stack.append((node, True))
            stack.extend((child, False) for child in sorted(tree.children(node), reverse=True))
        layouts.append(TreeLayout(index, attr_set, tuple(pairs), ranges))
    return layouts


def build_roles(
    plan: MonitoringPlan,
    layouts: Sequence[TreeLayout],
    collector_of: Optional[Mapping[AttributeSet, NodeId]] = None,
) -> Dict[NodeId, List[TreeRole]]:
    """One :class:`TreeRole` per (member node, tree) of the plan, over
    ``layouts = compile_layouts(plan)``.

    Trees get stable short ids (``t0``, ``t1``, ... in sorted
    attribute-set order) so metric labels and trace spans can name a
    tree without serializing its attribute set.  Module-level because
    ``repro deploy`` workers need the identical role table without
    constructing an engine: the derivation is deterministic, so every
    process that holds the same plan agrees on every role.

    ``collector_of`` maps each partition set to the transport address
    of the collector shard its tree reports to (defaulting every tree
    to the single central :data:`COLLECTOR_ADDRESS`).
    """
    roles: Dict[NodeId, List[TreeRole]] = {}
    for layout in layouts:
        tree = plan.trees[layout.attr_set].tree
        height = tree.height()
        collector = (
            collector_of.get(layout.attr_set, COLLECTOR_ADDRESS)
            if collector_of is not None
            else COLLECTOR_ADDRESS
        )
        for node, (lo, size) in layout.ranges.items():
            children = tuple(sorted(tree.children(node)))
            roles.setdefault(node, []).append(
                TreeRole(
                    tree=layout.tree,
                    layout=layout,
                    parent=tree.parent(node),
                    children=children,
                    local_pairs=layout.pairs[lo : lo + len(tree.local_demand(node))],
                    depth=tree.depth(node),
                    height=height,
                    lo=lo,
                    size=size,
                    child_ranges=tuple(layout.ranges[child] for child in children),
                    tree_id=f"t{layout.tree}",
                    collector=collector,
                )
            )
    return roles


def collector_addresses(sharded: ShardedPlan) -> Dict[AttributeSet, NodeId]:
    """Partition-set -> collector-shard transport address for a sharded plan."""
    return {
        attr_set: collector_shard_address(shard)
        for attr_set, shard in sharded.assignment.items()
    }


def merge_period_samples(
    period: int, weighted: Sequence[Tuple[int, RuntimePeriodSample]]
) -> RuntimePeriodSample:
    """Fold per-shard period scores into one cluster-wide sample.

    Each shard scores only its own requested pairs, so the merged
    fractions are the pair-count-weighted averages -- identical to what
    a single collector scoring the full pair set would report.
    """
    total = sum(weight for weight, _ in weighted)
    if total == 0:
        return RuntimePeriodSample(period, 0.0, 1.0, 1.0)
    return RuntimePeriodSample(
        period=period,
        mean_error=sum(w * s.mean_error for w, s in weighted) / total,
        fresh_fraction=sum(w * s.fresh_fraction for w, s in weighted) / total,
        received_fraction=sum(w * s.received_fraction for w, s in weighted) / total,
    )


class MonitoringRuntime:
    """Live execution of one monitoring plan."""

    def __init__(
        self,
        plan: MonitoringPlan,
        cluster: Cluster,
        registry: Optional[MetricRegistry] = None,
        config: Optional[RuntimeConfig] = None,
        transport: Optional[Transport] = None,
        metrics: Optional[RuntimeMetrics] = None,
        sharded: Optional[ShardedPlan] = None,
    ) -> None:
        if sharded is not None and sharded.plan is not plan:
            raise ValueError("sharded.plan must be the runtime's plan")
        self.plan = plan
        self.sharded = sharded
        self.cluster = cluster
        self.config = config if config is not None else RuntimeConfig()
        self.transport = transport if transport is not None else InProcessTransport()
        self.metrics = metrics if metrics is not None else RuntimeMetrics()
        # One registry for agent and transport counters: the transport
        # health row (envelopes, frames, reconnects) lands in the same
        # report whichever Transport implementation is plugged in.
        self.transport.bind_metrics(self.metrics)
        self.registry = (
            registry
            if registry is not None
            else MetricRegistry(plan.pairs, seed=self.config.seed)
        )
        for pair in plan.pairs:
            self.registry.ensure(pair)

        collector_of = collector_addresses(sharded) if sharded is not None else None
        layouts = compile_layouts(plan)
        roles = build_roles(plan, layouts, collector_of)
        self.agents: Dict[NodeId, NodeAgent] = {
            node: NodeAgent(
                node_id=node,
                capacity=cluster.capacity(node),
                roles=node_roles,
                cost=plan.cost,
                registry=self.registry,
                transport=self.transport,
                metrics=self.metrics,
                config=self.config,
            )
            for node, node_roles in sorted(roles.items())
        }
        #: One collector agent per shard, keyed by transport address
        #: (a single agent at COLLECTOR_ADDRESS when unsharded).
        self.collectors: Dict[NodeId, CollectorAgent] = {}
        #: Pair-count weight per shard address, for score merging.
        self._shard_weights: Dict[NodeId, int] = {}
        if sharded is None:
            shard_specs = [(COLLECTOR_ADDRESS, sorted(plan.pairs), layouts, list(self.agents))]
        else:
            shard_specs = [
                (
                    collector_shard_address(shard),
                    sorted(sharded.pairs_for(shard)),
                    [lay for lay in layouts if sharded.shard_of(lay.attr_set) == shard],
                    [n for n in sharded.nodes_for(shard) if n in self.agents],
                )
                for shard in range(sharded.shards)
            ]
        for address, requested, reporting, expected in shard_specs:
            self.collectors[address] = CollectorAgent(
                requested_pairs=requested,
                layouts=reporting,
                expected_nodes=expected,
                central_capacity=cluster.central_capacity,
                cost=plan.cost,
                registry=self.registry,
                transport=self.transport,
                metrics=self.metrics,
                config=self.config,
                address=address,
            )
            self._shard_weights[address] = len(requested)
        #: The shard-0 agent; the single collector when unsharded.
        self.collector = self.collectors[COLLECTOR_ADDRESS]
        #: Cluster-wide per-period scores (merged across shards).
        self.samples: List[RuntimePeriodSample] = []

    # ------------------------------------------------------------------
    def run(self, n_periods: int) -> RuntimeReport:
        """Blocking wrapper around :meth:`run_async`."""
        return asyncio.run(self.run_async(n_periods))

    async def run_async(self, n_periods: int) -> RuntimeReport:
        """Run ``n_periods`` collection periods and return the report."""
        if n_periods <= 0:
            raise ValueError(f"n_periods must be > 0, got {n_periods}")
        started = time.monotonic()
        for address in self.collectors:
            self.transport.register(address)
        for node in self.agents:
            self.transport.register(node)
        tasks = [asyncio.ensure_future(agent.run()) for agent in self.agents.values()]
        tasks.extend(
            asyncio.ensure_future(collector.run())
            for collector in self.collectors.values()
        )
        try:
            for period in range(n_periods):
                # One monitoring period is one trace: mint a fresh
                # 128-bit trace id, root it at the period span, and
                # stamp the context on the tick so every agent's wave
                # joins the same trace (this is the in-process twin of
                # the deploy collector's cross-process clock).
                period_ctx = (
                    trace.new_root_context()
                    if trace.active_tracer() is not None
                    else None
                )
                with trace.attach(period_ctx):
                    with trace.span(
                        names.SPAN_RUNTIME_PERIOD, lane=names.LANE_ENGINE, period=period
                    ) as period_span:
                        self.registry.advance_all()
                        tick = TickEnvelope(
                            period=period, trace_ctx=period_span.context()
                        )
                        await self._broadcast(tick)
                        await asyncio.sleep(self.config.period_seconds)
                        with trace.span(names.SPAN_RUNTIME_SETTLE, lane=names.LANE_ENGINE, period=period):
                            await self._settle()
                        self._close_period(period)
            await self._broadcast(StopEnvelope())
            await asyncio.wait(tasks, timeout=5.0)
        finally:
            for task in tasks:
                if not task.done():
                    task.cancel()
            await self.transport.aclose()
        report = RuntimeReport(
            requested_pairs=len(self.plan.pairs),
            n_periods=n_periods,
            samples=list(self.samples),
            failure_events=self._merged_failure_events(),
            metrics=self.metrics,
            wall_seconds=time.monotonic() - started,
        )
        return report

    # ------------------------------------------------------------------
    def _close_period(self, period: int) -> RuntimePeriodSample:
        """Score the period on every shard and record the merged sample."""
        weighted = [
            (self._shard_weights[address], collector.close_period(period))
            for address, collector in self.collectors.items()
        ]
        if len(weighted) == 1:
            merged = weighted[0][1]
        else:
            merged = merge_period_samples(period, weighted)
        self.samples.append(merged)
        return merged

    def _merged_failure_events(self) -> List[FailureEvent]:
        """Failure events across shards, de-duplicated.

        Every shard runs its own detector over the nodes in its trees,
        so a node in several shards' trees is flagged once per shard --
        collapse identical transitions, ordered by (period, node).
        """
        seen = set()
        events: List[FailureEvent] = []
        for collector in self.collectors.values():
            for event in collector.failure_events:
                key = (event.node, event.period, event.kind)
                if key not in seen:
                    seen.add(key)
                    events.append(event)
        events.sort(key=lambda e: (e.period, e.node, e.kind))
        return events

    # ------------------------------------------------------------------
    async def _broadcast(self, envelope: "Envelope") -> None:
        for node in self.agents:
            await self.transport.send(node, envelope)
        for address in self.collectors:
            await self.transport.send(address, envelope)

    async def _settle(self) -> None:
        """Let in-flight work finish before the period is scored.

        Yields to the event loop until every inbox is drained and no
        agent has a role still waiting on its children, bounded by one
        extra period of wall-clock grace.  This makes scoring independent of
        machine speed: on a loaded box the sleep may end while the
        bottom-up wave is still relaying, and settling here is what
        keeps the parity with the lock-step simulator tight.
        """
        deadline = time.monotonic() + self.config.period_seconds
        while time.monotonic() < deadline:
            busy = any(agent.busy() for agent in self.agents.values())
            if not busy and self.transport.idle():
                return
            await asyncio.sleep(0)
