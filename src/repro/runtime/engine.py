"""The runtime engine: plan in, concurrent agents out.

REMO's live half is one rule applied every period -- tick, let the
``C + a*x`` wave climb the trees, score what reached the collector
once every root and node the plan names has reported.  This module is
the single implementation of that rule and of what surrounds it:

- what every process derives from the plan alone
  (:func:`compile_layouts`, :func:`build_roles`) and the ground truth
  a run is scored against (:func:`ground_truth`);
- the collector shards, their completion and their merge
  (:class:`CollectorBank`);
- the lifecycle of the agent tasks a process hosts (:func:`hosting`)
  and the period loop (:func:`run_periods`).

:class:`MonitoringRuntime` and the two ``repro deploy`` processes
(:mod:`repro.net.worker`) are *hosts*: they pass in only what differs
between them -- which agents live in the process and where a tick goes
(``fan_out``) -- and decide where the report is written.  When a
period is complete is the collector shards' to say, the same way on
every host.
:class:`MonitoringRuntime` is the host with everything in one process:
one :class:`~repro.runtime.agent.NodeAgent` per participating node plus
one :class:`~repro.runtime.collector.CollectorAgent` per collector
shard, wired over a :class:`~repro.runtime.transport.Transport`.

:class:`~repro.simulation.engine.MonitoringSimulation` runs on the
same layouts, roles and ground truth under a schedule of its own; the
parity test in ``tests/test_runtime_parity.py`` holds the two engines'
collected-pair coverage to within five percentage points.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from typing import (
    AsyncIterator,
    Awaitable,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

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
    sharded: Optional[ShardedPlan] = None,
) -> Dict[NodeId, List[TreeRole]]:
    """One :class:`TreeRole` per (member node, tree) of the plan, over
    ``layouts = compile_layouts(plan)``.

    Trees get stable short ids (``t0``, ``t1``, ... in sorted
    attribute-set order) so metric labels and trace spans can name a
    tree without serializing its attribute set.  Module-level because
    ``repro deploy`` workers need the identical role table without
    constructing an engine: the derivation is deterministic, so every
    process that holds the same plan agrees on every role.

    With ``sharded`` each tree's root reports to the transport address
    of its collector shard (:func:`collector_addresses`), otherwise
    every tree to the single central :data:`COLLECTOR_ADDRESS`.
    """
    collector_of = collector_addresses(sharded) if sharded is not None else {}
    roles: Dict[NodeId, List[TreeRole]] = {}
    for layout in layouts:
        tree = plan.trees[layout.attr_set].tree
        height = tree.height()
        collector = collector_of.get(layout.attr_set, COLLECTOR_ADDRESS)
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


async def wait_until(
    predicate: Callable[[], bool],
    timeout: float,
    poll: float,
    abort: Optional[Callable[[], None]] = None,
) -> bool:
    """Ask ``predicate`` every ``poll`` seconds: ``True`` as soon as it
    holds, ``False`` once ``timeout`` seconds have passed.

    For conditions no event announces (a file another process writes).
    ``abort`` runs after each failed check and ends the wait by
    raising, for a condition that can no longer come true (the process
    that would have written the file is dead).
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        if abort is not None:
            abort()
        await asyncio.sleep(poll)
    return False


def ground_truth(plan: MonitoringPlan, seed: int) -> MetricRegistry:
    """The metric registry a run of ``plan`` is scored against.

    Pair order fixes the seeded RNG's consumption order, so every
    process (and every run of one process) MUST build from
    ``sorted(plan.pairs)`` -- raw set iteration varies with the
    interpreter's hash randomization.
    """
    return MetricRegistry(sorted(plan.pairs), seed=seed)


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


class CollectorBank:
    """One :class:`CollectorAgent` per collector shard, scored as one.

    Each agent sits on its shard's reserved address, scores only its
    shard's pairs and expects heartbeats only from nodes with a role in
    a tree that reports to it (other nodes never dial it).  Unsharded is
    the one-shard case: every pair, every tree, every node.
    """

    def __init__(
        self,
        plan: MonitoringPlan,
        sharded: Optional[ShardedPlan],
        layouts: Sequence[TreeLayout],
        central_capacity: float,
        registry: MetricRegistry,
        transport: Transport,
        metrics: RuntimeMetrics,
        config: RuntimeConfig,
    ) -> None:
        #: Keyed by transport address (shard 0 is ``COLLECTOR_ADDRESS``).
        self.agents: Dict[NodeId, CollectorAgent] = {}
        #: Pair-count weight per shard address, for score merging.
        self._weights: Dict[NodeId, int] = {}
        for shard in range(sharded.shards if sharded is not None else 1):
            address = collector_shard_address(shard)
            requested = sorted(sharded.pairs_for(shard) if sharded is not None else plan.pairs)
            reporting = [
                lay for lay in layouts if sharded is None or sharded.shard_of(lay.attr_set) == shard
            ]
            self.agents[address] = CollectorAgent(
                requested_pairs=requested,
                layouts=reporting,
                expected_nodes=sorted({node for lay in reporting for node in lay.ranges}),
                central_capacity=central_capacity,
                cost=plan.cost,
                registry=registry,
                transport=transport,
                metrics=metrics,
                config=config,
                address=address,
            )
            self._weights[address] = len(requested)
        #: Cluster-wide per-period scores (merged across shards).
        self.samples: List[RuntimePeriodSample] = []

    def close_period(self, period: int) -> RuntimePeriodSample:
        """Score the period on every shard and record the merged sample."""
        weighted = [
            (self._weights[address], agent.close_period(period))
            for address, agent in self.agents.items()
        ]
        if len(weighted) == 1:
            merged = weighted[0][1]
        else:
            merged = merge_period_samples(period, weighted)
        self.samples.append(merged)
        return merged

    async def heard_from_all(self, period: int) -> None:
        """Return once every shard has ``period`` complete."""
        for agent in self.agents.values():
            await agent.heard_from_all(period)

    def failure_events(self) -> List[FailureEvent]:
        """Failure events across shards, de-duplicated.

        Every shard runs its own detector over the nodes in its trees,
        so a node in several shards' trees is flagged once per shard --
        collapse identical transitions, ordered by (period, node).
        """
        events = {event for agent in self.agents.values() for event in agent.failure_events}
        return sorted(events, key=lambda e: (e.period, e.node, e.kind))


class Runnable(Protocol):
    async def run(self) -> None: ...


@contextlib.asynccontextmanager
async def hosting(
    transport: Transport,
    fan_out: Callable[[Envelope], Awaitable[None]],
    agents: Mapping[NodeId, Runnable],
    *control: NodeId,
) -> AsyncIterator[None]:
    """Run one task per agent on ``transport`` around the body.

    ``fan_out`` puts an envelope on its way to every agent the caller
    answers for; ``control`` names inboxes the caller reads itself.
    When the body finishes, a stop is fanned out and the tasks get five
    seconds to drain; on every way out stragglers are cancelled and the
    transport is closed.  A task that died of an exception is then
    re-raised: a crashed agent fails the run instead of quietly
    thinning its report.
    """
    for address in (*control, *agents):
        transport.register(address)
    tasks = [asyncio.ensure_future(agent.run()) for agent in agents.values()]
    try:
        yield
        await fan_out(StopEnvelope())
        if tasks:
            await asyncio.wait(tasks, timeout=5.0)
    finally:
        for task in tasks:
            if not task.done():
                task.cancel()
        await transport.aclose()
    for task in tasks:
        if task.done() and not task.cancelled():
            error = task.exception()
            if error is not None:
                raise error


async def run_periods(
    n_periods: int,
    period_seconds: float,
    registry: MetricRegistry,
    bank: CollectorBank,
    fan_out: Callable[[Envelope], Awaitable[None]],
) -> None:
    """Tick ``n_periods`` collection periods, one every ``period_seconds``.

    Per period: advance the ground truth, fan the tick out, wait until
    every collector shard has heard from everyone the plan names for
    it (:meth:`CollectorBank.heard_from_all`), close the period, and
    sleep out the rest of its window.  A node that goes silent holds the
    close to ``2 * period_seconds`` after the tick, and the next tick
    follows at once, until the failure detector flags it ``down``.
    """
    for period in range(n_periods):
        # One monitoring period is one trace: the clock owner mints a
        # fresh trace id, roots it at the period span, and stamps the
        # context on the tick so every agent's wave -- in this process
        # or across TCP -- joins the same trace.
        period_ctx = trace.new_root_context() if trace.active_tracer() is not None else None
        with trace.attach(period_ctx):
            with trace.span(
                names.SPAN_RUNTIME_PERIOD, lane=names.LANE_ENGINE, period=period
            ) as period_span:
                registry.advance_all()
                tick = TickEnvelope(period=period, trace_ctx=period_span.context())
                await fan_out(tick)
                bound = tick.sent_monotonic + 2 * period_seconds - time.monotonic()
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(bank.heard_from_all(period), bound)
                bank.close_period(period)
                await asyncio.sleep(tick.sent_monotonic + period_seconds - time.monotonic())


class MonitoringRuntime:
    """Live execution of one monitoring plan in a single process.

    The host with everything on one event loop: ticks go to every agent
    and collector shard through ``Transport.send``.
    """

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
            registry if registry is not None else ground_truth(plan, self.config.seed)
        )
        for pair in sorted(plan.pairs):
            self.registry.ensure(pair)
        layouts = compile_layouts(plan)
        roles = build_roles(plan, layouts, sharded)
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
        self.bank = CollectorBank(
            plan,
            sharded,
            layouts,
            cluster.central_capacity,
            registry=self.registry,
            transport=self.transport,
            metrics=self.metrics,
            config=self.config,
        )
        #: One collector agent per shard, keyed by transport address
        #: (a single agent at COLLECTOR_ADDRESS when unsharded).
        self.collectors = self.bank.agents
        #: The shard-0 agent; the single collector when unsharded.
        self.collector = self.collectors[COLLECTOR_ADDRESS]
        #: Cluster-wide per-period scores (merged across shards).
        self.samples = self.bank.samples

    # ------------------------------------------------------------------
    def run(self, n_periods: int) -> RuntimeReport:
        """Blocking wrapper around :meth:`run_async`."""
        return asyncio.run(self.run_async(n_periods))

    async def run_async(self, n_periods: int) -> RuntimeReport:
        """Run ``n_periods`` collection periods and return the report."""
        if n_periods <= 0:
            raise ValueError(f"n_periods must be > 0, got {n_periods}")
        started = time.monotonic()
        everyone: Dict[NodeId, Runnable] = {**self.agents, **self.collectors}
        async with hosting(self.transport, self.fan_out, everyone):
            await run_periods(
                n_periods, self.config.period_seconds, self.registry, self.bank, self.fan_out
            )
        return RuntimeReport(
            requested_pairs=len(self.plan.pairs),
            n_periods=n_periods,
            samples=list(self.samples),
            failure_events=self.bank.failure_events(),
            metrics=self.metrics,
            wall_seconds=time.monotonic() - started,
        )

    # -- what this host supplies to the driver --------------------------
    async def fan_out(self, envelope: Envelope) -> None:
        for address in (*self.agents, *self.collectors):
            await self.transport.send(address, envelope)
