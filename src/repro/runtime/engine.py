"""The runtime engine: plan in, concurrent agents out.

REMO's live half is one rule applied every period -- tick, let the
``C + a*x`` wave climb the trees, score what reached the collector
once every root the plan names has reported.  This module is
the single implementation of that rule and of what surrounds it:

- what every process derives from the plan alone
  (:func:`compile_layouts`, :func:`build_roles`) and the ground truth
  a run is scored against (:func:`ground_truth`);
- the agents a process hosts (:func:`build_agents`), the one collector
  every tree reports to (:func:`build_collector`) and the report a run
  ends in (:func:`run_report`);
- the lifecycle of the agent tasks a process hosts (:func:`hosting`)
  and the period loop (:func:`run_periods`).

:class:`MonitoringRuntime`, the ``repro deploy`` supervisor
(:func:`repro.net.deploy.run_deploy`, which hosts the collector) and
its workers (:mod:`repro.net.worker`) are *hosts*: they pass in only
what differs between them -- which agents live in the process and
where a tick goes (``fan_out``) -- and decide where the report is
written.  When a period is complete is the collector's to say, the
same way on every host.
:class:`MonitoringRuntime` is the host with everything in one process:
one :class:`~repro.runtime.agent.NodeAgent` per participating node plus
the :class:`~repro.runtime.collector.CollectorAgent`, wired over a
:class:`~repro.runtime.transport.Transport`.

:class:`~repro.simulation.engine.MonitoringSimulation` builds a
:class:`MonitoringRuntime` it never runs, and calls its agents' and
collector's synchronous steps on a schedule of its own.

The running event loop is the runtime's only clock: the tick stamp,
the close bound, the sleep to the next tick, every relay's child-wait
deadline and the collection latency all read ``loop.time()``.  On an
event loop whose ``time()`` is virtual, a period costs no wall-clock
time and its outcome depends on the plan alone; that is how
``tests/test_runtime_parity.py`` holds the simulator, the runtime in
process and over TCP, and a deploy's hosts to the same per-period
samples and counters.
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
from repro.core.plan import MonitoringPlan
from repro.obs import names, trace
from repro.runtime.agent import NodeAgent, TreeRole
from repro.runtime.collector import CollectorAgent
from repro.runtime.config import RuntimeConfig
from repro.runtime.messages import (
    COLLECTOR_ADDRESS,
    Envelope,
    StopEnvelope,
    TickEnvelope,
    TreeLayout,
)
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.report import RuntimeReport
from repro.runtime.transport import InProcessTransport, Transport


def compile_layouts(plan: MonitoringPlan) -> List[TreeLayout]:
    """One :class:`TreeLayout` per tree, in sorted attribute-set order.

    A function of the plan alone, like :func:`build_roles`: the engine,
    every deploy worker and the deploy supervisor each derive it and
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
    plan: MonitoringPlan, layouts: Sequence[TreeLayout]
) -> Dict[NodeId, List[TreeRole]]:
    """One :class:`TreeRole` per (member node, tree) of the plan, over
    ``layouts = compile_layouts(plan)``.

    Trees get stable short ids (``t0``, ``t1``, ... in sorted
    attribute-set order) so metric labels and trace spans can name a
    tree without serializing its attribute set.  Module-level because
    ``repro deploy`` workers need the identical role table without
    constructing an engine: the derivation is deterministic, so every
    process that holds the same plan agrees on every role.
    """
    roles: Dict[NodeId, List[TreeRole]] = {}
    for layout in layouts:
        tree = plan.trees[layout.attr_set].tree
        height = tree.height()
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
                )
            )
    return roles


def build_collector(
    plan: MonitoringPlan,
    layouts: Sequence[TreeLayout],
    central_capacity: float,
    registry: MetricRegistry,
    transport: Transport,
    metrics: RuntimeMetrics,
    config: RuntimeConfig,
) -> CollectorAgent:
    """The central collector for ``plan``, at :data:`COLLECTOR_ADDRESS`,
    over the collector budget ``b_0``: it scores every requested pair
    and expects an update from every tree's root."""
    return CollectorAgent(
        requested_pairs=sorted(plan.pairs),
        layouts=layouts,
        central_capacity=central_capacity,
        cost=plan.cost,
        registry=registry,
        transport=transport,
        metrics=metrics,
        config=config,
    )


def build_agents(
    plan: MonitoringPlan,
    layouts: Sequence[TreeLayout],
    cluster: Cluster,
    registry: MetricRegistry,
    transport: Transport,
    metrics: RuntimeMetrics,
    config: RuntimeConfig,
    nodes: Optional[Sequence[NodeId]] = None,
) -> Dict[NodeId, NodeAgent]:
    """One :class:`NodeAgent` per node of ``nodes`` (by default every
    node with a role in ``plan``), each with its :func:`build_roles`
    roles: the agents every host runs, built one way."""
    roles = build_roles(plan, layouts)
    return {
        node: NodeAgent(
            node_id=node,
            capacity=cluster.capacity(node),
            roles=roles[node],
            cost=plan.cost,
            registry=registry,
            transport=transport,
            metrics=metrics,
            config=config,
        )
        for node in (sorted(roles) if nodes is None else nodes)
    }


def ground_truth(plan: MonitoringPlan, seed: int) -> MetricRegistry:
    """The metric registry a run of ``plan`` is scored against.

    Pair order fixes the seeded RNG's consumption order, so every
    process (and every run of one process) MUST build from
    ``sorted(plan.pairs)`` -- raw set iteration varies with the
    interpreter's hash randomization.
    """
    return MetricRegistry(sorted(plan.pairs), seed=seed)


def run_report(
    plan: MonitoringPlan,
    n_periods: int,
    collector: CollectorAgent,
    metrics: RuntimeMetrics,
    started: float,
) -> RuntimeReport:
    """What a run of ``plan`` that began at ``time.monotonic()`` =
    ``started`` produced: ``collector``'s samples and failure events
    over ``metrics``.  Every engine and host reports through here."""
    return RuntimeReport(
        requested_pairs=len(plan.pairs),
        n_periods=n_periods,
        samples=list(collector.samples),
        failure_events=list(collector.failure_events),
        metrics=metrics,
        wall_seconds=time.monotonic() - started,
    )


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
    collector: CollectorAgent,
    fan_out: Callable[[Envelope], Awaitable[None]],
) -> None:
    """Tick ``n_periods`` collection periods, one every ``period_seconds``.

    Per period: advance the ground truth, fan the tick out, wait until
    the collector has heard from every tree's root
    (:meth:`CollectorAgent.heard_from_all`), close the period, and
    sleep out the rest of its window.  A silent member holds the close
    to its parent's child wait; a silent root holds it to ``2 *
    period_seconds`` after the tick, and the next tick follows at once,
    until the failure detector flags it ``down``.
    """
    loop = asyncio.get_running_loop()
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
                tick = TickEnvelope(period, loop.time(), period_span.context())
                await fan_out(tick)
                bound = tick.sent_at + 2 * period_seconds - loop.time()
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(collector.heard_from_all(period), bound)
                collector.close_period(period)
                await asyncio.sleep(tick.sent_at + period_seconds - loop.time())


class MonitoringRuntime:
    """Live execution of one monitoring plan in a single process.

    The host with everything on one event loop: ticks go to every agent
    and the collector through ``Transport.send``.
    """

    def __init__(
        self,
        plan: MonitoringPlan,
        cluster: Cluster,
        registry: Optional[MetricRegistry] = None,
        config: Optional[RuntimeConfig] = None,
        transport: Optional[Transport] = None,
        metrics: Optional[RuntimeMetrics] = None,
    ) -> None:
        self.plan = plan
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
        self.agents: Dict[NodeId, NodeAgent] = build_agents(
            plan, layouts, cluster, self.registry, self.transport, self.metrics, self.config
        )
        self.collector = build_collector(
            plan,
            layouts,
            cluster.central_capacity,
            registry=self.registry,
            transport=self.transport,
            metrics=self.metrics,
            config=self.config,
        )
        #: ``{COLLECTOR_ADDRESS: collector}``, the inboxes besides the
        #: agents' that this host runs and ticks.
        self.collectors = {COLLECTOR_ADDRESS: self.collector}
        #: Per-period scores.
        self.samples = self.collector.samples

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
                n_periods, self.config.period_seconds, self.registry, self.collector, self.fan_out
            )
        return run_report(self.plan, n_periods, self.collector, self.metrics, started)

    # -- what this host supplies to the driver --------------------------
    async def fan_out(self, envelope: Envelope) -> None:
        for address in (*self.agents, *self.collectors):
            await self.transport.send(address, envelope)
