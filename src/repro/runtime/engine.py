"""The runtime engine: plan in, concurrent agents out.

REMO's live half is one rule applied every period -- tick, let the
``C + a*x`` wave climb the trees, score what reached the collector
once every root the plan names has reported.  This module is
the single implementation of that rule and of what surrounds it:

- what every process derives from the plan alone
  (:func:`compile_layouts`, :func:`build_roles`) and the report a run
  ends in (:func:`run_report`);
- the lifecycle of the agent tasks a process hosts (:func:`hosting`)
  and the period loop (:func:`run_periods`), which sends each tick,
  and at the end the stop, to every inbox the plan names.

:class:`MonitoringRuntime` is the one host: its agents, the
:class:`~repro.runtime.collector.CollectorAgent` and the ground truth,
wired over a :class:`~repro.runtime.transport.Transport`.  In one
process it hosts every agent; ``repro deploy``
(:mod:`repro.net.deploy`) runs one per process over TCP, each hosting
a shard of the agents (``nodes=``), and the one that hosts the
collector owns the clock.  When a period is complete is the
collector's to say, the same way on every host, and each agent brings
its process's ground truth to the period of the tick it reads
(:meth:`~repro.cluster.metrics.MetricRegistry.advance_to`).

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
from functools import cached_property
from typing import (
    AsyncIterator,
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
from repro.runtime.report import RuntimePeriodSample, RuntimeReport
from repro.runtime.transport import InProcessTransport, Transport


def compile_layouts(plan: MonitoringPlan) -> List[TreeLayout]:
    """One :class:`TreeLayout` per tree, in sorted attribute-set order.

    A function of the plan alone, like :func:`build_roles`: every
    process of a deploy derives it and agrees on every slot without
    exchanging a byte.
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
    tree without serializing its attribute set.  The derivation is
    deterministic, so every process that holds the same plan agrees on
    every role.
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
    transport: Transport, agents: Mapping[NodeId, Runnable]
) -> AsyncIterator[List["asyncio.Future[None]"]]:
    """Run one task per agent on ``transport`` around the body, which
    gets the tasks.

    An agent's task ends when it takes the stop the clock sends it
    (:func:`run_periods`).  When the body finishes, the tasks get five
    seconds to do so; on every way out stragglers are cancelled and the
    transport is closed.  A task that died of an exception is then
    re-raised: a crashed agent fails the run instead of quietly
    thinning its report.
    """
    for address in agents:
        transport.register(address)
    tasks = [asyncio.ensure_future(agent.run()) for agent in agents.values()]
    try:
        yield tasks
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
    transport: Transport,
    inboxes: Sequence[NodeId],
) -> None:
    """Tick ``n_periods`` collection periods, one every ``period_seconds``,
    then stop.

    Per period: advance the ground truth, send the tick to every inbox
    of ``inboxes``, in its order, wait until the collector has heard
    from every tree's root (:meth:`CollectorAgent.heard_from_all`),
    close the period, and sleep out the rest of its window.  A silent
    member holds the close to its parent's child wait; a silent root
    holds it to ``2 * period_seconds`` after the tick, and the next tick
    follows at once, until the failure detector flags it ``down``.
    After the last period every inbox gets the stop.
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
                await _broadcast(transport, inboxes, tick)
                bound = tick.sent_at + 2 * period_seconds - loop.time()
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(collector.heard_from_all(period), bound)
                collector.close_period(period)
                await asyncio.sleep(tick.sent_at + period_seconds - loop.time())
    await _broadcast(transport, inboxes, StopEnvelope())


async def _broadcast(transport: Transport, inboxes: Sequence[NodeId], envelope: Envelope) -> None:
    # Over a copy: a host may drop inboxes while a send waits.
    for address in tuple(inboxes):
        await transport.send(address, envelope)


class MonitoringRuntime:
    """Live execution of one monitoring plan: one host of it.

    By default the host with everything on one event loop; ``nodes``
    names the agents it hosts when a ``repro deploy`` process holds only
    part of the plan (:mod:`repro.net.deploy`).  Whichever host runs
    :meth:`run_async` owns the clock, hosts the collector, and sends
    each tick to every inbox the plan names (:attr:`inboxes`) through
    ``Transport.send``.
    """

    def __init__(
        self,
        plan: MonitoringPlan,
        cluster: Cluster,
        registry: Optional[MetricRegistry] = None,
        config: Optional[RuntimeConfig] = None,
        transport: Optional[Transport] = None,
        metrics: Optional[RuntimeMetrics] = None,
        nodes: Optional[Sequence[NodeId]] = None,
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
        if registry is None:
            # Pair order fixes the seeded RNG's consumption order, so
            # every process (and every run of one process) MUST build
            # from ``sorted(plan.pairs)`` -- raw set iteration varies
            # with the interpreter's hash randomization.
            registry = MetricRegistry(sorted(plan.pairs), seed=self.config.seed)
        self.registry = registry
        for pair in sorted(plan.pairs):
            self.registry.ensure(pair)
        layouts = compile_layouts(plan)
        roles = build_roles(plan, layouts)
        #: Every inbox the plan names, in the order a tick reaches them:
        #: each participating node, then the collector.
        self.inboxes: List[NodeId] = [*sorted(roles), COLLECTOR_ADDRESS]
        #: The agents this host runs, built one way on every host.
        self.agents: Dict[NodeId, NodeAgent] = {
            node: NodeAgent(
                node_id=node,
                capacity=cluster.capacity(node),
                roles=roles[node],
                cost=plan.cost,
                registry=self.registry,
                transport=self.transport,
                metrics=self.metrics,
                config=self.config,
            )
            for node in (sorted(roles) if nodes is None else nodes)
        }
        self._layouts = layouts

    @cached_property
    def collector(self) -> CollectorAgent:
        """The central collector over the collector budget ``b_0``: it
        scores every requested pair and expects every tree's root.  Built
        on first use, so a host that never runs it (a deploy worker)
        never builds its columns and truth reader."""
        return CollectorAgent(
            requested_pairs=sorted(self.plan.pairs),
            layouts=self._layouts,
            central_capacity=self.cluster.central_capacity,
            cost=self.plan.cost,
            registry=self.registry,
            transport=self.transport,
            metrics=self.metrics,
            config=self.config,
        )

    @property
    def collectors(self) -> Dict[NodeId, CollectorAgent]:
        """``{COLLECTOR_ADDRESS: collector}``, the inbox besides the
        agents' that the clock's host runs."""
        return {COLLECTOR_ADDRESS: self.collector}

    @property
    def samples(self) -> List[RuntimePeriodSample]:
        """Per-period scores."""
        return self.collector.samples

    # ------------------------------------------------------------------
    def run(self, n_periods: int) -> RuntimeReport:
        """Blocking wrapper around :meth:`run_async`."""
        return asyncio.run(self.run_async(n_periods))

    async def run_async(self, n_periods: int) -> RuntimeReport:
        """Host the collector and this host's agents, run ``n_periods``
        collection periods on the clock, and return the report."""
        if n_periods <= 0:
            raise ValueError(f"n_periods must be > 0, got {n_periods}")
        started = time.monotonic()
        everyone: Dict[NodeId, Runnable] = {**self.agents, **self.collectors}
        async with hosting(self.transport, everyone):
            await self.transport.start()
            await run_periods(
                n_periods,
                self.config.period_seconds,
                self.registry,
                self.collector,
                self.transport,
                self.inboxes,
            )
        return run_report(self.plan, n_periods, self.collector, self.metrics, started)
