"""Child-process entrypoints for ``repro deploy``.

Two roles, both reconstructed from one
:class:`~repro.net.deploy.DeploySpec`:

- :func:`worker_main` (one per shard) hosts the shard's
  :class:`~repro.runtime.agent.NodeAgent` tasks behind a
  :class:`~repro.net.tcp.TcpTransport` listener, plus a *control loop*
  on the worker's reserved address: each inbound tick advances the
  local ground-truth registry replica to match the tick's period
  (``advance-to-match`` -- what lets a freshly restarted worker resync
  deterministically mid-run) and fans the tick out to the local
  agents.
- :func:`collector_main` hosts one
  :class:`~repro.runtime.collector.CollectorAgent` per collector shard
  (``spec.collectors``, each on its reserved address) and drives the
  clock: one tick per worker per period, a wall-clock period window, a
  bounded settle, then per-shard period scoring merged into
  cluster-wide samples -- the multi-process analogue of
  :meth:`repro.runtime.engine.MonitoringRuntime.run_async`.

On stop each process dumps its full metrics registry to a JSON report
file the supervisor merges.  Entry functions are module-level so the
``spawn`` multiprocessing context can import them by name.
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Callable, Coroutine, Dict

from repro.cluster.metrics import MetricRegistry
from repro.core.attributes import NodeId
from repro.net.deploy import DeploySpec, control_address, write_json_atomic
from repro.net.tcp import TcpTransport
from repro.obs import log, names, trace
from repro.obs.export import write_jsonl_spans
from repro.runtime.agent import NodeAgent
from repro.runtime.collector import CollectorAgent
from repro.runtime.engine import (
    build_roles,
    collector_addresses,
    compile_layouts,
    merge_period_samples,
)
from repro.runtime.messages import (
    StopEnvelope,
    TickEnvelope,
    collector_shard_address,
)
from repro.runtime.metrics import RuntimeMetrics


def _ground_truth(spec: DeploySpec, plan) -> MetricRegistry:
    """The shared ground-truth replica, constructed deterministically.

    Pair order fixes the seeded RNG's consumption order, so every
    process MUST build from ``sorted(plan.pairs)`` -- raw set
    iteration varies with each process's hash randomization.
    """
    config = spec.build_config()
    return MetricRegistry(sorted(plan.pairs), seed=config.seed)


class WorkerRuntime:
    """One shard of node agents plus the tick/stop control loop."""

    def __init__(self, spec: DeploySpec, rank: int) -> None:
        self.spec = spec
        self.rank = rank
        self.shard = list(spec.shards[rank])
        self.config = spec.build_config()
        cluster, cost, plan = spec.build_plan()
        self.plan = plan
        self.registry = _ground_truth(spec, plan)
        self._advanced = 0
        self.metrics = RuntimeMetrics()
        endpoint = spec.worker_endpoints[rank]
        self.transport = TcpTransport(
            spec.build_directory(),
            listen_host=endpoint.host,
            listen_port=endpoint.port,
            metrics=self.metrics,
        )
        # The engine's own role builder, over the identical re-planned
        # forest: single-process runs and deploy workers can never
        # disagree about tree ids, depths, or local demands.  With
        # sharded collectors, each tree's root reports to its shard's
        # address (all shards resolve to the collector endpoint).
        sharded = spec.build_sharded(plan)
        roles = build_roles(
            plan,
            compile_layouts(plan),
            collector_of=collector_addresses(sharded) if sharded is not None else None,
        )
        self.agents: Dict[NodeId, NodeAgent] = {
            node: NodeAgent(
                node_id=node,
                capacity=cluster.capacity(node),
                roles=roles[node],
                cost=cost,
                registry=self.registry,
                transport=self.transport,
                metrics=self.metrics,
                config=self.config,
            )
            for node in self.shard
        }

    # ------------------------------------------------------------------
    async def run(self) -> None:
        ctrl = control_address(self.rank)
        self.transport.register(ctrl)
        for node in self.agents:
            self.transport.register(node)
        await self.transport.start()
        tasks = [asyncio.ensure_future(agent.run()) for agent in self.agents.values()]
        # Listener bound, agents listening: tell the supervisor.
        write_json_atomic(
            self.spec.ready_path(f"worker-{self.rank}"), {"rank": self.rank}
        )
        try:
            while True:
                envelope = await self.transport.recv(
                    ctrl, timeout=self.config.recv_timeout_seconds
                )
                if envelope is None:
                    continue
                if isinstance(envelope, StopEnvelope):
                    break
                if isinstance(envelope, TickEnvelope):
                    self._on_tick(envelope)
            for node in self.agents:
                self.transport.deliver_local(node, StopEnvelope())
            if tasks:
                await asyncio.wait(tasks, timeout=5.0)
        finally:
            for task in tasks:
                if not task.done():
                    task.cancel()
            write_json_atomic(
                self.spec.report_path(f"worker-{self.rank}"),
                {"rank": self.rank, "metrics": self.metrics.registry.dump()},
            )
            await self.transport.aclose()

    def _on_tick(self, tick: TickEnvelope) -> None:
        # Advance-to-match: the collector advanced its replica once for
        # this tick; a steady worker advances once too, while a freshly
        # restarted one fast-forwards from zero to the same point.
        while self._advanced <= tick.period:
            self.registry.advance_all()
            self._advanced += 1
        for node in self.agents:
            self.transport.deliver_local(node, tick)


class CollectorRuntime:
    """The collector process: clock source, scorer, failure detector."""

    def __init__(self, spec: DeploySpec) -> None:
        self.spec = spec
        self.config = spec.build_config()
        cluster, cost, plan = spec.build_plan()
        self.plan = plan
        self.registry = _ground_truth(spec, plan)
        self.metrics = RuntimeMetrics()
        endpoint = spec.collector_endpoint
        self.transport = TcpTransport(
            spec.build_directory(),
            listen_host=endpoint.host,
            listen_port=endpoint.port,
            metrics=self.metrics,
        )
        self.expected_nodes = sorted(
            node for shard in spec.shards for node in shard
        )
        # One CollectorAgent per collector shard, co-hosted in this
        # process on distinct reserved addresses.  Each scores only its
        # shard's pairs and expects heartbeats only from nodes with a
        # role in its shard's trees (other nodes never dial it).
        sharded = spec.build_sharded(plan)
        # The workers' own slot layouts, derived from the same plan.
        layouts = compile_layouts(plan)
        if sharded is None:
            shard_specs = [
                (collector_shard_address(0), sorted(plan.pairs), layouts, self.expected_nodes)
            ]
        else:
            expected = set(self.expected_nodes)
            shard_specs = [
                (
                    collector_shard_address(shard),
                    sorted(sharded.pairs_for(shard)),
                    [lay for lay in layouts if sharded.shard_of(lay.attr_set) == shard],
                    [n for n in sharded.nodes_for(shard) if n in expected],
                )
                for shard in range(sharded.shards)
            ]
        self.collectors = {
            address: CollectorAgent(
                requested_pairs=pairs,
                layouts=reporting,
                expected_nodes=nodes,
                central_capacity=cluster.central_capacity,
                cost=cost,
                registry=self.registry,
                transport=self.transport,
                metrics=self.metrics,
                config=self.config,
                address=address,
            )
            for address, pairs, reporting, nodes in shard_specs
        }
        self._shard_weights = {
            address: len(pairs) for address, pairs, _reporting, _nodes in shard_specs
        }
        #: Shard-0 agent, for callers written against one collector.
        self.collector = self.collectors[collector_shard_address(0)]

    # ------------------------------------------------------------------
    async def run(self) -> None:
        for address in self.collectors:
            self.transport.register(address)
        await self.transport.start()
        collector_tasks = [
            asyncio.ensure_future(agent.run()) for agent in self.collectors.values()
        ]
        write_json_atomic(self.spec.ready_path("collector"), {"role": "collector"})
        await self._await_go()
        try:
            for period in range(self.spec.periods):
                # The clock owner mints one trace per period and stamps
                # its context on every tick: each worker's agent waves
                # join this trace with the period root span (recorded
                # here, in the collector process) as their parent --
                # the forward cross-process link over TCP.
                period_ctx = (
                    trace.new_root_context()
                    if trace.active_tracer() is not None
                    else None
                )
                with trace.attach(period_ctx):
                    with trace.span(
                        names.SPAN_RUNTIME_PERIOD,
                        lane=names.LANE_ENGINE,
                        period=period,
                    ) as period_span:
                        self.registry.advance_all()
                        tick = TickEnvelope(
                            period=period, trace_ctx=period_span.context()
                        )
                        for address in self.collectors:
                            self.transport.deliver_local(address, tick)
                        for rank in range(self.spec.workers):
                            await self.transport.send(control_address(rank), tick)
                        await asyncio.sleep(self.config.period_seconds)
                        with trace.span(
                            names.SPAN_RUNTIME_SETTLE,
                            lane=names.LANE_ENGINE,
                            period=period,
                        ):
                            await self._settle()
                        for agent in self.collectors.values():
                            agent.close_period(period)
            for rank in range(self.spec.workers):
                await self.transport.send(control_address(rank), StopEnvelope())
            for address in self.collectors:
                self.transport.deliver_local(address, StopEnvelope())
            await asyncio.wait(collector_tasks, timeout=5.0)
        finally:
            for task in collector_tasks:
                if not task.done():
                    task.cancel()
            write_json_atomic(
                self.spec.report_path("collector"),
                {
                    "samples": [
                        {
                            "period": s.period,
                            "mean_error": s.mean_error,
                            "fresh_fraction": s.fresh_fraction,
                            "received_fraction": s.received_fraction,
                        }
                        for s in self._merged_samples()
                    ],
                    "failure_events": [
                        {"node": e.node, "period": e.period, "kind": e.kind}
                        for e in self._merged_failure_events()
                    ],
                    "metrics": self.metrics.registry.dump(),
                },
            )
            await self.transport.aclose()

    def _merged_samples(self):
        """Cluster-wide period scores: pair-count-weighted shard merge."""
        agents = [self.collectors[a] for a in sorted(self.collectors)]
        if len(agents) == 1:
            return list(agents[0].samples)
        count = min(len(agent.samples) for agent in agents)
        return [
            merge_period_samples(
                agents[0].samples[index].period,
                [
                    (self._shard_weights[agent.address], agent.samples[index])
                    for agent in agents
                ],
            )
            for index in range(count)
        ]

    def _merged_failure_events(self):
        """Failure transitions across shards, de-duplicated and ordered."""
        seen = set()
        events = []
        for address in sorted(self.collectors):
            for event in self.collectors[address].failure_events:
                key = (event.node, event.period, event.kind)
                if key not in seen:
                    seen.add(key)
                    events.append(event)
        events.sort(key=lambda e: (e.period, e.node, e.kind))
        return events

    async def _await_go(self) -> None:
        """Hold the clock until the supervisor says every listener is up.

        Not strictly required for correctness -- outbound links retry
        with backoff -- but it keeps period 0 from burning its window
        on dial retries against workers that have not bound yet.
        """
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if os.path.exists(self.spec.go_path):
                return
            await asyncio.sleep(0.02)

    async def _settle(self) -> None:
        """Let straggler frames land before scoring, bounded in time.

        The collector cannot see other processes' in-flight work the
        way the single-process engine can, so this settles on the local
        signal available -- its own transport going idle -- and bounds
        the wait by one extra period.
        """
        deadline = time.monotonic() + self.config.period_seconds
        while time.monotonic() < deadline:
            if self.transport.idle():
                return
            await asyncio.sleep(0.005)


# ---------------------------------------------------------------------------
# Spawn targets (must be importable module-level callables)
# ---------------------------------------------------------------------------
def _run_role(
    spec: DeploySpec,
    role: str,
    runner: Callable[[], Coroutine[object, object, None]],
) -> None:
    """Shared child harness: tracing, log sink, crash flight dump.

    When the spec enables tracing the child installs a process-local
    tracer plus a JSONL log sink, and dumps its spans to the role's
    trace artifact on the way out (clean or crashing).  The flight
    recorder is always on: any crash dumps the last events/spans to the
    role's flight artifact before the exception propagates -- a
    SIGKILLed child cannot, which is why the supervisor also dumps its
    own on restarts.
    """
    tracer = trace.install() if spec.trace else None
    if spec.trace:
        log.install_sink(spec.log_path(role))
    log.emit(names.LOG_DEPLOY_WORKER_START, lane=names.LANE_DEPLOY, role=role)
    try:
        asyncio.run(runner())
    except BaseException as exc:
        log.emit(
            names.LOG_DEPLOY_WORKER_CRASH,
            lane=names.LANE_DEPLOY,
            severity="error",
            role=role,
            error=repr(exc),
        )
        log.dump_flight(spec.flight_path(role), reason=f"{role} crashed: {exc!r}")
        raise
    finally:
        log.emit(names.LOG_DEPLOY_WORKER_EXIT, lane=names.LANE_DEPLOY, role=role)
        if tracer is not None:
            write_jsonl_spans(tracer.spans(), spec.trace_path(role))
        log.uninstall_sink()


def worker_main(spec_path: str, rank: int) -> None:
    """Entrypoint of worker process ``rank``."""
    spec = DeploySpec.load(spec_path)
    _run_role(spec, f"worker-{rank}", lambda: WorkerRuntime(spec, rank).run())


def collector_main(spec_path: str) -> None:
    """Entrypoint of the collector process."""
    spec = DeploySpec.load(spec_path)
    _run_role(spec, "collector", lambda: CollectorRuntime(spec).run())
