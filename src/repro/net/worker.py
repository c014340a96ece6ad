"""Child-process entrypoints for ``repro deploy``.

Two roles, both reconstructed from one
:class:`~repro.net.deploy.DeploySpec` and both hosts of the period
driver (:func:`repro.runtime.engine.run_periods` and what surrounds it):

- :func:`worker_main` (one per shard) hosts the shard's
  :class:`~repro.runtime.agent.NodeAgent` tasks behind a
  :class:`~repro.net.tcp.TcpTransport` listener, plus a *control loop*
  on the worker's reserved address: each inbound tick advances the
  local ground-truth registry replica to match the tick's period
  (``advance-to-match`` -- what lets a freshly restarted worker resync
  deterministically mid-run) and fans the tick out to the local
  agents.
- :func:`collector_main` hosts the
  :class:`~repro.runtime.collector.CollectorAgent` and owns the clock:
  its ticks go to every worker's control address, and it closes a
  period once the collector has heard from every root and node the
  plan names -- the same rule as in one process.

On stop each process dumps its full metrics registry to a JSON report
file the supervisor merges.  Entry functions are module-level so the
``spawn`` multiprocessing context can import them by name.
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import asdict
from typing import Callable, Coroutine

from repro.net.deploy import DeploySpec, control_address, write_json_atomic
from repro.net.directory import Endpoint
from repro.net.tcp import TcpTransport
from repro.obs import log, names, trace
from repro.obs.export import write_jsonl_spans
from repro.runtime.agent import NodeAgent
from repro.runtime.engine import (
    build_collector,
    build_roles,
    compile_layouts,
    ground_truth,
    hosting,
    run_periods,
    wait_until,
)
from repro.runtime.messages import COLLECTOR_ADDRESS, Envelope, StopEnvelope, TickEnvelope
from repro.runtime.metrics import RuntimeMetrics


class _DeployHost:
    """What both roles rebuild from the spec: config, plan, the shared
    ground-truth replica, and a listener on the role's endpoint."""

    def __init__(self, spec: DeploySpec, endpoint: Endpoint) -> None:
        self.spec = spec
        self.config = spec.build_config()
        self.cluster, self.plan = spec.scenario.workload[0], spec.scenario.plan()
        self.registry = ground_truth(self.plan, self.config.seed)
        self.metrics = RuntimeMetrics()
        self.transport = TcpTransport(
            spec.build_directory(),
            listen_host=endpoint.host,
            listen_port=endpoint.port,
            metrics=self.metrics,
        )


class WorkerRuntime(_DeployHost):
    """One shard of node agents plus the tick/stop control loop."""

    def __init__(self, spec: DeploySpec, rank: int) -> None:
        super().__init__(spec, spec.worker_endpoints[rank])
        self.rank = rank
        self._advanced = 0
        # The engine's own role builder, over the identical re-planned
        # forest: single-process runs and deploy workers can never
        # disagree about tree ids, depths, or local demands.
        roles = build_roles(self.plan, compile_layouts(self.plan))
        self.agents = {
            node: NodeAgent(
                node_id=node,
                capacity=self.cluster.capacity(node),
                roles=roles[node],
                cost=self.plan.cost,
                registry=self.registry,
                transport=self.transport,
                metrics=self.metrics,
                config=self.config,
            )
            for node in spec.shards[rank]
        }

    async def run(self) -> None:
        ctrl = control_address(self.rank)
        role = f"worker-{self.rank}"
        try:
            async with hosting(self.transport, self.fan_out, self.agents, ctrl):
                await self.transport.start()
                # Listener bound, agents listening: tell the supervisor.
                write_json_atomic(self.spec.ready_path(role), {"rank": self.rank})
                while True:
                    envelope = await self.transport.recv(ctrl)
                    if isinstance(envelope, StopEnvelope):
                        break
                    if isinstance(envelope, TickEnvelope):
                        # Advance-to-match: the collector advanced its
                        # replica once for this tick; a steady worker
                        # advances once too, while a freshly restarted
                        # one fast-forwards from zero to the same point.
                        while self._advanced <= envelope.period:
                            self.registry.advance_all()
                            self._advanced += 1
                        await self.fan_out(envelope)
        finally:
            write_json_atomic(
                self.spec.report_path(role),
                {"rank": self.rank, "metrics": self.metrics.registry.dump()},
            )

    async def fan_out(self, envelope: Envelope) -> None:
        for node in self.agents:
            self.transport.deliver_local(node, envelope)


class CollectorRuntime(_DeployHost):
    """The collector process: clock source, scorer, failure detector.

    It sees no other process's work and does not need to: the plan
    says which updates and heartbeats each period brings to the
    collector, so the envelopes that arrive tell it when a period is
    complete.
    """

    def __init__(self, spec: DeploySpec) -> None:
        super().__init__(spec, spec.collector_endpoint)
        self.collector = build_collector(
            self.plan,
            compile_layouts(self.plan),
            self.cluster.central_capacity,
            registry=self.registry,
            transport=self.transport,
            metrics=self.metrics,
            config=self.config,
        )

    async def run(self) -> None:
        try:
            async with hosting(self.transport, self.fan_out, {COLLECTOR_ADDRESS: self.collector}):
                await self.transport.start()
                write_json_atomic(self.spec.ready_path("collector"), {"role": "collector"})
                # Hold the clock until the supervisor says every
                # listener is up.  Not required for correctness --
                # outbound links retry with backoff -- but it keeps
                # period 0 from burning its window on dial retries.
                if not await wait_until(lambda: os.path.exists(self.spec.go_path), 30.0, 0.02):
                    log.emit(names.LOG_DEPLOY_GO_TIMEOUT, lane=names.LANE_DEPLOY, severity="error")
                await run_periods(
                    self.spec.periods,
                    self.config.period_seconds,
                    self.registry,
                    self.collector,
                    self.fan_out,
                )
        finally:
            write_json_atomic(
                self.spec.report_path("collector"),
                {
                    "samples": [asdict(sample) for sample in self.collector.samples],
                    "failure_events": [asdict(e) for e in self.collector.failure_events],
                    "metrics": self.metrics.registry.dump(),
                },
            )

    async def fan_out(self, envelope: Envelope) -> None:
        # The collector first and not through ``send``: it shares this
        # process's inboxes, and a tick must be in its inbox before the
        # first update it anchors can arrive.
        self.transport.deliver_local(COLLECTOR_ADDRESS, envelope)
        for rank in range(self.spec.workers):
            await self.transport.send(control_address(rank), envelope)


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
