"""The worker process of ``repro deploy``.

:func:`worker_main` (one per shard) rebuilds its world from one
:class:`~repro.net.deploy.DeploySpec` and hosts the shard's
:class:`~repro.runtime.agent.NodeAgent` tasks behind a
:class:`~repro.net.tcp.TcpTransport` listener, plus a *control loop*
on the worker's reserved address: each inbound tick advances the
local ground-truth registry replica to match the tick's period
(``advance-to-match`` -- what lets a freshly restarted worker resync
deterministically mid-run) and fans the tick out to the local agents.
Once the listener is bound and the agents listen, the worker says so
on the ready pipe the supervisor handed it.

The collector and the clock live in the supervisor
(:func:`repro.net.deploy.run_deploy`).  On stop the worker dumps its
full metrics registry to a JSON report file the supervisor merges.
The entry function is module-level so the ``spawn`` multiprocessing
context can import it by name.
"""

from __future__ import annotations

import asyncio
from multiprocessing.connection import Connection
from typing import Optional

from repro.net.deploy import DeploySpec, control_address, write_json_atomic
from repro.net.tcp import TcpTransport
from repro.obs import log, names
from repro.runtime.engine import build_agents, compile_layouts, ground_truth, hosting
from repro.runtime.messages import Envelope, StopEnvelope, TickEnvelope
from repro.runtime.metrics import RuntimeMetrics


class WorkerRuntime:
    """One shard of node agents plus the tick/stop control loop."""

    def __init__(self, spec: DeploySpec, rank: int) -> None:
        self.spec = spec
        self.rank = rank
        self.config = spec.build_config()
        cluster, plan = spec.scenario.workload[0], spec.scenario.plan()
        self.registry = ground_truth(plan, self.config.seed)
        self.metrics = RuntimeMetrics()
        endpoint = spec.worker_endpoints[rank]
        self.transport = TcpTransport(
            spec.build_directory(),
            listen_host=endpoint.host,
            listen_port=endpoint.port,
            metrics=self.metrics,
        )
        self._advanced = 0
        # The engine's own agent builder, over the identical re-planned
        # forest: single-process runs and deploy workers can never
        # disagree about tree ids, depths, or local demands.
        self.agents = build_agents(
            plan, compile_layouts(plan), cluster, self.registry, self.transport,
            self.metrics, self.config, nodes=spec.shards[rank],
        )  # fmt: skip

    async def run(self, ready: Optional[Connection]) -> None:
        ctrl = control_address(self.rank)
        try:
            async with hosting(self.transport, self.fan_out, self.agents, ctrl):
                await self.transport.start()
                if ready is not None:
                    # Listener bound, agents listening: tell the supervisor.
                    ready.send(self.rank)
                    ready.close()
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
                self.spec.report_path(f"worker-{self.rank}"),
                {"rank": self.rank, "metrics": self.metrics.registry.dump()},
            )

    async def fan_out(self, envelope: Envelope) -> None:
        for node in self.agents:
            self.transport.deliver_local(node, envelope)


def worker_main(spec_path: str, rank: int, ready: Optional[Connection]) -> None:
    """Entrypoint of worker process ``rank``; ``ready`` is the write end
    of the supervisor's ready pipe (``None`` for a restart, which nobody
    waits on).

    Traced as :meth:`DeploySpec.traced` says.  The flight recorder is
    always on: a crash dumps the last events/spans to the worker's
    flight artifact before the exception propagates -- a SIGKILLed
    worker cannot, which is why the supervisor dumps its own on
    restarts.
    """
    spec = DeploySpec.load(spec_path)
    role = f"worker-{rank}"
    with spec.traced(role):
        log.emit(names.LOG_DEPLOY_WORKER_START, lane=names.LANE_DEPLOY, role=role)
        try:
            asyncio.run(WorkerRuntime(spec, rank).run(ready))
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
