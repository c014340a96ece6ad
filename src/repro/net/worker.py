"""The worker process of ``repro deploy``.

:func:`worker_main` (one per shard) rebuilds its world from one
:class:`~repro.net.deploy.DeploySpec` and hosts the shard's
:class:`~repro.runtime.agent.NodeAgent` tasks in a
:class:`~repro.runtime.engine.MonitoringRuntime` (``nodes=`` the
shard) behind a :class:`~repro.net.tcp.TcpTransport` listener.  Once
the listener is bound and the agents listen, the worker says so on
the ready pipe the supervisor handed it.

The collector and the clock live in the supervisor
(:func:`repro.net.deploy.run_deploy`), which sends each tick, and at
the end the stop, straight to every agent's inbox.  Each agent brings
the worker's ground-truth replica to its tick's period
(:meth:`~repro.cluster.metrics.MetricRegistry.advance_to`), so a
freshly restarted worker catches up on its first tick.  Once every
agent has taken its stop, the worker dumps its full metrics registry
to a JSON report file the supervisor merges.  The entry function is
module-level so the ``spawn`` multiprocessing context can import it
by name.
"""

from __future__ import annotations

import asyncio
from multiprocessing.connection import Connection
from typing import Optional

from repro.net.deploy import DeploySpec, write_json_atomic
from repro.net.tcp import TcpTransport
from repro.obs import log, names
from repro.runtime.engine import MonitoringRuntime, hosting


class WorkerRuntime:
    """One shard of node agents, hosted until each has taken its stop."""

    def __init__(self, spec: DeploySpec, rank: int) -> None:
        self.spec = spec
        self.rank = rank
        endpoint = spec.worker_endpoints[rank]
        # The engine's own host over the identical re-planned forest:
        # single-process runs and deploy workers can never disagree
        # about tree ids, depths, or local demands.
        self.runtime = MonitoringRuntime(
            spec.scenario.plan(),
            spec.scenario.workload[0],
            config=spec.build_config(),
            transport=TcpTransport(
                spec.build_directory(), listen_host=endpoint.host, listen_port=endpoint.port
            ),
            nodes=spec.shards[rank],
        )

    async def run(self, ready: Optional[Connection]) -> None:
        runtime = self.runtime
        try:
            async with hosting(runtime.transport, runtime.agents) as tasks:
                await runtime.transport.start()
                if ready is not None:
                    # Listener bound, agents listening: tell the supervisor.
                    ready.send(self.rank)
                    ready.close()
                if tasks:
                    await asyncio.wait(tasks)
        finally:
            write_json_atomic(
                self.spec.report_path(f"worker-{self.rank}"),
                {"rank": self.rank, "metrics": runtime.metrics.registry.dump()},
            )


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
