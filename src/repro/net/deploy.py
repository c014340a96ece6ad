"""``repro deploy``: one plan, many processes, real sockets.

Every process is *deterministically reconstructible* rather than sent
objects: a :class:`DeploySpec` (a small JSON document) carries the
:class:`~repro.workloads.presets.Scenario`, runtime config, shard
assignment and endpoint table, and each worker rebuilds the identical
cluster, plan and ground-truth registry from it.  (Planning and
sampling are seeded and hash-order independent, so a worker killed and
restarted mid-run rebuilds the same world and resyncs its registry
replica off the next tick's period number.)

Every process is one :class:`~repro.runtime.engine.MonitoringRuntime`
hosting part of the plan's inboxes over its own
:class:`~repro.net.tcp.TcpTransport`.  The supervisor
(:func:`run_deploy`) spawns the workers, waits for each one's ready
message on a pipe (or its exit, on its process sentinel), then runs
the host with the collector and no agents, which owns the clock: each
period's tick goes to every node's inbox, wherever its worker
(:mod:`repro.net.worker`) listens, then to the collector's.  Updates
flow back, agent to parent or collector, the same way.  Worker exits
are sentinel events and chaos kills loop timers, so nothing polls.
The workers' metric dumps merge into the collector's
:class:`~repro.runtime.report.RuntimeReport`, whose ``as_dict`` output
is shape-identical to ``repro run --json``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import os
import socket
import tempfile
import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.attributes import NodeId
from repro.core.plan import MonitoringPlan
from repro.net.directory import Endpoint, PeerDirectory
from repro.net.tcp import TcpTransport
from repro.obs import log, names, trace
from repro.obs.export import write_jsonl_spans
from repro.runtime.config import RuntimeConfig
from repro.runtime.engine import MonitoringRuntime, run_report
from repro.runtime.messages import COLLECTOR_ADDRESS
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.report import RuntimeReport
from repro.workloads.presets import Scenario

if TYPE_CHECKING:  # multiprocessing loads only when a deploy runs
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

#: A worker that crashes more than this many times stays down.
MAX_RESTARTS_PER_WORKER = 3

#: Seconds every worker has to report ready before the launch fails.
STARTUP_TIMEOUT_S = 30.0


def shard_nodes(nodes: Sequence[NodeId], workers: int) -> List[List[NodeId]]:
    """Split ``nodes`` round-robin into ``workers`` balanced shards.

    Deterministic (input is sorted first) and balanced to within one
    node; returns one possibly-empty list per worker rank.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    shards: List[List[NodeId]] = [[] for _ in range(workers)]
    for index, node in enumerate(sorted(nodes)):
        shards[index % workers].append(node)
    return shards


def participating_nodes(plan: MonitoringPlan) -> List[NodeId]:
    """Every node that appears in any of the plan's trees, sorted."""
    found = {node for result in plan.trees.values() for node in result.tree.nodes}
    return sorted(found)


def allocate_endpoints(count: int, host: str = "127.0.0.1") -> List[Endpoint]:
    """Reserve ``count`` distinct free ports on ``host``.

    Binds ephemeral sockets to learn free port numbers, then closes
    them; all sockets are held open until every port is known so the
    OS cannot hand the same port out twice within one call.
    """
    sockets: List[socket.socket] = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.bind((host, 0))
            sockets.append(sock)
        return [Endpoint(host, sock.getsockname()[1]) for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


# ---------------------------------------------------------------------------
# The spec: everything a child process needs to rebuild its world
# ---------------------------------------------------------------------------
@dataclass
class DeploySpec:
    """The JSON-serializable contract between supervisor and children."""

    scenario: Scenario
    periods: int
    shards: List[List[NodeId]]
    worker_endpoints: List[Endpoint]
    collector_endpoint: Endpoint
    rundir: str
    config: Dict[str, Any] = field(default_factory=dict)
    #: When set, every worker and the supervisor's collector record
    #: spans and a JSONL log and dump the spans to :meth:`trace_path`
    #: on exit; ``repro trace`` merges the per-process artifacts into
    #: one Chrome trace.
    trace: bool = False

    @property
    def workers(self) -> int:
        return len(self.shards)

    # -- reconstruction -------------------------------------------------
    def build_config(self) -> RuntimeConfig:
        return RuntimeConfig(**self.config)

    def build_directory(self) -> PeerDirectory:
        """The full address table every process shares."""
        directory = PeerDirectory()
        for shard, endpoint in zip(self.shards, self.worker_endpoints):
            directory.assign(shard, endpoint)
        directory.assign([COLLECTOR_ADDRESS], self.collector_endpoint)
        return directory

    # -- rundir artifacts ----------------------------------------------
    @property
    def spec_path(self) -> str:
        return os.path.join(self.rundir, "spec.json")

    def report_path(self, role: str) -> str:
        return os.path.join(self.rundir, f"report-{role}.json")

    def trace_path(self, role: str) -> str:
        """Per-process span artifact (JSONL) written when tracing is on."""
        return os.path.join(self.rundir, f"trace-{role}.jsonl")

    def log_path(self, role: str) -> str:
        """Per-process structured-log JSONL sink (tracing runs only)."""
        return os.path.join(self.rundir, f"log-{role}.jsonl")

    def flight_path(self, role: str) -> str:
        """Flight-recorder dump for ``role`` (crash / restart / check fail)."""
        return os.path.join(self.rundir, f"flight-{role}.json")

    @contextlib.contextmanager
    def traced(self, role: str) -> Iterator[None]:
        """When tracing is on: a tracer and JSONL log sink of ``role``'s
        own for the body, its spans written to :meth:`trace_path` on the
        way out, clean or crashing."""
        if not self.trace:
            yield
            return
        with trace.installed() as tracer, log.sink(self.log_path(role)):
            try:
                yield
            finally:
                write_jsonl_spans(tracer.spans(), self.trace_path(role))

    # -- serialization -------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DeploySpec":
        """Inverse of the ``asdict`` that :meth:`save` writes."""
        return cls(**{
            **data,
            "scenario": Scenario(**data["scenario"]),
            "worker_endpoints": [Endpoint(**e) for e in data["worker_endpoints"]],
            "collector_endpoint": Endpoint(**data["collector_endpoint"]),
        })  # fmt: skip

    def save(self) -> str:
        write_json_atomic(self.spec_path, asdict(self))
        return self.spec_path

    @classmethod
    def load(cls, path: str) -> "DeploySpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def write_json_atomic(path: str, payload: Mapping[str, Any]) -> None:
    """Write-then-rename so readers never observe a torn file."""
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp_path, path)


# ---------------------------------------------------------------------------
# Spec construction
# ---------------------------------------------------------------------------
def make_spec(
    scenario: Scenario,
    workers: int,
    periods: int,
    config: Mapping[str, Any],
    rundir: Optional[str] = None,
    host: str = "127.0.0.1",
    trace: bool = False,
) -> Tuple[DeploySpec, MonitoringPlan]:
    """Plan once, shard, allocate ports, and save the spec.

    Returns the saved spec and the supervisor's plan (for the pre-launch
    plan check and report headers).
    """
    if rundir is None:
        rundir = tempfile.mkdtemp(prefix="repro-deploy-")
    else:
        os.makedirs(rundir, exist_ok=True)
    plan = scenario.plan()
    endpoints = allocate_endpoints(workers + 1, host=host)
    spec = DeploySpec(
        scenario=scenario,
        periods=periods,
        shards=shard_nodes(participating_nodes(plan), workers),
        worker_endpoints=endpoints[:workers],
        collector_endpoint=endpoints[workers],
        rundir=rundir,
        config=dict(config),
        trace=trace,
    )
    spec.save()
    return spec, plan


# ---------------------------------------------------------------------------
# The supervisor
# ---------------------------------------------------------------------------
@dataclass
class DeployOutcome:
    """What one supervised deployment produced."""

    report: RuntimeReport
    spec: DeploySpec
    restarts: Dict[int, int]
    worker_reports: int
    #: Per-process span artifacts found in the rundir (tracing runs).
    trace_files: List[str] = field(default_factory=list)
    #: Flight-recorder dumps found in the rundir (crashes/restarts).
    flight_records: List[str] = field(default_factory=list)

    def restart_total(self) -> int:
        return sum(self.restarts.values())


class DeployError(RuntimeError):
    """The deployment could not complete (startup or collector failure)."""


class _Supervisor:
    """The clock's host -- the collector and no agents -- and the
    workers' lives."""

    def __init__(
        self,
        spec: DeploySpec,
        plan: MonitoringPlan,
        metrics: RuntimeMetrics,
        chaos_kill: Mapping[int, float],
    ) -> None:
        import multiprocessing

        self.spec = spec
        self.chaos_kill = dict(chaos_kill)
        self.context = multiprocessing.get_context("spawn")
        endpoint = spec.collector_endpoint
        self.runtime = MonitoringRuntime(
            plan,
            spec.scenario.workload[0],
            config=spec.build_config(),
            transport=TcpTransport(
                spec.build_directory(), listen_host=endpoint.host, listen_port=endpoint.port
            ),
            metrics=metrics,
            nodes=(),
        )
        self.workers: Dict[int, BaseProcess] = {}
        self.restarts: Dict[int, int] = {rank: 0 for rank in range(spec.workers)}

    def launch(self) -> None:
        """Spawn every worker; return once each has said it is ready.

        Blocks on the ready pipes and the sentinels together: a worker
        that exits first (unreadable spec, port taken) fails the launch
        at once.
        """
        from multiprocessing.connection import wait

        unready: Dict[Connection, int] = {}
        try:
            for rank in range(self.spec.workers):
                receiver, sender = self.context.Pipe(duplex=False)
                unready[receiver] = rank
                self._spawn(rank, sender)
                sender.close()  # the worker holds the only write end now
            deadline = time.monotonic() + STARTUP_TIMEOUT_S
            while unready:
                sentinels = {self.workers[rank].sentinel: rank for rank in unready.values()}
                events = wait([*unready, *sentinels], max(deadline - time.monotonic(), 0))
                if not events:
                    late = sorted(f"worker-{rank}" for rank in unready.values())
                    raise DeployError(
                        f"timed out after {STARTUP_TIMEOUT_S:.0f}s waiting for readiness of {late}"
                    )
                for event in events:
                    if event in sentinels:
                        process = self.workers[sentinels[event]]
                        process.join()
                        raise DeployError(
                            f"worker-{sentinels[event]} exited with code {process.exitcode} "
                            "before it was ready"
                        )
                    with contextlib.suppress(EOFError):  # EOF: its sentinel follows
                        event.recv()
                        del unready[event]
                        event.close()
        finally:
            for receiver in unready:
                receiver.close()

    async def run(self) -> None:
        """Tick every period; restart workers that die on the way."""
        loop = asyncio.get_running_loop()
        for rank, process in self.workers.items():
            loop.add_reader(process.sentinel, self._exited, loop, rank)
        kills = [
            loop.call_later(after, self._kill, rank, after)
            for rank, after in self.chaos_kill.items()
        ]
        try:
            await self.runtime.run_async(self.spec.periods)
        except Exception as exc:
            log.emit(
                names.LOG_DEPLOY_WORKER_CRASH,
                lane=names.LANE_DEPLOY,
                severity="error",
                role="collector",
                error=repr(exc),
            )
            log.dump_flight(self.spec.flight_path("supervisor"), reason=f"collector crashed: {exc!r}")
            raise DeployError(f"collector crashed: {exc!r}") from exc
        finally:
            # The run is over: no more kills, and no restart for the
            # workers exiting on the stop.
            for handle in kills:
                handle.cancel()
            for process in self.workers.values():
                loop.remove_reader(process.sentinel)

    def _spawn(self, rank: int, ready: Optional[Connection]) -> BaseProcess:
        # Child entrypoints live in repro.net.worker; imported lazily to
        # keep module import acyclic (worker imports deploy for the spec).
        from repro.net.worker import worker_main

        process = self.workers[rank] = self.context.Process(
            target=worker_main, args=(self.spec.spec_path, rank, ready), daemon=True
        )
        process.start()
        return process

    def _exited(self, loop: asyncio.AbstractEventLoop, rank: int) -> None:
        process = self.workers[rank]
        loop.remove_reader(process.sentinel)
        process.join()  # the sentinel says it is gone; reap it
        code = process.exitcode
        if code == 0:
            return  # a clean exit: every agent took its stop
        if self.restarts[rank] >= MAX_RESTARTS_PER_WORKER:
            # Out of restarts: the clock stops ticking the shard, whose
            # link would otherwise fill until a tick's send blocks.  The
            # tick being sent, if any, goes out over its own copy.
            shard = set(self.spec.shards[rank])
            inboxes = self.runtime.inboxes
            inboxes[:] = [address for address in inboxes if address not in shard]
            return
        self.restarts[rank] += 1
        self.runtime.metrics.incr(names.DEPLOY_WORKER_RESTARTS, rank=rank)
        # The SIGKILLed child cannot dump its own flight record -- the
        # supervisor dumps what *it* saw instead.
        log.emit(
            names.LOG_DEPLOY_WORKER_RESTART,
            lane=names.LANE_DEPLOY,
            severity="warning",
            rank=rank,
            restart=self.restarts[rank],
            exitcode=code,
        )
        log.dump_flight(
            self.spec.flight_path("supervisor"),
            reason=f"worker-{rank} exited {code}; restarting",
        )
        loop.add_reader(self._spawn(rank, None).sentinel, self._exited, loop, rank)

    def _kill(self, rank: int, after: float) -> None:
        process = self.workers[rank]
        if process.is_alive():
            # Chaos: SIGKILL, no cleanup -- the restart path must bring
            # the shard back on its own.
            log.emit(
                names.LOG_DEPLOY_CHAOS_KILL,
                lane=names.LANE_DEPLOY,
                severity="warning",
                rank=rank,
                after_seconds=after,
            )
            process.kill()


def run_deploy(
    spec: DeploySpec,
    plan: MonitoringPlan,
    chaos_kill: Optional[Mapping[int, float]] = None,
    metrics: Optional[RuntimeMetrics] = None,
) -> DeployOutcome:
    """Host the collector, supervise the workers, and harvest the run.

    ``chaos_kill`` maps worker rank -> seconds after every worker is
    ready at which the supervisor SIGKILLs that worker once (it is then
    restarted through the normal crash path -- the kill-and-restart
    acceptance test).

    The collector records into ``metrics`` directly, and every
    worker's registry is merged into it (counters added, histograms
    merged), so ``DeployOutcome.report.as_dict()`` has the exact
    ``repro run --json`` shape.
    """
    merged = metrics if metrics is not None else RuntimeMetrics()
    started = time.monotonic()
    supervisor = _Supervisor(spec, plan, merged, chaos_kill or {})
    # The collector's spans go to its own artifact, whatever tracer the
    # caller holds (and ingests the artifacts into).
    with spec.traced("collector"):
        try:
            supervisor.launch()
            asyncio.run(supervisor.run())
            # Stop is on its way to every worker; give them a moment to
            # flush their report files, then insist.
            for process in supervisor.workers.values():
                process.join(timeout=10.0)
        finally:
            for process in supervisor.workers.values():
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5.0)
                if process.is_alive():  # pragma: no cover - last resort
                    process.kill()

    # -- harvest -------------------------------------------------------
    worker_reports = 0
    for rank in range(spec.workers):
        worker_report_path = spec.report_path(f"worker-{rank}")
        if not os.path.exists(worker_report_path):
            continue  # worker never reached a clean stop (restart storm)
        with open(worker_report_path) as fh:
            merged.registry.absorb(json.load(fh)["metrics"])
        worker_reports += 1

    report = run_report(plan, spec.periods, supervisor.runtime.collector, merged, started)
    roles = ["collector", "supervisor"] + [
        f"worker-{rank}" for rank in range(spec.workers)
    ]
    return DeployOutcome(
        report=report,
        spec=spec,
        restarts=supervisor.restarts,
        worker_reports=worker_reports,
        trace_files=[
            p for p in (spec.trace_path(role) for role in roles) if os.path.exists(p)
        ],
        flight_records=[
            p for p in (spec.flight_path(role) for role in roles) if os.path.exists(p)
        ],
    )


def parse_chaos_kill(spec: str) -> Tuple[int, float]:
    """Parse a ``RANK:SECONDS`` chaos-kill directive."""
    parts = spec.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected RANK:SECONDS, got {spec!r}")
    rank, seconds = int(parts[0]), float(parts[1])
    if rank < 0 or seconds < 0:
        raise ValueError(f"RANK and SECONDS must be non-negative, got {spec!r}")
    if not math.isfinite(seconds):
        raise ValueError(f"SECONDS must be finite, got {spec!r}")
    return rank, seconds


__all__ = [
    "MAX_RESTARTS_PER_WORKER",
    "DeployError",
    "DeployOutcome",
    "DeploySpec",
    "allocate_endpoints",
    "make_spec",
    "parse_chaos_kill",
    "participating_nodes",
    "run_deploy",
    "shard_nodes",
    "write_json_atomic",
]
