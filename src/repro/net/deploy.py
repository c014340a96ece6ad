"""``repro deploy``: one plan, many processes, real sockets.

The deployment model keeps every process *deterministically
reconstructible* instead of shipping objects between processes: a
:class:`DeploySpec` (a small JSON document) carries the
:class:`~repro.workloads.presets.Scenario`, runtime config, shard
assignment, and endpoint table, and every child process independently
rebuilds the identical cluster, task list, plan, and ground-truth
:class:`~repro.cluster.metrics.MetricRegistry` from it.  (Planning and
sampling are fully seeded and hash-order independent, so N processes
re-planning from one spec agree bit-for-bit -- and a worker that is
killed and restarted mid-run rebuilds the same world and resyncs its
registry replica off the next tick's period number.)

Topology: the collector runs in its own process and drives the clock
-- one :class:`~repro.runtime.messages.TickEnvelope` per worker per
period, addressed to the worker's reserved *control address*
(:func:`control_address`), which the worker fans out to its local node
agents.  Update and heartbeat envelopes flow the other way, straight
from agents to the collector (or to parent nodes, which may live in a
different worker) through each process's
:class:`~repro.net.tcp.TcpTransport`.

The supervisor (:func:`run_deploy`) spawns children, waits for
readiness files, restarts crashed workers with a bounded budget,
optionally injects a chaos kill, and merges the children's metric
dumps into one :class:`~repro.runtime.report.RuntimeReport` whose
``as_dict`` output is shape-identical to ``repro run --json``.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import tempfile
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.attributes import NodeId
from repro.core.plan import MonitoringPlan, ShardedPlan
from repro.net.directory import Endpoint, PeerDirectory
from repro.obs import log, names
from repro.runtime.collector import FailureEvent
from repro.runtime.config import RuntimeConfig
from repro.runtime.engine import wait_until
from repro.runtime.messages import check_collector_count, collector_shard_address
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.report import RuntimePeriodSample, RuntimeReport
from repro.workloads.presets import Scenario

#: Worker control inboxes live at ``CONTROL_ADDRESS_BASE - rank`` --
#: below every plan NodeId (>= 0) and distinct from the collector (-1).
CONTROL_ADDRESS_BASE = -1000

#: A worker that crashes more than this many times stays down.
MAX_RESTARTS_PER_WORKER = 3

#: Seconds every child has to report ready before the launch fails.
STARTUP_TIMEOUT_S = 30.0


def control_address(rank: int) -> NodeId:
    """The reserved inbox address of worker ``rank``'s control loop."""
    if rank < 0:
        raise ValueError(f"rank must be >= 0, got {rank}")
    return CONTROL_ADDRESS_BASE - rank


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
    #: Collector shards co-hosted in the collector process; every shard
    #: address resolves to the collector endpoint (hash-sharded trees).
    collectors: int = 1
    #: When set, every child installs a tracer + JSONL log sink and
    #: dumps its spans to :meth:`trace_path` on exit; ``repro trace``
    #: merges the per-process artifacts into one Chrome trace.
    trace: bool = False

    @property
    def workers(self) -> int:
        return len(self.shards)

    # -- reconstruction -------------------------------------------------
    def build_config(self) -> RuntimeConfig:
        return RuntimeConfig(**self.config)

    def build_sharded(self, plan: MonitoringPlan) -> Optional[ShardedPlan]:
        """The collector-shard layout, or ``None`` when unsharded.

        Sharding keys on canonical attribute-set strings, so every
        process that replans from this spec derives the identical
        set -> shard assignment without shipping it in the spec.
        """
        if self.collectors <= 1:
            return None
        return ShardedPlan.build(plan, self.collectors)

    def build_directory(self) -> PeerDirectory:
        """The full address table every process shares."""
        directory = PeerDirectory()
        for rank, shard in enumerate(self.shards):
            endpoint = self.worker_endpoints[rank]
            directory.assign(shard, endpoint)
            directory.assign([control_address(rank)], endpoint)
        directory.assign(
            [collector_shard_address(shard) for shard in range(self.collectors)],
            self.collector_endpoint,
        )
        return directory

    # -- file-based coordination ---------------------------------------
    @property
    def spec_path(self) -> str:
        return os.path.join(self.rundir, "spec.json")

    def ready_path(self, role: str) -> str:
        """The readiness-marker file for ``collector`` / ``worker-N``."""
        return os.path.join(self.rundir, f"ready-{role}")

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

    @property
    def go_path(self) -> str:
        """Written by the supervisor once every process is ready."""
        return os.path.join(self.rundir, "go")

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
    collectors: int = 1,
    trace: bool = False,
) -> Tuple[DeploySpec, MonitoringPlan]:
    """Plan once, shard, allocate ports, and save the spec.

    Returns the saved spec and the supervisor's plan (for the pre-launch
    plan check and report headers).
    """
    check_collector_count(collectors)
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
        collectors=collectors,
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


def run_deploy(
    spec: DeploySpec,
    plan: MonitoringPlan,
    chaos_kill: Optional[Mapping[int, float]] = None,
    metrics: Optional[RuntimeMetrics] = None,
) -> DeployOutcome:
    """Spawn, supervise, and harvest one multi-process deployment.

    ``chaos_kill`` maps worker rank -> seconds after go at which the
    supervisor SIGKILLs that worker once (it is then restarted through
    the normal crash path -- the kill-and-restart acceptance test).

    The merged report's metrics are the union of the collector's and
    every worker's registries (counters added, histograms merged), so
    ``DeployOutcome.report.as_dict()`` has the exact ``repro run
    --json`` shape.
    """
    # Child entrypoints live in repro.net.worker; imported lazily to
    # keep module import acyclic (worker imports deploy for the spec).
    import multiprocessing

    from repro.net.worker import collector_main, worker_main

    merged = metrics if metrics is not None else RuntimeMetrics()
    started = time.monotonic()
    context = multiprocessing.get_context("spawn")
    restarts: Dict[int, int] = {rank: 0 for rank in range(spec.workers)}
    pending_kill = dict(chaos_kill or {})

    def spawn_worker(rank: int):
        process = context.Process(
            target=worker_main, args=(spec.spec_path, rank), daemon=True
        )
        process.start()
        return process

    collector = context.Process(
        target=collector_main, args=(spec.spec_path,), daemon=True
    )
    collector.start()
    workers = {rank: spawn_worker(rank) for rank in range(spec.workers)}
    go_at: Optional[float] = None
    try:
        children = {"collector": collector}
        children.update((f"worker-{rank}", process) for rank, process in workers.items())

        def unready() -> List[str]:
            return [role for role in children if not os.path.exists(spec.ready_path(role))]

        def dead_child() -> None:
            # A child that died before its ready marker (unreadable
            # spec, port taken) will never write it: say so now.
            for role in unready():
                code = children[role].exitcode
                if code is not None:
                    raise DeployError(f"{role} exited with code {code} before it was ready")

        if not asyncio.run(wait_until(lambda: not unready(), STARTUP_TIMEOUT_S, 0.02, dead_child)):
            raise DeployError(
                f"timed out after {STARTUP_TIMEOUT_S:.0f}s waiting for readiness of {unready()}"
            )
        # Every listener is up: release the collector's clock.
        write_json_atomic(spec.go_path, {"go": True})
        go_at = time.monotonic()

        while collector.is_alive():
            now = time.monotonic()
            for rank, kill_after in list(pending_kill.items()):
                if now - go_at >= kill_after and workers[rank].is_alive():
                    # Chaos: SIGKILL, no cleanup -- the restart path
                    # below must bring the shard back on its own.
                    log.emit(
                        names.LOG_DEPLOY_CHAOS_KILL,
                        lane=names.LANE_DEPLOY,
                        severity="warning",
                        rank=rank,
                        after_seconds=kill_after,
                    )
                    workers[rank].kill()
                    del pending_kill[rank]
            for rank, process in list(workers.items()):
                if process.is_alive():
                    continue
                if process.exitcode == 0:
                    continue  # clean exit (stop received); nothing to revive
                if restarts[rank] >= MAX_RESTARTS_PER_WORKER:
                    continue
                restarts[rank] += 1
                merged.incr(names.DEPLOY_WORKER_RESTARTS, rank=rank)
                # The SIGKILLed child cannot dump its own flight record
                # -- the supervisor dumps what *it* saw instead.
                log.emit(
                    names.LOG_DEPLOY_WORKER_RESTART,
                    lane=names.LANE_DEPLOY,
                    severity="warning",
                    rank=rank,
                    restart=restarts[rank],
                    exitcode=process.exitcode,
                )
                log.dump_flight(
                    spec.flight_path("supervisor"),
                    reason=f"worker-{rank} exited {process.exitcode}; restarting",
                )
                workers[rank] = spawn_worker(rank)
            time.sleep(0.02)

        if collector.exitcode != 0:
            raise DeployError(
                f"collector process exited with code {collector.exitcode}"
            )
        # The collector has sent stop everywhere; give workers a
        # moment to flush their report files, then insist.
        for process in workers.values():
            process.join(timeout=10.0)
    finally:
        for process in [collector, *workers.values()]:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()

    # -- harvest -------------------------------------------------------
    collector_report_path = spec.report_path("collector")
    if not os.path.exists(collector_report_path):
        raise DeployError("collector exited without writing its report")
    with open(collector_report_path) as fh:
        collector_dump = json.load(fh)
    merged.registry.absorb(collector_dump["metrics"])
    worker_reports = 0
    for rank in range(spec.workers):
        worker_report_path = spec.report_path(f"worker-{rank}")
        if not os.path.exists(worker_report_path):
            continue  # worker never reached a clean stop (restart storm)
        with open(worker_report_path) as fh:
            merged.registry.absorb(json.load(fh)["metrics"])
        worker_reports += 1

    report = RuntimeReport(
        requested_pairs=len(plan.pairs),
        n_periods=spec.periods,
        samples=[RuntimePeriodSample(**s) for s in collector_dump["samples"]],
        failure_events=[FailureEvent(**e) for e in collector_dump["failure_events"]],
        metrics=merged,
        wall_seconds=time.monotonic() - started,
    )
    roles = ["collector", "supervisor"] + [
        f"worker-{rank}" for rank in range(spec.workers)
    ]
    return DeployOutcome(
        report=report,
        spec=spec,
        restarts=restarts,
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
    return rank, seconds


__all__ = [
    "CONTROL_ADDRESS_BASE",
    "MAX_RESTARTS_PER_WORKER",
    "DeployError",
    "DeployOutcome",
    "DeploySpec",
    "allocate_endpoints",
    "control_address",
    "make_spec",
    "parse_chaos_kill",
    "participating_nodes",
    "run_deploy",
    "shard_nodes",
    "write_json_atomic",
]
