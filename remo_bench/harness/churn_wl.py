"""The control-plane workload: ``churn_serve``.

``python -m repro serve`` runs as a child process (its own interpreter,
so client and server share no GIL) and one closed-loop client with one
keep-alive connection drives it:

1. *epochs* of the paper's Section 7.1 update protocol -- submit a
   sampled task set across four tenants, force a first plan, then
   rounds of {a ``TaskUpdateStream`` batch sent as ``update_task``
   calls, a timed ``POST /adapt``, ten reads}, then delete the tasks.
   Every epoch has its own task set and update stream: adapt latency
   depends on both, and one set per run would make the figures a
   property of the draw;
2. after every epoch, a *burst slice*: small ``submit_task`` calls
   interleaved 2:1 with ``get_task`` reads, then the deletes -- writes
   beside reads.

The epochs are a fixed *panel* (the same task sets and update streams
whatever ``--seed`` says): with seed-drawn epochs the median adapt
moved 10% and the p90 18% from seed to seed on a quiet machine, more
than any change worth catching.  ``--seed`` decides the order of the
epochs and every burst slice's tasks.

The script runs ``PASSES`` times over, half a run apart; every adapt
keeps the fastest of its readings, and every epoch the least server
CPU (read from ``/proc``) any pass spent on it.  The reference VM has
slow stretches of seconds, interference only ever adds time, and a
stretch that catches one pass rarely catches the other.  Every pass
must reproduce the first one's adapt records exactly.

Requests per server CPU second is taken over the whole script, not
over the burst: the burst's 200 us requests are mostly system calls and
context switches, whose cost on a shared VM swung by 40% from one
second to the next (3,300 or 4,800 requests per CPU second within one
run) while the adapts beside them did not move.

The server's cluster is fixed (it is the deployment, not the
workload).  The traced run replays the same script against an
in-process ``ControlPlane`` with no sockets, so the HTTP layer's share
is end-to-end minus direct.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.tasks import MonitoringTask
from repro.obs.export import prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.serve import ControlPlane, ControlPlaneClient
from repro.workloads.presets import sampled_workload
from repro.workloads.tasks import TaskSampler
from repro.workloads.updates import TaskUpdateStream

from harness import layers
from harness.common import (
    SRC_DIR,
    Outcome,
    median,
    percentile,
    ratio,
    results_path,
    sub_seeds,
)
from harness.spans import Patcher, Recorder

NAME = "churn_serve"
#: The deployment behind the control plane (same shape as ``plan_search``:
#: capacity-pressured, so throttling and trimming are live).
NODES, TASKS, CAPACITY, CLUSTER_SEED = 48, 12, 200.0, 1
TENANTS = 4
ROUNDS_PER_EPOCH = 25
#: ``--seconds`` / this = epochs run (1.5 to 2 s of requests each on the
#: reference box: opening, rounds, closing and the burst slice).
EPOCH_SECONDS = 1.8
#: Times the panel of epochs is run; every adapt keeps its fastest pass.
PASSES = 2
#: Submits per burst slice (one slice follows every epoch).
BURST_SLICE = 225
BURST_ATTRS, BURST_NODES = 3, 6
TRACED_SHARE = 0.4
#: The panel's epochs are drawn from this, not from ``--seed``.
PANEL_SEED = 0
SERVER_LIFETIME_SECONDS = 170
_EPS = 1e-9
#: What an adapt record must repeat, pass after pass.
RECORD_KEYS = (
    "ops", "requested_pairs", "coverage", "monitoring_volume",
    "applied_ops", "throttled_ops", "adaptation_messages",
)  # fmt: skip

TaskBody = Tuple[str, str, List[str], List[int]]  # tenant, task id, attributes, nodes


# ----------------------------------------------------------------------
# The request script
# ----------------------------------------------------------------------
@dataclass
class Epoch:
    tasks: List[TaskBody]
    #: One update batch per round.
    rounds: List[List[TaskBody]]
    #: The burst slice that follows the epoch.
    burst: List[TaskBody]


@dataclass
class Script:
    epochs: List[Epoch]


def _body(tenant: str, task: MonitoringTask) -> TaskBody:
    return (tenant, task.task_id, sorted(task.attributes), sorted(task.nodes))


def make_script(seed: int, seconds: float, share: float = 1.0) -> Tuple[Any, Any, Script]:
    """Cluster, cost model and one pass of the request sequence."""
    cluster, cost, _tasks = sampled_workload(
        nodes=NODES, tasks=TASKS, capacity=CAPACITY, seed=CLUSTER_SEED
    )
    n_epochs = max(1, round(seconds * share / EPOCH_SECONDS / PASSES))
    node_ids = cluster.node_ids
    observable = {node.node_id: sorted(node.attributes) for node in cluster}
    epochs = []
    for index, sub in enumerate(sub_seeds(NAME, PANEL_SEED, n_epochs)):
        tasks = TaskSampler(cluster, seed=sub).sample_many(
            TASKS, (2, 5), (max(5, NODES // 6), max(6, NODES // 2)), prefix=f"e{index}t"
        )
        tenant_of = {task.task_id: f"tenant-{i % TENANTS}" for i, task in enumerate(tasks)}
        stream = TaskUpdateStream(cluster, tasks, node_fraction=0.05, attr_fraction=0.5, seed=sub)
        rounds = [
            [_body(tenant_of[task.task_id], task) for _op, task in stream.next_batch()]
            for _ in range(ROUNDS_PER_EPOCH)
        ]
        rng = random.Random(f"{NAME}:burst:{seed}:{index}")
        burst = []
        for number in range(BURST_SLICE):
            nodes = rng.sample(node_ids, BURST_NODES)
            pool = sorted({attr for node in nodes for attr in observable[node]})
            burst.append(
                (
                    f"tenant-{number % TENANTS}",
                    f"e{index}b{number}",
                    rng.sample(pool, BURST_ATTRS),
                    nodes,
                )
            )
        epochs.append(
            Epoch(
                [_body(tenant_of[t.task_id], t) for t in tasks],
                [batch for batch in rounds if batch],
                burst,
            )
        )
    random.Random(f"{NAME}:order:{seed}").shuffle(epochs)
    return cluster, cost, Script(epochs)


# ----------------------------------------------------------------------
# The in-process backend: ControlPlaneClient's calls, no sockets
# ----------------------------------------------------------------------
class DirectBackend:
    """The methods of :class:`ControlPlaneClient` the script uses,
    straight on a :class:`ControlPlane` -- so one driver serves the HTTP
    run and the traced replay and the two cannot drift apart."""

    def __init__(self, controlplane: ControlPlane) -> None:
        self.cp = controlplane
        self.delete_task = controlplane.delete_task
        self.get_task = controlplane.get_task
        self.plan = controlplane.plan_summary
        self.status = controlplane.status
        self.list_tasks = controlplane.tenants.tasks

    def submit_task(self, tenant: str, task_id: str, attributes: List[str], nodes: List[int]) -> None:
        self.cp.submit_task(tenant, MonitoringTask(task_id, attributes, nodes))

    def update_task(self, tenant: str, task_id: str, attributes: List[str], nodes: List[int]) -> None:
        self.cp.update_task(tenant, MonitoringTask(task_id, attributes, nodes))

    def metrics_text(self) -> str:
        return prometheus_text(self.cp.metrics)

    def adapt(self, force_rebuild: bool = False) -> Dict[str, Any]:
        return self.cp.adapt(force_rebuild=force_rebuild)


# ----------------------------------------------------------------------
# Driving a script
# ----------------------------------------------------------------------
@dataclass
class Timings:
    adapt_s: List[float] = field(default_factory=list)
    write_s: List[float] = field(default_factory=list)
    read_s: List[float] = field(default_factory=list)
    records: List[Dict[str, Any]] = field(default_factory=list)
    requests: int = 0
    errors: int = 0
    final_pairs: int = 0


class Driver:
    """Issues a script's requests one at a time, counting and checking."""

    def __init__(self, backend: Any, outcome: Outcome, rec: Optional[Recorder] = None) -> None:
        self.backend = backend
        self.outcome = outcome
        self.timings = Timings()
        #: When tracing, every request is its own trace.
        self.rec = rec

    def call(self, bucket: Optional[List[float]], fn: Callable[..., Any], *args: Any) -> Any:
        self.outcome.attempted += 1
        self.timings.requests += 1
        if self.rec is not None:
            self.rec.trace_id = self.timings.requests
        started = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 -- any failed request is a counted failure, not a crash
            self.outcome.failed += 1
            self.timings.errors += 1
            self.outcome.check(False, f"{getattr(fn, '__name__', fn)}{args[:2]}: {exc!r}")
            return None
        if bucket is not None:
            bucket.append(perf_counter() - started)
        return result

    # -- epochs --------------------------------------------------------
    def open_epoch(self, epoch: Epoch) -> None:
        for body in epoch.tasks:
            self.call(None, self.backend.submit_task, *body)
        self.call(None, self.backend.adapt, True)

    def run_rounds(self, epoch: Epoch) -> None:
        backend, timings = self.backend, self.timings
        for batch in epoch.rounds:
            for body in batch:
                self.call(None, backend.update_task, *body)
            record = self.call(timings.adapt_s, backend.adapt)
            summary = self.call(None, backend.plan)
            if record is not None and summary is not None:
                timings.records.append(record)
                self.outcome.check(
                    summary["coverage"] >= record["coverage"] - _EPS,
                    f"plan coverage {summary['coverage']} below the adapt "
                    f"record's {record['coverage']}",
                )
            # Nine more reads beside the writes: six task reads, a
            # listing, the status and the metrics scrape.
            for tenant, task_id, _attrs, _nodes in (epoch.tasks * 2)[:6]:
                self.call(None, backend.get_task, tenant, task_id)
            self.call(None, backend.list_tasks, epoch.tasks[0][0])
            self.call(None, backend.status)
            self.call(None, backend.metrics_text)

    def close_epoch(self, epoch: Epoch) -> None:
        for tenant, task_id, _attrs, _nodes in epoch.tasks:
            self.call(None, self.backend.delete_task, tenant, task_id)
        self.call(None, self.backend.adapt)

    # -- burst ---------------------------------------------------------
    def run_burst(self, burst: Sequence[TaskBody]) -> None:
        """Submits 2:1 with reads, then the deletes."""
        backend, timings = self.backend, self.timings
        for index, body in enumerate(burst):
            self.call(timings.write_s, backend.submit_task, *body)
            if index % 2:
                self.call(timings.read_s, backend.get_task, body[0], body[1])
        status = self.call(None, backend.status)
        if status is not None:
            timings.final_pairs = max(timings.final_pairs, int(status["pairs"]))
        for tenant, task_id, _attrs, _nodes in burst:
            self.call(timings.write_s, backend.delete_task, tenant, task_id)

    def run_script(
        self, script: Script, passes: int, first_epoch_open: bool, mark: Callable[[], None]
    ) -> None:
        """The script ``passes`` times over; ``mark`` fires once an
        epoch's tasks are in and again when its burst is done, so that
        what lies between is the same requests in every pass."""
        for number in range(passes):
            for index, epoch in enumerate(script.epochs):
                if number or index or not first_epoch_open:
                    self.open_epoch(epoch)
                mark()
                self.run_rounds(epoch)
                self.close_epoch(epoch)
                self.run_burst(epoch.burst)
                mark()


# ----------------------------------------------------------------------
# The serve child
# ----------------------------------------------------------------------
class ServeChild:
    """``python -m repro serve`` on an ephemeral loopback port."""

    def __init__(self) -> None:
        self.announce = results_path("serve", f"announce-{os.getpid()}.json")
        if os.path.exists(self.announce):
            os.unlink(self.announce)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC_DIR] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        # Adaptation iterates sets: its plans (and so coverage and adapt
        # time) change with the interpreter's hash seed.  Fixed here so
        # the same script gives the same plans run after run.
        env["PYTHONHASHSEED"] = "0"
        self.proc: Optional[subprocess.Popen[bytes]] = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--nodes", str(NODES), "--tasks", str(TASKS), "--capacity", str(CAPACITY),
                "--seed", str(CLUSTER_SEED), "--announce", self.announce,
                # If the harness dies, the server still ends by itself.
                "--max-seconds", str(SERVER_LIFETIME_SECONDS),
            ],  # fmt: skip
            env=env,
            stdout=subprocess.DEVNULL,
        )
        self.peak_rss_mb = 0.0
        self.cpu_seconds = 0.0
        self._share_one_cpu()

    def _share_one_cpu(self) -> None:
        """Pin client and server to one CPU.

        A closed loop with one client never runs both at once, and left
        alone the scheduler flips between waking the server on the
        client's CPU and on the other one; the cross-CPU wake-ups cost
        a third more server CPU per request, run to run.  One CPU for
        both takes that coin flip out of the numbers.
        """
        assert self.proc is not None
        if hasattr(os, "sched_setaffinity"):
            cpu = min(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {cpu})
            os.sched_setaffinity(self.proc.pid, {cpu})

    def wait_ready(self, timeout: float = 30.0) -> int:
        """Block until the announce file names the bound port."""
        assert self.proc is not None
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited early with {self.proc.returncode}")
            try:
                with open(self.announce, encoding="utf-8") as fh:
                    return int(json.load(fh)["port"])
            except (OSError, ValueError, KeyError):
                time.sleep(0.005)  # not written (or half written) yet
        raise RuntimeError("repro serve did not announce a port in time")

    def cpu_now(self) -> float:
        """CPU seconds the server has run so far.

        ``/proc/<pid>/schedstat`` is the scheduler's own nanosecond
        count; ``utime + stime`` in ``/proc/<pid>/stat`` is sampled at
        the 100 Hz tick, which a process running in 150 us bursts
        aliases against (a third of run-to-run swing, measured).
        """
        assert self.proc is not None
        with open(f"/proc/{self.proc.pid}/schedstat", encoding="ascii") as fh:
            return int(fh.read().split()[0]) / 1e9

    def stop(self) -> None:
        """Terminate, wait, and keep the child's own rusage."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        proc.terminate()
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.cpu_seconds = usage.ru_utime + usage.ru_stime
        if os.path.exists(self.announce):
            os.unlink(self.announce)


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
class ChurnWorkload:
    def __init__(self) -> None:
        self.cluster: Any = None
        self.cost: Any = None
        self.script: Optional[Script] = None
        self.child: Optional[ServeChild] = None
        self.client: Optional[ControlPlaneClient] = None
        self.driver: Optional[Driver] = None
        self.outcome = Outcome()
        self.counters = layers.PlanningCounters()

    def setup(self, seed: int, seconds: float, traced: bool) -> None:
        share = TRACED_SHARE if traced else 1.0
        self.cluster, self.cost, self.script = make_script(seed, seconds, share)
        self.child = ServeChild()
        port = self.child.wait_ready()
        self.client = ControlPlaneClient("127.0.0.1", port)
        self.driver = Driver(self.client, self.outcome)
        # The first timed operation is the first round's adapt: the
        # first epoch's submits and forced plan are set-up.
        self.driver.open_epoch(self.script.epochs[0])

    def _run_http(self) -> Tuple[Timings, float]:
        """The whole script over HTTP: timings, and requests per server
        CPU second with every epoch at its cheapest pass."""
        assert self.driver and self.script and self.child
        child, driver = self.child, self.driver
        marks: List[Tuple[int, float]] = []
        driver.run_script(
            self.script,
            PASSES,
            first_epoch_open=True,
            mark=lambda: marks.append((driver.timings.requests, child.cpu_now())),
        )
        # Marks come in pairs, one pair per epoch and pass.
        blocks = [
            (after[0] - before[0], after[1] - before[1])
            for before, after in zip(marks[::2], marks[1::2])
        ]
        epochs = len(self.script.epochs)
        requests = sum(count for count, _cpu in blocks[:epochs])
        cpu = sum(min(cpu for _count, cpu in blocks[index::epochs]) for index in range(epochs))
        return driver.timings, ratio(requests, cpu)

    def _fastest_adapts_ms(self, timings: Timings) -> List[float]:
        """Every adapt of the script once: its fastest pass, in ms.  Also
        checks that every pass reproduced the first one's records."""
        per_pass = len(timings.adapt_s) // PASSES
        complete = per_pass * PASSES == len(timings.adapt_s) == len(timings.records)
        self.outcome.check(complete, "a pass lost adapts (failed requests)")
        if not complete:
            return [s * 1000.0 for s in timings.adapt_s]
        for index, record in enumerate(timings.records):
            first = timings.records[index % per_pass]
            same = all(record[key] == first[key] for key in RECORD_KEYS)
            self.outcome.check(same, f"adapt {index} differs from its first pass: {record}")
        return [
            min(timings.adapt_s[index::per_pass]) * 1000.0 for index in range(per_pass)
        ]

    def measure(self) -> Outcome:
        outcome = self.outcome
        timings, per_cpu_s = self._run_http()
        self._stop_server()
        assert self.child is not None
        adapt_ms = self._fastest_adapts_ms(timings)
        outcome.end_to_end = {
            "op_ms": median(adapt_ms),
            "work_per_cpu_s": per_cpu_s,
            "delivered_fraction": ratio(
                sum(record["coverage"] for record in timings.records), len(timings.records)
            ),
            "peak_rss_mb": self.child.peak_rss_mb,
        }
        outcome.samples = {
            "op_ms": len(adapt_ms),
            "work_per_cpu_s": len(self.script.epochs) if self.script else 0,
            "delivered_fraction": len(timings.records),
        }
        outcome.info = {
            "epochs": len(self.script.epochs) if self.script else 0,
            "task_write_p50_ms": median(timings.write_s) * 1000.0,
            "task_read_p50_ms": median(timings.read_s) * 1000.0,
            "server_cpu_s": self.child.cpu_seconds,
            "requests": timings.requests,
        }
        return outcome

    # ------------------------------------------------------------------
    def _replay_direct(self, rec: Optional[Recorder]) -> Timings:
        """The same script straight on a fresh in-process ControlPlane."""
        assert self.script is not None
        patcher = Patcher()
        if rec is not None:
            layers.install_controlplane(rec, patcher)
            self.counters = layers.install_planning(rec, patcher)
        # Built after patching: the backend binds the methods it calls.
        controlplane = ControlPlane(self.cluster, self.cost, metrics=MetricsRegistry())
        driver = Driver(DirectBackend(controlplane), self.outcome, rec)
        try:
            driver.run_script(self.script, 1, first_epoch_open=False, mark=lambda: None)
        finally:
            patcher.undo()
        return driver.timings

    def measure_traced(self) -> Outcome:
        outcome = self.outcome
        http, _per_cpu_s = self._run_http()
        self._stop_server()
        plain = self._replay_direct(None)
        rec = Recorder()
        traced = self._replay_direct(rec)
        records = traced.records
        metrics = layers.planning_metrics(rec, self.counters)
        adapt_total = rec.total_seconds(layers.SPAN_ADAPT)
        metrics.update(
            {
                "core.tasks.pairs": traced.final_pairs,
                "core.adaptation.apply_s": rec.total_seconds("core.adaptation.apply"),
                "core.adaptation.ops_applied": sum(len(r["applied_ops"]) for r in records),
                "core.adaptation.ops_throttled": sum(r["throttled_ops"] for r in records),
                "core.adaptation.messages": sum(r["adaptation_messages"] for r in records),
                "serve.http.adapt_p90_ms": percentile(self._fastest_adapts_ms(http), 0.9),
                "serve.http.requests": http.requests,
                "serve.http.errors": http.errors,
                "serve.http.write_p50_ms": median(http.write_s) * 1000.0,
                "serve.http.write_p99_ms": percentile(http.write_s, 0.99) * 1000.0,
                "serve.http.read_p50_ms": median(http.read_s) * 1000.0,
                "serve.http.read_p99_ms": percentile(http.read_s, 0.99) * 1000.0,
                "serve.http.overhead_p50_ms": (median(http.write_s) - median(plain.write_s))
                * 1000.0,
                "serve.controlplane.task_op_s": rec.self_seconds(layers.SPAN_TASK_OP),
                "serve.controlplane.adapt_self_s": rec.self_seconds(layers.SPAN_ADAPT),
                "bench.trace_overhead_ratio": ratio(median(traced.adapt_s), median(plain.adapt_s)),
                "bench.trace_selftime_coverage": layers.selftime_coverage(
                    rec, layers.SPAN_ADAPT, layers.SPAN_TASK_OP
                ),
                "bench.trace_spans": len(rec.spans),
            }
        )
        outcome.check(adapt_total > 0, "the traced replay recorded no adapt span")
        outcome.per_layer = metrics
        outcome.info = {"http_adapt_p50_ms": median(http.adapt_s) * 1000.0}
        rec.dump(
            results_path(f"trace-{NAME}.json"),
            workload=NAME,
            trace_id="index of the request in the script",
            note="in-process replay of the HTTP run's request script; no sockets",
        )
        return outcome

    # ------------------------------------------------------------------
    def _stop_server(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.child is not None:
            self.child.stop()

    def teardown(self) -> None:
        self._stop_server()
