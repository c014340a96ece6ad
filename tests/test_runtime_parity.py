"""Runtime / simulator / TCP / deploy parity and `repro run --json` tests.

The acceptance bar for every way a plan is executed: the same plan and
seeds, run through the simulator's schedule
(:class:`~repro.simulation.engine.MonitoringSimulation`), the
in-process runtime (:class:`~repro.runtime.engine.MonitoringRuntime`),
the runtime with every envelope on a loopback TCP socket, and a
``repro deploy`` supervisor with its workers, must produce the same
per-period samples -- error, freshness and coverage, to the last bit
-- the same failure events and the same counters.  Every live path
runs on a virtual-time event loop, so its outcome is a function of the
plan and the seeds alone and a period costs no wall-clock time.
"""

import asyncio
import functools
import json
import re
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

import pytest

from repro.cli import main
from repro.cluster.node import Cluster, SimNode
from repro.core.attributes import pairs_for
from repro.core.cost import CostModel
from repro.core.forest import ForestBuilder
from repro.core.partition import Partition
from repro.core.plan import MonitoringPlan
from repro.net import PeerDirectory, TcpTransport
from repro.net.deploy import (
    DeploySpec,
    _Supervisor,
    allocate_endpoints,
    participating_nodes,
    shard_nodes,
)
from repro.net.worker import WorkerRuntime
from repro.obs import names
from repro.runtime import AgentOutage, MonitoringRuntime, RuntimeConfig
from repro.runtime.collector import CollectorAgent
from repro.runtime.engine import run_report
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.report import RuntimeReport
from repro.simulation import FailureInjector, MonitoringSimulation
from repro.workloads.presets import Scenario
from tests.test_simulation_overload import overloaded_setup
from tests.test_simulation_pins import MILD, SEVERE, outcome
from tests.virtual_time import run_virtual

COST = CostModel(2.0, 1.0)


# ---------------------------------------------------------------------------
# The parity table: scenario x path
# ---------------------------------------------------------------------------
@dataclass
class Case:
    """One row: a plan, the cluster it runs on, how long it runs, and
    the ``RuntimeConfig`` fields of the run.

    It also stands in for the deploy spec's
    :class:`~repro.workloads.presets.Scenario` (``workload[0]`` and
    ``plan()``), so every deploy host gets this very plan and cluster.
    """

    planned: MonitoringPlan
    cluster: Cluster
    periods: int
    config: Dict[str, Any]

    @property
    def workload(self) -> Tuple[Cluster]:
        return (self.cluster,)

    def plan(self) -> MonitoringPlan:
        return self.planned


def _case(
    plan: MonitoringPlan,
    cluster: Cluster,
    periods: int,
    period_seconds: float,
    seed: int,
    outages: Tuple[AgentOutage, ...] = (),
) -> Case:
    config = {"period_seconds": period_seconds, "seed": seed, "outages": list(outages)}
    return Case(plan, cluster, periods, config)


def _scenario(scenario: Scenario, periods: int, period_seconds: float, seed: int) -> Case:
    return _case(scenario.plan(), scenario.workload[0], periods, period_seconds, seed)


def _singletons(nodes: int, capacity: float, attrs: str, central: float) -> Case:
    """A forest of one tree per attribute over ``nodes`` identical nodes."""
    cluster = Cluster(
        [SimNode(i, capacity=capacity, attributes=frozenset("abcd")) for i in range(nodes)],
        central_capacity=central,
    )
    plan = ForestBuilder(COST).build(
        Partition.singletons(set(attrs)), pairs_for(range(nodes), list(attrs)), cluster
    )
    return _case(plan, cluster, 8, 1.0, seed=9)


def _overloaded(delta: float) -> Case:
    plan, cluster = overloaded_setup(root_budget_delta=delta)
    return _case(plan, cluster, 5, 1.0, seed=1)


def _outage() -> Case:
    """The OUTAGE pin's plan and node outage, without its link outage."""
    scenario = Scenario(nodes=40, tasks=10, seed=1)
    plan = scenario.plan()
    outage = AgentOutage(participating_nodes(plan)[3], 2, 6)
    return _case(plan, scenario.workload[0], 10, 1.0, seed=5, outages=(outage,))


CASES: Dict[str, Callable[[], Case]] = {
    "quickstart": lambda: _scenario(Scenario(preset="quickstart"), 20, 0.05, seed=1),
    "sampled_64": lambda: _scenario(Scenario(seed=2), 15, 1.0, seed=1),
    "deploy_16": lambda: _scenario(
        Scenario(nodes=16, pool=8, attrs_per_node=6, tasks=4, seed=3), 6, 0.05, seed=9
    ),
    "sampled_40": lambda: _scenario(Scenario(nodes=40, tasks=10, seed=1), 10, 1.0, seed=5),
    "saturated_150": lambda: _scenario(
        Scenario(nodes=150, tasks=150, capacity=200.0, seed=200), 5, 1.0, seed=1
    ),
    "feasible_6": lambda: _singletons(6, 100.0, "ab", 500.0),
    "partial_20": lambda: _singletons(20, 14.0, "abcd", 60.0),
    "mild": lambda: _overloaded(-2.0),
    "severe": lambda: _overloaded(-1e9),
    "outage": _outage,
}


@functools.cache
def case_of(name: str) -> Case:
    return CASES[name]()


def simulator(case: Case) -> RuntimeReport:
    failures = FailureInjector(node_outages=case.config["outages"])
    return MonitoringSimulation(
        case.planned, case.cluster, seed=case.config["seed"], failures=failures
    ).run(case.periods)


def in_process(case: Case) -> RuntimeReport:
    runtime = MonitoringRuntime(case.planned, case.cluster, config=RuntimeConfig(**case.config))
    return run_virtual(runtime.run_async(case.periods))


@functools.cache
def reference(name: str) -> RuntimeReport:
    """The scenario's in-process run, the one every cell is held to."""
    return in_process(case_of(name))


def tcp(case: Case) -> RuntimeReport:
    """Loopback TCP with the local fast path off: every envelope, ticks
    and self-addressed ones too, is framed, written and read back."""
    endpoint = allocate_endpoints(1)[0]
    transport = TcpTransport(
        PeerDirectory(default=endpoint),
        listen_host=endpoint.host,
        listen_port=endpoint.port,
        force_wire=True,
    )
    runtime = MonitoringRuntime(
        case.planned, case.cluster, config=RuntimeConfig(**case.config), transport=transport
    )
    return run_virtual(runtime.run_async(case.periods))


def deploy_spec(case: Case, workers: int, rundir: str) -> DeploySpec:
    """The spec of a ``repro deploy`` run of ``case`` over ``workers``."""
    endpoints = allocate_endpoints(workers + 1)
    return DeploySpec(
        scenario=case,  # type: ignore[arg-type]
        periods=case.periods,
        shards=shard_nodes(participating_nodes(case.planned), workers),
        worker_endpoints=endpoints[:workers],
        collector_endpoint=endpoints[workers],
        rundir=rundir,
        config=case.config,
    )


def deploy_on_one_loop(case: Case, workers: int) -> RuntimeReport:
    """A ``repro deploy`` run with its supervisor and every worker hosted
    on one event loop in this process: the same spec, hosts and TCP
    transports, with every worker's listener up before the first tick
    (where ``run_deploy`` waits for each process's ready message).  The
    workers' registries merge into the supervisor's, as their report
    files do in ``run_deploy``."""
    with tempfile.TemporaryDirectory(prefix="repro-deploy-") as rundir:
        spec = deploy_spec(case, workers, rundir)
        metrics = RuntimeMetrics()

        async def run() -> RuntimeReport:
            started = time.monotonic()
            supervisor = _Supervisor(spec, case.planned, metrics, {})
            hosts = [WorkerRuntime(spec, rank) for rank in range(workers)]
            for host in hosts:
                await host.runtime.transport.start()
            await asyncio.gather(supervisor.run(), *(host.run(None) for host in hosts))
            for host in hosts:
                metrics.registry.absorb(host.runtime.metrics.registry.dump())
            return run_report(
                case.planned, case.periods, supervisor.runtime.collector, metrics, started
            )

        return run_virtual(run())


PATHS: Dict[str, Callable[[Case], RuntimeReport]] = {
    "simulator": simulator,
    "inproc": in_process,
    "tcp": tcp,
    "deploy_1": lambda case: deploy_on_one_loop(case, 1),
    "deploy_2": lambda case: deploy_on_one_loop(case, 2),
}

#: What only a live path records: the simulator's phased schedule has
#: no child wait and it runs no failure detector.
RUNTIME_ONLY = (names.CHILD_WAIT_TIMEOUTS, names.FAILURE_DETECTIONS, names.FAILURE_RECOVERIES)


def observed(report: RuntimeReport, path: str) -> Dict[str, object]:
    """What a path must agree on: samples, failure events, and every
    counter but the wire's own (``net_*``): every live host sends the
    same envelopes.  The simulator is held to every counter it records,
    and not to the failure events and the ``transport_*`` and
    :data:`RUNTIME_ONLY` counters it cannot have."""
    simulated = path == "simulator"
    skip = ("net_",) + (("transport_", *RUNTIME_ONLY) if simulated else ())
    seen: Dict[str, object] = {
        "samples": report.samples,
        "counters": {
            name: value
            for name, value in report.metrics.counters().items()
            if not name.startswith(skip)
        },
    }
    if not simulated:
        seen["failure_events"] = report.failure_events
    return seen


class TestCoverageParity:
    @pytest.mark.parametrize(
        "scenario, path",
        [pytest.param(s, p, id=f"{s}-{p}") for s in CASES for p in PATHS],
    )
    def test_every_path_matches_in_process(self, scenario, path):
        """One cell of the table, held ``==`` to the scenario's in-process
        run (the in-process cell: to an earlier run of itself)."""
        expected = observed(reference(scenario), path)
        assert observed(PATHS[path](case_of(scenario)), path) == expected

    def test_only_the_supervisor_builds_a_collector(self, monkeypatch, tmp_path):
        """A worker hosts agents only: none of its hosts builds the
        collector's columns and truth reader, and a whole deploy run
        builds exactly the supervisor's one."""
        case = case_of("quickstart")
        expected = observed(reference("quickstart"), "deploy_2")
        built = []
        init = CollectorAgent.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CollectorAgent, "__init__", counted)
        spec = deploy_spec(case, 2, str(tmp_path))
        for rank in range(len(spec.shards)):
            assert WorkerRuntime(spec, rank).runtime.agents
        assert len(built) == 0
        assert observed(deploy_on_one_loop(case, 2), "deploy_2") == expected
        assert len(built) == 1

    @pytest.mark.parametrize(
        "delta, pinned", [(-2.0, MILD), (-1e9, SEVERE)], ids=["mild", "severe"]
    )
    def test_runtime_reproduces_the_overload_pins(self, delta, pinned):
        """Every sample and all seven counters the simulator is pinned
        to under an overloaded root: values trimmed (mild), whole
        messages dropped (severe)."""
        plan, cluster = overloaded_setup(root_budget_delta=delta)
        runtime = MonitoringRuntime(plan, cluster, config=RuntimeConfig(seed=1))
        assert outcome(run_virtual(runtime.run_async(5))) == pinned


class TestOutageParity:
    def test_engines_agree_on_message_counts_under_a_node_outage(self):
        """A dead agent sends nothing and loses what it is sent, in both
        engines: the OUTAGE pin's plan and node outage, without its link
        outage.  Relays stop waiting bottom-up, so only the dead node's
        parent waits it out and batches from below it travel as on the
        simulator's phased schedule: the same cost and samples, fresh
        0.880 during the outage.
        """
        scenario = Scenario(nodes=40, tasks=10, seed=1)
        plan = scenario.plan()
        cluster = scenario.workload[0]
        members = sorted({node for result in plan.trees.values() for node in result.tree.nodes})
        outages = [AgentOutage(members[3], 2, 6)]
        simulated = MonitoringSimulation(
            plan, cluster, seed=5, failures=FailureInjector(node_outages=outages)
        ).run(10)
        runtime = MonitoringRuntime(
            plan, cluster, config=RuntimeConfig(period_seconds=1.0, seed=5, outages=outages)
        )
        live = run_virtual(runtime.run_async(10))
        counted = (
            names.MESSAGES_SENT,
            names.MESSAGES_DELIVERED,
            names.MESSAGES_DROPPED_CAPACITY,
            names.MESSAGES_DROPPED_FAILURE,
            names.VALUES_TRIMMED,
        )
        totals = [live.metrics.counter(name) for name in counted]
        assert totals == [simulated.metrics.counter(name) for name in counted]
        assert totals == [752, 744, 0, 8, 0]
        assert live.metrics.counter(names.COST_UNITS_SPENT) == 46520
        assert simulated.metrics.counter(names.COST_UNITS_SPENT) == 46520
        assert live.samples == simulated.samples
        assert [round(s.fresh_fraction, 3) for s in live.samples[2:6]] == [0.88] * 4

    @pytest.mark.parametrize(
        "timeout, events",
        [
            (1, [(3, 2, "down"), (3, 6, "recovered")]),
            (3, [(3, 4, "down"), (3, 6, "recovered")]),
        ],
    )
    def test_the_outage_plan_flags_its_node(self, timeout, events):
        """The ``outage`` scenario's node (3, down for periods 2..5) is
        flagged once its silence reaches the timeout, and recovered in
        the first period it is heard again."""
        case = case_of("outage")
        config = RuntimeConfig(**{**case.config, "failure_timeout": timeout})
        runtime = MonitoringRuntime(case.planned, case.cluster, config=config)
        report = run_virtual(runtime.run_async(case.periods))
        assert [(e.node, e.period, e.kind) for e in report.failure_events] == events


class TestRunCliJson:
    def test_run_json_reports_required_fields(self, capsys):
        rc = main(
            [
                "run",
                "--nodes", "12", "--tasks", "3", "--pool", "8",
                "--scheme", "singleton",
                "--periods", "4", "--period-seconds", "0.02", "--seed", "2",
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        # The acceptance contract: messages, drops, coverage, and
        # failure-detection events are all present and consistent.
        assert payload["command"] == "run"
        assert payload["messages"]["sent"] > 0
        assert payload["messages"]["dropped_capacity"] == 0
        assert payload["coverage"]["final"] > 0.0
        assert payload["failure_events"] == []
        assert payload["plan_check"] == {"errors": 0, "warnings": 0}
        assert len(payload["per_period"]) == 4

    def test_run_json_surfaces_failure_events(self, capsys):
        rc = main(
            [
                "run",
                "--nodes", "10", "--tasks", "3", "--pool", "6",
                "--scheme", "singleton",
                "--periods", "8", "--period-seconds", "0.02", "--seed", "2",
                "--failure-timeout", "2",
                "--fail-node", "1:1:20",
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert any(
            e["node"] == 1 and e["kind"] == "down" for e in payload["failure_events"]
        )

    def test_run_quickstart_preset(self, capsys):
        rc = main(
            [
                "run", "--preset", "quickstart",
                "--periods", "3", "--period-seconds", "0.02", "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "quickstart"
        assert payload["coverage"]["final"] > 0.9

    def test_run_table_output(self, capsys):
        rc = main(
            [
                "run",
                "--nodes", "10", "--tasks", "3", "--pool", "6",
                "--scheme", "singleton",
                "--periods", "3", "--period-seconds", "0.02",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "live run" in out
        assert "mean coverage" in out
        assert "== counters ==" in out

    def test_failure_events_print_only_when_there_are_some(self, capsys, tmp_path):
        # No row reads 0 by construction: the events table shows up when
        # the detector recorded something, and nothing counts heartbeats.
        # --metrics gives each run a fresh registry, as a process of its
        # own would have: the ambient one keeps earlier runs' series.
        heartbeats, events = r"^\s*heartbeats\s+\d+$", "failure detector events"
        simulate = ["simulate", "--preset", "quickstart", "--periods", "5"]
        assert main([*simulate, "--metrics", str(tmp_path / "sim.prom")]) == 0
        simulated = capsys.readouterr().out
        assert "messages sent" in simulated and events not in simulated
        argv = [
            "run", "--nodes", "10", "--tasks", "3", "--pool", "6", "--scheme", "singleton",
            "--periods", "4", "--period-seconds", "0.02",
        ]  # fmt: skip
        assert main([*argv, "--metrics", str(tmp_path / "clean.prom")]) == 0
        clean = capsys.readouterr().out
        assert events not in clean
        failing = [*argv, "--failure-timeout", "1", "--fail-node", "1:1:20"]
        failing += ["--metrics", str(tmp_path / "failing.prom")]
        assert main(failing) == 0
        live = capsys.readouterr().out
        assert events in live
        assert not any(re.search(heartbeats, out, re.M) for out in (simulated, clean, live))

    def test_run_rejects_malformed_outage_spec(self):
        with pytest.raises(SystemExit):
            main(["run", "--fail-node", "nonsense"])
        with pytest.raises(SystemExit):
            main(["run", "--fail-node", "1:5:2"])
