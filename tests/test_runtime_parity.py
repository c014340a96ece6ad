"""Runtime / simulator parity and `repro run --json` contract tests.

The acceptance bar for the live runtime: the same plan and
``MetricRegistry`` seed, executed through both
:class:`~repro.simulation.engine.MonitoringSimulation` (lock-step
discrete events) and :class:`~repro.runtime.engine.MonitoringRuntime`
(concurrent asyncio agents, on a virtual-time event loop), must
produce the same per-period samples -- error, freshness and coverage,
to the last bit -- the runtime must reproduce the simulator's overload
pins, and both must move the same messages under a node outage.
"""

import json
import re

import pytest

from repro.cli import main
from repro.cluster.metrics import MetricRegistry
from repro.core.attributes import pairs_for
from repro.core.cost import CostModel
from repro.core.forest import ForestBuilder
from repro.core.partition import Partition
from repro.core.planner import RemoPlanner
from repro.obs import names
from repro.runtime import AgentOutage, MonitoringRuntime, RuntimeConfig
from repro.simulation import FailureInjector, MonitoringSimulation
from repro.workloads.presets import Scenario, quickstart_workload
from tests.test_simulation_overload import overloaded_setup
from tests.test_simulation_pins import MILD, SEVERE, outcome
from tests.virtual_time import run_virtual

COST = CostModel(2.0, 1.0)


def run_both(plan, cluster, periods=12, seed=9):
    """One plan, two engines, same registry seed."""
    sim_report = MonitoringSimulation(
        plan, cluster, registry=MetricRegistry(plan.pairs, seed=seed), seed=seed
    ).run(periods)
    runtime = MonitoringRuntime(
        plan,
        cluster,
        registry=MetricRegistry(plan.pairs, seed=seed),
        config=RuntimeConfig(seed=seed),
    )
    return sim_report, run_virtual(runtime.run_async(periods))


class TestCoverageParity:
    def test_parity_on_feasible_plan(self, small_cluster):
        pairs = pairs_for(range(6), ["a", "b"])
        plan = ForestBuilder(COST).build(
            Partition.singletons({"a", "b"}), pairs, small_cluster
        )
        sim_report, runtime_report = run_both(plan, small_cluster)
        assert runtime_report.samples == sim_report.samples

    def test_parity_on_partial_coverage_plan(self, tight_cluster):
        # A plan that cannot collect everything: both engines should
        # agree on exactly what arrives.
        pairs = pairs_for(range(20), ["a", "b", "c", "d"])
        plan = ForestBuilder(COST).build(
            Partition.singletons({"a", "b", "c", "d"}), pairs, tight_cluster
        )
        assert plan.coverage() < 1.0
        sim_report, runtime_report = run_both(plan, tight_cluster)
        assert runtime_report.samples == sim_report.samples

    def test_parity_on_quickstart_remo_plan(self):
        cluster, cost, tasks = quickstart_workload()
        plan = RemoPlanner(cost).plan(tasks, cluster)
        sim_report, runtime_report = run_both(plan, cluster, periods=8)
        assert runtime_report.samples == sim_report.samples
        # Both engines deliver what the planner promised.
        assert runtime_report.final_coverage == pytest.approx(plan.coverage())

    def test_runtime_message_count_matches_simulator(self, small_cluster):
        pairs = pairs_for(range(6), ["a"])
        plan = ForestBuilder(COST).build(
            Partition.singletons({"a"}), pairs, small_cluster
        )
        sim_report, runtime_report = run_both(plan, small_cluster, periods=6)
        assert runtime_report.messages_sent == sim_report.messages_sent

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
        outage.

        Cost and samples are not compared: every relay of the runtime
        shares one child-wait deadline, so while the node is down its
        ancestors stop waiting at the same instant and batches from
        below it travel later than on the simulator's phased schedule:
        the runtime spends 46 180 cost units against the simulator's
        46 520, and reads fresh 0.466 against 0.880 during the outage
        (ROADMAP's first item).
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

    def test_only_an_engine_that_beacons_prints_heartbeat_rows(self, capsys, tmp_path):
        # The simulator sends no heartbeats and runs no failure detector,
        # so rows for them would read 0 by construction.  --metrics gives
        # each run a fresh registry, as a process of its own would have:
        # the ambient one keeps earlier runs' series in this process.
        rows = (r"^\s*heartbeats\s+\d+$", r"^\s*failure events\s+\d+$")
        simulate = ["simulate", "--preset", "quickstart", "--periods", "5"]
        assert main([*simulate, "--metrics", str(tmp_path / "sim.prom")]) == 0
        simulated = capsys.readouterr().out
        assert "messages sent" in simulated
        assert not any(re.search(row, simulated, re.M) for row in rows)
        argv = ["run", "--preset", "quickstart", "--periods", "3", "--period-seconds", "0.02"]
        assert main([*argv, "--metrics", str(tmp_path / "run.prom")]) == 0
        live = capsys.readouterr().out
        assert all(re.search(row, live, re.M) for row in rows)

    def test_run_rejects_malformed_outage_spec(self):
        with pytest.raises(SystemExit):
            main(["run", "--fail-node", "nonsense"])
        with pytest.raises(SystemExit):
            main(["run", "--fail-node", "1:5:2"])
