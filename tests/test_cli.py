"""Tests for the command-line interface."""

import json

import pytest

from repro import cli
from repro.checks import FAULT_KINDS
from repro.cli import build_parser, main
from repro.net.deploy import participating_nodes
from repro.workloads.presets import Scenario


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.nodes == 64
        assert args.scheme == "remo"

    def test_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "--scheme", "bogus"])

    def test_adapt_strategy_choices(self):
        args = build_parser().parse_args(["adapt", "--strategy", "rebuild"])
        assert args.strategy == "rebuild"

    def test_check_accepts_preset_and_corrupt(self):
        args = build_parser().parse_args(
            ["check", "--preset", "quickstart", "--corrupt", "cycle"]
        )
        assert args.preset == "quickstart"
        assert args.corrupt == "cycle"

    @pytest.mark.parametrize("command", ["plan", "simulate", "adapt"])
    def test_every_scenario_command_takes_a_preset(self, command):
        args = build_parser().parse_args([command, "--preset", "quickstart"])
        assert args.preset == "quickstart"

    def test_check_rejects_unknown_fault(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "--corrupt", "bit-rot"])

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("run", "--periods", "0"),
            ("run", "--period-seconds", "0"),
            ("run", "--failure-timeout", "0"),
            ("deploy", "--workers", "0"),
            ("serve", "--period-seconds", "-0.5"),
            ("plan", "--nodes", "0"),
            ("plan", "--tasks", "0"),
            ("plan", "--pool", "0"),
            ("plan", "--attrs-per-node", "0"),
            ("plan", "--capacity", "0"),
            ("simulate", "--periods", "0"),
            ("simulate", "--periods", "-3"),
            ("plan", "--central", "-5"),
            ("plan", "--cost-a", "0"),
            ("adapt", "--batches", "-2"),
            ("serve", "--max-seconds", "-1"),
        ],
    )
    def test_a_non_positive_runtime_value_is_a_usage_error(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exited:
            main([command, flag, value])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be > 0, got {value}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, flag, value, rule",
        [
            ("plan", "--cost-c", "-5", ">= 0"),
            ("serve", "--port", "-1", "in 0..65535"),
            ("serve", "--port", "65536", "in 0..65535"),
            ("run", "--period-seconds", "inf", "finite"),
            ("run", "--period-seconds", "1e400", "finite"),
            ("deploy", "--period-seconds", "inf", "finite"),
            ("plan", "--cost-c", "inf", "finite"),
        ],
    )
    def test_an_out_of_range_value_is_a_usage_error(self, capsys, command, flag, value, rule):
        with pytest.raises(SystemExit) as exited:
            main([command, flag, value])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be {rule}, got {value}" in err
        assert "Traceback" not in err

    def test_workload_flags_reach_the_built_workload(self, monkeypatch, capsys):
        built = []
        scenario_of = cli._scenario

        def spy(args):
            built.append(scenario_of(args))
            return built[-1]

        monkeypatch.setattr(cli, "_scenario", spy)
        rc = main(
            [
                "plan", "--nodes", "12", "--capacity", "250", "--central", "777",
                "--pool", "8", "--attrs-per-node", "5", "--tasks", "3",
                "--cost-c", "7.5", "--cost-a", "0.5", "--seed", "4",
                "--scheme", "one-set", "--json",
            ]
        )
        assert rc == 0
        (scenario,) = built
        assert scenario == Scenario(
            nodes=12, capacity=250.0, central=777.0, pool=8, attrs_per_node=5,
            tasks=3, cost_c=7.5, cost_a=0.5, seed=4, scheme="one-set",
        )  # fmt: skip
        cluster, cost, tasks = scenario.workload
        assert len(cluster) == 12
        assert {node.capacity for node in cluster} == {250.0}
        assert cluster.central_capacity == 777.0
        assert {len(node.attributes) for node in cluster} == {5}
        assert len({a for node in cluster for a in node.attributes}) <= 8
        assert len(tasks) == 3
        assert (cost.per_message, cost.per_value) == (7.5, 0.5)
        assert json.loads(capsys.readouterr().out)["scheme"] == "one-set"


class TestCommands:
    def test_plan_runs_and_prints_summary(self, capsys):
        rc = main(
            ["plan", "--nodes", "16", "--tasks", "4", "--scheme", "singleton", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "coverage" in out
        assert "trees" in out

    def test_plan_remo_small(self, capsys):
        rc = main(["plan", "--nodes", "12", "--tasks", "3", "--pool", "8", "--seed", "5"])
        assert rc == 0
        assert "remo plan" in capsys.readouterr().out

    def test_exhaustive_plan_evaluates_at_least_the_ranked_candidates(self, capsys):
        small = ["plan", "--nodes", "20", "--tasks", "5", "--pool", "16", "--seed", "3", "--json"]
        assert main(small) == 0
        ranked = json.loads(capsys.readouterr().out)["planning"]
        assert main([*small, "--exhaustive"]) == 0
        exhaustive = json.loads(capsys.readouterr().out)["planning"]
        assert ranked["exhaustive"] is False
        assert exhaustive["exhaustive"] is True
        # On this workload the whole neighbourhood outnumbers the ranked budget.
        assert exhaustive["candidates_evaluated"] > ranked["candidates_evaluated"]

    def test_plan_json_reports_abandoned_candidates(self, capsys):
        # The plan_search shape: most ranked candidates fall short of the
        # plan they must beat and are given up mid-build.
        argv = ["plan", "--nodes", "48", "--tasks", "12", "--capacity", "200", "--json"]
        assert main(argv) == 0
        planning = json.loads(capsys.readouterr().out)["planning"]
        assert 0 < planning["candidates_abandoned"] <= planning["candidates_evaluated"]

    def test_simulate_reports_error_metric(self, capsys):
        rc = main(
            [
                "simulate",
                "--nodes", "12", "--tasks", "3", "--pool", "8",
                "--scheme", "singleton", "--periods", "5", "--seed", "2",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "mean % error" in out
        assert "messages sent" in out

    def test_adapt_runs_batches(self, capsys):
        rc = main(
            [
                "adapt",
                "--nodes", "12", "--tasks", "4", "--pool", "8",
                "--batches", "2", "--strategy", "direct_apply", "--seed", "4",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "direct_apply over 2 update batches" in out

    def test_check_clean_plan_exits_zero(self, capsys):
        rc = main(["check", "--nodes", "12", "--tasks", "3", "--pool", "8", "--seed", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no diagnostics" in out
        assert main(["check", "--preset", "quickstart"]) == 0
        assert "no diagnostics" in capsys.readouterr().out

    def test_check_corrupted_plan_exits_nonzero(self, capsys):
        rc = main(
            [
                "check",
                "--nodes", "12", "--tasks", "3", "--pool", "8",
                "--seed", "5", "--corrupt", "stale-cost", "--hints",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "REMO203" in out
        assert "hint:" in out

    #: The primary code each ``repro check --corrupt`` kind fails with.
    FAULT_CODES = {
        "drop-tree": "REMO102",
        "cycle": "REMO111",
        "overload": "REMO201",
        "stale-cost": "REMO203",
        "stale-total": "REMO203",
    }

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_check_each_fault_kind_fails_with_its_code(self, capsys, kind):
        assert set(self.FAULT_CODES) == set(FAULT_KINDS)
        rc = main(["check", "--preset", "quickstart", "--corrupt", kind])
        out = capsys.readouterr().out
        assert rc == 1
        assert self.FAULT_CODES[kind] in out, out

    def test_run_rejects_an_outage_on_a_node_the_cluster_lacks(self, capsys):
        rc = main(["run", "--preset", "quickstart", "--fail-node", "999:0:2", "--periods", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "node 999" in err and "64-node cluster" in err

    def test_run_accepts_an_outage_on_a_node_the_plan_leaves_out(self, capsys):
        flags = ["--nodes", "24", "--tasks", "1", "--pool", "8", "--seed", "5"]
        plan = Scenario(nodes=24, tasks=1, pool=8, seed=5).plan()
        idle = min(set(range(24)) - set(participating_nodes(plan)))
        argv = ["run", *flags, "--fail-node", f"{idle}:0:1", "--periods", "2", "--json"]
        assert main([*argv, "--period-seconds", "0.05"]) == 0
        assert json.loads(capsys.readouterr().out)["periods"] == 2

    def test_serve_uses_the_cluster_and_never_plans(self, tmp_path, monkeypatch, capsys):
        def no_plan(scenario):
            raise AssertionError("repro serve planned its scenario")

        monkeypatch.setattr(Scenario, "plan", no_plan)
        announce = tmp_path / "serve.json"
        argv = ["serve", "--preset", "quickstart", "--host", "127.0.0.1", "--port", "0"]
        assert main([*argv, "--announce", str(announce), "--max-seconds", "0.2"]) == 0
        assert json.loads(announce.read_text())["host"] == "127.0.0.1"
        assert "control plane: 64 nodes\n" in capsys.readouterr().out

    def test_check_codes_lists_registry(self, capsys):
        rc = main(["check", "--codes"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "REMO101" in out
        assert "REMO205" in out
        assert "REMO3" not in out


class TestJsonOutput:
    """`--json` must emit exactly one parseable object per invocation."""

    ARGS = ["--nodes", "12", "--tasks", "3", "--pool", "8", "--seed", "5"]

    def test_plan_json(self, capsys):
        rc = main(["plan", *self.ARGS, "--scheme", "singleton", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "plan"
        assert payload["scheme"] == "singleton"
        assert 0.0 < payload["summary"]["coverage"] <= 1.0
        assert payload["summary"]["trees"] == len(payload["trees"])
        assert all("attributes" in row for row in payload["trees"])

    def test_plan_json_matches_table_numbers(self, capsys):
        rc = main(["plan", *self.ARGS, "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        rc = main(["plan", *self.ARGS])
        assert rc == 0
        table = capsys.readouterr().out
        assert str(payload["summary"]["collected_pairs"]) in table
        assert str(payload["summary"]["trees"]) in table

    def test_simulate_json(self, capsys):
        rc = main(["simulate", *self.ARGS, "--periods", "5", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "simulate"
        assert payload["periods"] == 5
        assert payload["messages"]["sent"] > 0
        assert payload["messages"]["delivered"] <= payload["messages"]["sent"]
        assert 0.0 <= payload["mean_percentage_error"] <= 1.0

    def test_adapt_json(self, capsys):
        rc = main(
            ["adapt", *self.ARGS, "--batches", "2", "--strategy", "direct_apply", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "adapt"
        assert payload["strategy"] == "direct_apply"
        assert [b["batch"] for b in payload["batches"]] == [1, 2]
        assert all("coverage" in b for b in payload["batches"])
