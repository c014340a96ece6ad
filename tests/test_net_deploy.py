"""Tests for ``repro deploy``: sharding, specs, and real multi-process runs.

The end-to-end tests spawn genuine worker processes over loopback TCP.
This module stays import-safe for the ``spawn`` start method: children
re-import it as a plain module, never as ``__main__`` with side
effects.
"""

import json
import multiprocessing
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.net import TcpTransport, deploy
from repro.obs import names
from repro.obs.export import read_jsonl_spans
from repro.net.deploy import (
    DeployError,
    DeploySpec,
    make_spec,
    parse_chaos_kill,
    participating_nodes,
    run_deploy,
    shard_nodes,
)
from repro.runtime import COLLECTOR_ADDRESS, MonitoringRuntime, RuntimeConfig, engine
from repro.workloads.presets import Scenario
from tests.virtual_time import run_virtual

#: Small-but-real scenario shared by the e2e tests: enough nodes to
#: give every worker a shard, small enough to finish in seconds.
SCENARIO = Scenario(nodes=16, pool=8, attrs_per_node=6, tasks=4, seed=3)
CONFIG = {"period_seconds": 0.05, "seed": 9}

RUN_SCHEMA_KEYS = {
    "requested_pairs",
    "periods",
    "coverage",
    "mean_percentage_error",
    "messages",
    "cost_units_spent",
    "values",
    "failure_events",
    "per_period",
    "wall_seconds",
    "metrics",
}


def finished_within(seconds, call):
    """``call()``'s result, or a failure once ``seconds`` have passed
    without one: the call is then left on a daemon thread, and the
    processes it started are killed."""
    done = []
    thread = threading.Thread(target=lambda: done.append(call()), daemon=True)
    thread.start()
    thread.join(seconds)
    if not done:
        for child in multiprocessing.active_children():
            child.kill()
        thread.join(2.0)  # the call's loop sees them go while its patches hold
    assert done, f"still running after {seconds} s"
    return done[0]


class TestShardNodes:
    def test_covers_every_node_exactly_once(self):
        nodes = list(range(17))
        shards = shard_nodes(nodes, 4)
        assert len(shards) == 4
        flat = [n for shard in shards for n in shard]
        assert sorted(flat) == nodes
        assert len(flat) == len(set(flat))

    def test_balanced_within_one(self):
        shards = shard_nodes(range(10), 3)
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_more_workers_than_nodes_leaves_empty_shards(self):
        shards = shard_nodes([1, 2], 4)
        assert sorted(n for s in shards for n in s) == [1, 2]
        assert len(shards) == 4

    def test_deterministic_regardless_of_input_order(self):
        assert shard_nodes([3, 1, 2], 2) == shard_nodes([2, 3, 1], 2)


class TestDeploySpec:
    def test_round_trip_through_json(self, tmp_path):
        spec, plan = make_spec(
            SCENARIO, workers=2, periods=4, config=CONFIG,
            rundir=str(tmp_path),
        )
        loaded = DeploySpec.load(spec.spec_path)
        assert loaded == spec
        assert loaded.workers == 2

    def test_children_rebuild_the_identical_plan(self, tmp_path):
        spec, plan = make_spec(
            SCENARIO, workers=2, periods=4, config=CONFIG,
            rundir=str(tmp_path),
        )
        loaded = DeploySpec.load(spec.spec_path)
        assert loaded.scenario == SCENARIO
        plan2 = loaded.scenario.plan()
        assert plan2.pairs == plan.pairs
        assert participating_nodes(plan2) == participating_nodes(plan)

    def test_directory_routes_every_address(self, tmp_path):
        spec, plan = make_spec(
            SCENARIO, workers=2, periods=4, config=CONFIG,
            rundir=str(tmp_path),
        )
        directory = spec.build_directory()
        for rank, shard in enumerate(spec.shards):
            for node in shard:
                assert directory.endpoint_of(node) == spec.worker_endpoints[rank]
        assert sorted(node for shard in spec.shards for node in shard) == (
            participating_nodes(plan)
        )
        assert directory.endpoint_of(COLLECTOR_ADDRESS) == spec.collector_endpoint

    def test_unknown_preset_rejected(self):
        data = {
            "scenario": {"preset": "warp"}, "periods": 1, "shards": [],
            "worker_endpoints": [], "collector_endpoint": {"host": "127.0.0.1", "port": 0},
            "rundir": ".",
        }
        with pytest.raises(ValueError, match="preset"):
            DeploySpec.from_dict(data)


class TestParseChaosKill:
    def test_parses_rank_and_seconds(self):
        assert parse_chaos_kill("1:0.5") == (1, 0.5)

    def test_rejects_malformed(self):
        for bad in ("nonsense", "1", "x:1", "1:y", "-1:1", "0:nan", "0:inf", "0:1e400"):
            with pytest.raises(ValueError):
                parse_chaos_kill(bad)


class TestDeployEndToEnd:
    def test_two_worker_deploy_matches_single_process(self, tmp_path, monkeypatch):
        started = []
        start = multiprocessing.context.SpawnProcess.start

        def counted_start(process):
            started.append(process)
            start(process)

        monkeypatch.setattr(multiprocessing.context.SpawnProcess, "start", counted_start)
        spec, plan = make_spec(
            SCENARIO, workers=2, periods=6, config=CONFIG, rundir=str(tmp_path)
        )
        outcome = run_deploy(spec, plan=plan)
        assert outcome.restart_total() == 0
        assert outcome.worker_reports == 2
        # Two roles: the supervisor hosts the collector and starts one
        # process per worker, and coordinates through no file.
        assert len(started) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "report-worker-0.json", "report-worker-1.json", "spec.json",
        ]  # fmt: skip

        merged = outcome.report.as_dict()
        assert RUN_SCHEMA_KEYS <= set(merged)
        assert merged["periods"] == 6
        assert len(merged["per_period"]) == 6

        # What only real processes show; that a deploy's samples and
        # counters equal the single process's, to the bit, is checked on
        # virtual time (tests/test_runtime_parity.py, the deploy cells).
        # Here, on the wall clock, only what does not depend on timing:
        # every message sent was delivered or dropped for a reason...
        messages = merged["messages"]
        assert messages["sent"] == (
            messages["delivered"] + messages["dropped_capacity"] + messages["dropped_failure"]
        ), messages
        # ...no process refused an update or a frame (every one derived
        # the same slot layouts from the plan), and the run moved the
        # messages and saw the failures the single process does.
        counters = outcome.report.metrics.counters()
        assert not counters.get("messages_dropped_invalid")
        assert not counters.get("net_frames_dropped")
        runtime = MonitoringRuntime(plan, SCENARIO.workload[0], config=RuntimeConfig(**CONFIG))
        baseline = run_virtual(runtime.run_async(6))
        assert messages["sent"] == baseline.messages_sent
        # The clock sends each tick and the stop to every inbox, as the
        # single process does: the same envelopes, however many hosts.
        assert counters[names.TRANSPORT_ENVELOPES_SENT] == (
            baseline.metrics.counter(names.TRANSPORT_ENVELOPES_SENT)
        )
        assert outcome.report.failure_events == baseline.failure_events
        assert len(outcome.report.samples) == len(baseline.samples) == 6

    def test_a_child_dead_before_ready_fails_the_launch_at_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr(deploy, "STARTUP_TIMEOUT_S", 60.0)
        spec, plan = make_spec(
            SCENARIO, workers=2, periods=4, config=CONFIG,
            rundir=str(tmp_path),
        )
        Path(spec.spec_path).unlink()  # no child can load its world
        started = time.monotonic()
        with pytest.raises(DeployError, match=r"exited with code \d+ before it was ready"):
            run_deploy(spec, plan=plan)
        assert time.monotonic() - started < 30.0

    def test_a_collector_exception_fails_the_run_after_a_flight_dump(self, tmp_path, monkeypatch):
        async def broken_periods(*args):
            raise LookupError("collector fault")

        monkeypatch.setattr(engine, "run_periods", broken_periods)
        spec, plan = make_spec(
            SCENARIO, workers=2, periods=4, config=CONFIG, rundir=str(tmp_path)
        )
        with pytest.raises(DeployError, match="collector fault"):
            run_deploy(spec, plan=plan)
        flight = json.loads(Path(spec.flight_path("supervisor")).read_text())
        assert "collector crashed" in flight["reason"]

    def test_a_worker_out_of_restarts_does_not_stall_the_clock(self, tmp_path, monkeypatch):
        """A killed worker that is not restarted leaves the broadcast: the
        supervisor's link to it holds two ticks' frames here, so ticking
        its shard on would block a send, and the run, for good."""
        monkeypatch.setattr(deploy, "MAX_RESTARTS_PER_WORKER", 0)
        spec, plan = make_spec(
            SCENARIO, workers=2, periods=12, config=CONFIG, rundir=str(tmp_path)
        )
        monkeypatch.setattr(TcpTransport, "SEND_QUEUE_FRAMES", 2 * len(spec.shards[1]))
        outcome = finished_within(60.0, lambda: run_deploy(spec, plan=plan, chaos_kill={1: 0.15}))
        assert outcome.restarts == {0: 0, 1: 0}
        assert outcome.worker_reports == 1
        assert len(outcome.report.samples) == 12

    def test_worker_kill_and_restart_completes(self, tmp_path):
        spec, plan = make_spec(
            SCENARIO, workers=2, periods=8, config=CONFIG,
            rundir=str(tmp_path),
        )
        outcome = run_deploy(spec, plan=plan, chaos_kill={1: 0.15})
        assert outcome.restarts[1] >= 1
        assert len(outcome.report.samples) == 8
        # The run must still collect most of the plan despite the
        # mid-run restart (coverage is cumulative per period).
        assert outcome.report.final_coverage > 0.5


class TestDeployTracing:
    """End-to-end distributed tracing: one period == one trace id."""

    ROLES = ("collector", "worker-0", "worker-1")

    def _spans_by_role(self, spec):
        return {role: read_jsonl_spans(spec.trace_path(role)) for role in self.ROLES}

    def test_every_period_is_one_trace_across_processes(self, tmp_path):
        spec, plan = make_spec(
            SCENARIO, workers=2, periods=5, config=CONFIG,
            rundir=str(tmp_path), trace=True,
        )
        outcome = run_deploy(spec, plan=plan)
        assert sorted(outcome.trace_files) == sorted(
            spec.trace_path(role) for role in self.ROLES
        )
        by_role = self._spans_by_role(spec)
        merged = [span for spans in by_role.values() for span in spans]
        roots = [s for s in merged if s.name == names.SPAN_RUNTIME_PERIOD]
        assert sorted(r.attrs["period"] for r in roots) == [0, 1, 2, 3, 4]
        assert len({r.trace_id for r in roots}) == 5
        collector_pids = {s.pid for s in by_role["collector"]}
        for root in roots:
            trace_spans = [s for s in merged if s.trace_id == root.trace_id]
            # The collector process and both worker processes all
            # contribute spans carrying this period's trace id.
            assert len({s.pid for s in trace_spans}) >= 3
            # Parent links cross the TCP boundary: worker-side spans
            # chain directly to the collector-minted period root.
            crossed = [
                s
                for s in trace_spans
                if s.pid not in collector_pids and s.parent_id == root.span_id
            ]
            assert crossed, "no worker span chained to the period root over TCP"
            span_ids = {s.span_id for s in trace_spans}
            for span in trace_spans:
                if span.parent_id is not None:
                    assert span.parent_id in span_ids

    def test_trace_context_survives_chaos_restart(self, tmp_path):
        spec, plan = make_spec(
            SCENARIO, workers=2, periods=8, config=CONFIG,
            rundir=str(tmp_path), trace=True,
        )
        outcome = run_deploy(spec, plan=plan, chaos_kill={1: 0.15})
        assert outcome.restarts[1] >= 1
        # The supervisor flight-records every restart (the SIGKILLed
        # child cannot dump its own ring).
        assert spec.flight_path("supervisor") in outcome.flight_records
        flight = json.loads(Path(spec.flight_path("supervisor")).read_text())
        assert flight["flight_record"] == 1
        assert "restarting" in flight["reason"]
        assert any(
            event["event"] == names.LOG_FLIGHT_DUMP for event in flight["events"]
        )
        # The restarted worker-1 -- a brand-new process -- rejoins the
        # collector-minted period traces carried by tick envelopes.
        by_role = self._spans_by_role(spec)
        period_of = {
            s.trace_id: s.attrs["period"]
            for s in by_role["collector"]
            if s.name == names.SPAN_RUNTIME_PERIOD
        }
        rejoined = {
            period_of[s.trace_id]
            for s in by_role["worker-1"]
            if s.trace_id in period_of
        }
        assert rejoined, "restarted worker produced no spans in any period trace"


class TestDeployCli:
    def test_deploy_json_has_run_schema(self, tmp_path, capsys):
        rc = main(
            [
                "deploy",
                "--nodes", "12", "--tasks", "3", "--pool", "6",
                "--scheme", "remo",
                "--workers", "2", "--periods", "4", "--period-seconds", "0.05",
                "--seed", "4", "--rundir", str(tmp_path), "--host", "127.0.0.1", "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        spec = DeploySpec.load(str(tmp_path / "spec.json"))
        assert spec.scenario == Scenario(nodes=12, tasks=3, pool=6, seed=4)
        endpoints = [*spec.worker_endpoints, spec.collector_endpoint]
        assert {endpoint.host for endpoint in endpoints} == {"127.0.0.1"}
        assert payload["command"] == "deploy"
        assert payload["workers"] == 2
        assert payload["restarts"] == {"0": 0, "1": 0}
        assert RUN_SCHEMA_KEYS <= set(payload)
        assert len(payload["per_period"]) == 4

    def test_deploy_rejects_malformed_chaos_spec(self):
        with pytest.raises(SystemExit):
            main(["deploy", "--chaos-kill", "nonsense"])

    def test_deploy_rejects_a_chaos_rank_beyond_the_workers_before_launch(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_ports(*args, **kwargs):
            raise AssertionError("ports reserved for a launch that must not happen")

        monkeypatch.setattr(deploy, "allocate_endpoints", no_ports)
        argv = ["deploy", "--preset", "quickstart", "--workers", "2", "--chaos-kill", "7:0.1"]
        assert main([*argv, "--rundir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "rank 7" in err and "2 worker" in err
        assert list(tmp_path.iterdir()) == []


class TestTraceCli:
    """``repro deploy --trace`` + ``repro trace`` merge and gate."""

    def _deploy(self, rundir, trace_out):
        rc = main(
            [
                "deploy",
                "--nodes", "12", "--tasks", "3", "--pool", "6",
                "--workers", "2", "--periods", "3", "--period-seconds", "0.05",
                "--seed", "4", "--rundir", str(rundir),
                "--trace", str(trace_out), "--json",
            ]
        )
        assert rc == 0

    def test_deploy_trace_merges_children_into_export(self, tmp_path, capsys):
        rundir, trace_out = tmp_path / "run", tmp_path / "deploy.trace.json"
        self._deploy(rundir, trace_out)
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["trace_files"]) == 3  # collector + 2 workers
        events = json.loads(trace_out.read_text())["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        assert len({e["pid"] for e in spans}) >= 3
        # Each span once: the collector's artifact is folded in once.
        traced = [e["args"]["span_id"] for e in spans if "span_id" in e["args"]]
        assert traced and len(traced) == len(set(traced))
        periods = [e for e in spans if e["name"] == names.SPAN_RUNTIME_PERIOD]
        assert sorted(e["args"]["period"] for e in periods) == [0, 1, 2]

    def test_trace_subcommand_merges_and_summarizes(self, tmp_path, capsys):
        rundir = tmp_path / "run"
        self._deploy(rundir, tmp_path / "deploy.trace.json")
        capsys.readouterr()
        merged_path = tmp_path / "merged.trace.json"
        rc = main(
            ["trace", str(rundir), "--strict", "--json", "--out", str(merged_path)]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["problems"] == []
        assert [p["period"] for p in out["periods"]] == [0, 1, 2]
        for period in out["periods"]:
            assert period["processes"] >= 3
            assert period["cross_process_ms"] > 0
            assert period["critical_path"]
        assert json.loads(merged_path.read_text())["traceEvents"]

    def test_strict_fails_when_worker_spans_missing(self, tmp_path, capsys):
        rundir = tmp_path / "run"
        self._deploy(rundir, tmp_path / "deploy.trace.json")
        (rundir / "trace-worker-1.jsonl").unlink()
        capsys.readouterr()
        assert main(["trace", str(rundir), "--strict"]) == 1
        assert "worker-1" in capsys.readouterr().err

    def test_trace_on_empty_rundir_is_usage_error(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path)]) == 2
        assert "no trace-" in capsys.readouterr().err

    @pytest.mark.parametrize("out", [None, "merged.trace.json", "merged.jsonl"])
    def test_trace_artifacts_without_spans_are_a_usage_error(self, tmp_path, capsys, out):
        (tmp_path / "trace-collector.jsonl").write_text("")
        argv = ["trace", str(tmp_path)]
        if out is not None:
            argv += ["--out", str(tmp_path / out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "no trace-*.jsonl spans" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace-collector.jsonl"]

