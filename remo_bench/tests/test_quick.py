"""``--quick`` runs every workload and reports every declared metric.

A renamed or dropped metric, a wrong unit, a failed operation or a
missing trace file fails here, loudly, before any driver sees it.
"""

import json
import os
import re
import subprocess
import sys

import pytest

from harness.common import BENCH_DIR, RESULTS_DIR, SPEC_PATH, load_spec

RUN_BENCH = os.path.join(BENCH_DIR, "run_bench.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@pytest.fixture(scope="module")
def quick_runs():
    subprocess.run(
        [sys.executable, RUN_BENCH, "--quick", "--label", "quick-test"],
        check=True,
        timeout=300,
        stdout=subprocess.DEVNULL,
    )
    with open(os.path.join(RESULTS_DIR, "bench", "quick-test.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_spec_meets_the_contract():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert os.path.getsize(SPEC_PATH) <= 64 * 1024
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_workload_reports_every_metric(quick_runs):
    spec = load_spec()
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    seen = {(run["workload"], run["trace"]) for run in quick_runs["runs"]}
    assert seen == {(w["name"], trace) for w in spec["workloads"] for trace in (0, 1)}
    for run in quick_runs["runs"]:
        units = {name: metric["unit"] for name, metric in run["metrics"].items()}
        assert units == declared[run["trace"]], run["workload"]
        assert run["failed"] == 0 and run["correct"], (run["workload"], run["problems"])
        assert run["attempted"] >= 1
        if not run["trace"]:
            assert all(metric["value"] > 0 for metric in run["metrics"].values()), run["workload"]


def test_environment_block(quick_runs):
    environment = quick_runs["environment"]
    for key in ("git_sha", "python", "nproc", "numpy", "tree_kernel", "msgpack", "wire_codec", "seed"):
        assert key in environment
    assert "loopback" in environment["network"]
    untraced = [run for run in quick_runs["runs"] if not run["trace"]]
    assert all(run["samples"].get("op_ms", 0) >= 1 for run in untraced)


def test_traced_pass_attributes_layers(quick_runs):
    traced = {run["workload"]: run["metrics"] for run in quick_runs["runs"] if run["trace"]}
    for workload in traced:
        assert os.path.exists(os.path.join(RESULTS_DIR, f"trace-{workload}.json"))
    assert traced["collect_inproc"]["net.codec.frames"]["value"] == 0
    assert traced["collect_tcp"]["net.codec.frames"]["value"] > 0
    assert traced["plan_search"]["core.planner.accepted_ops"]["value"] >= 1
    assert traced["plan_search"]["trees.model.probe_calls"]["value"] > 0
    assert traced["collect_inproc"]["trees.model.probe_calls"]["value"] == 0
    assert traced["churn_serve"]["core.adaptation.apply_s"]["value"] > 0
    for workload in ("plan_saturated", "plan_search", "churn_serve"):
        coverage = traced[workload]["bench.trace_selftime_coverage"]["value"]
        assert abs(coverage - 1.0) <= 0.1, (workload, coverage)
