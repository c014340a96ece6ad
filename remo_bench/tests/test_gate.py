"""The comparison fires on a known slowdown and stays quiet on A/A.

A gate that has not been shown to fire does not count: a slowdown of
more than twice the bound is injected from the benchmark side (a busy
wait after every plan; before every in-process transport send) and
``compare`` must call the matching metric ``worse`` while a workload
the injection cannot reach is not.

The two sides of every comparison are measured alternately, run by
run: this box drifts by tens of percent over a minute, and two sets
measured one after the other differ by the drift alone.
"""

import os
import subprocess
import sys

from harness import compare
from harness.common import BENCH_DIR, RESULTS_DIR

RUN_BENCH = os.path.join(BENCH_DIR, "run_bench.py")
WORKLOADS = ("plan_search", "collect_inproc")
SEEDS = (1, 2, 3)


def _alternating_sets(label, inject):
    """Result sets ``<label>-a`` (as is) and ``<label>-b`` (injected)."""
    for side in "ab":
        path = os.path.join(RESULTS_DIR, "bench", f"{label}-{side}.json")
        if os.path.exists(path):
            os.unlink(path)
    for workload in WORKLOADS:
        for seed in SEEDS:
            for side, injection in (("a", None), ("b", inject)):
                command = [
                    sys.executable, RUN_BENCH, "--only", workload, "--seed", str(seed),
                    "--seconds", "4", "--label", f"{label}-{side}", "--append",
                    "--skip-traced", "--no-probes",
                ]  # fmt: skip
                if injection:
                    command += ["--inject", injection]
                subprocess.run(command, check=True, timeout=300, stdout=subprocess.DEVNULL)
    sets = [
        compare.load_runs(os.path.join(RESULTS_DIR, "bench", f"{label}-{side}.json"))
        for side in "ab"
    ]
    rows = compare.compare_sets(*sets)
    print(compare.render(rows))
    return {(row["workload"], row["metric"]): row["verdict"] for row in rows}


def test_a_a_stays_quiet():
    verdicts = _alternating_sets("gate-aa", None)
    assert len(verdicts) == 10
    timings = {key: verdict for key, verdict in verdicts.items() if key[1] != "setup_s"}
    assert "worse" not in timings.values(), timings


def test_slow_plans_trip_the_plan_metrics_only():
    verdicts = _alternating_sets("gate-slow-plan", "plan:0.6")
    assert verdicts[("plan_search", "op_ms")] == "worse"
    assert verdicts[("plan_search", "work_per_cpu_s")] == "worse"
    assert verdicts[("collect_inproc", "op_ms")] != "worse"
    assert verdicts[("collect_inproc", "work_per_cpu_s")] != "worse"


def test_slow_sends_trip_the_collect_metrics_only():
    verdicts = _alternating_sets("gate-slow-send", "send:0.00008")
    assert verdicts[("collect_inproc", "op_ms")] == "worse"
    assert verdicts[("collect_inproc", "work_per_cpu_s")] == "worse"
    assert verdicts[("plan_search", "op_ms")] != "worse"
    assert verdicts[("plan_search", "work_per_cpu_s")] != "worse"
