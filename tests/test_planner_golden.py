"""Absolute plan fingerprints: the default planner's output, pinned.

Every other fingerprint assertion in the suite is relative (two
configurations of the same build must agree), which says nothing once
one of the configurations is deleted.  These pins are absolute: the
two saturated inputs are the 50- and 100-node rows committed in
``benchmarks/results/BENCH_planner.json`` (``sampled_workload(nodes=n,
tasks=n)`` is the scaling bench's ``_workload(n, n)``), the third is a
``plan_search``-shaped input where the guided search accepts an
operation.  Each is checked in-process and in fresh interpreters under
three hash seeds, since a plan must not depend on set iteration order.
Neither may the ground truth a live run of it is scored against: the
same processes check that ``MonitoringRuntime``'s default registry is
the one built from the sorted pairs (``repro run --seed S`` used to
report a different error under each ``PYTHONHASHSEED``).

A deliberate change to the default plan re-pins these values in the
same commit as ``BENCH_planner.json``; nothing else may move them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cluster.metrics import MetricRegistry
from repro.core.planner import RemoPlanner
from repro.runtime import MonitoringRuntime, RuntimeConfig
from repro.workloads.presets import sampled_workload

SATURATED_50 = dict(nodes=50, tasks=50)
SATURATED_100 = dict(nodes=100, tasks=100)
SEARCH_48 = dict(nodes=48, tasks=12, capacity=200.0, seed=1)

GOLDEN = {
    "saturated_50": (
        SATURATED_50,
        "a034efe598875a6758d0394741a46452d8e19b624e5b7be31dff1ed615fff471",
    ),
    "saturated_100": (
        SATURATED_100,
        "806dc9d582156255553b2b2151ab37dd5324fb867dbee2393603fd19c9c04626",
    ),
    "search_48": (
        SEARCH_48,
        "558ce883cfb22ed112cae87c2bad41309c8f4739e22a8f77bdd05a9ed5a20cc8",
    ),
}


def observe() -> dict:
    """Plan every golden input with the default planner."""
    out = {}
    for name, (kwargs, _) in GOLDEN.items():
        cluster, cost, tasks = sampled_workload(**kwargs)
        plan, stats = RemoPlanner(cost).plan_with_stats(tasks, cluster)
        out[name] = {
            "fingerprint": plan.fingerprint(),
            "accepted_ops": len(stats.accepted_ops),
        }
    # ``plan`` and ``cluster`` are the last golden input's.
    pairs = sorted(plan.pairs)
    default = MonitoringRuntime(plan, cluster, config=RuntimeConfig(seed=7)).registry
    sorted_build = MetricRegistry(pairs, seed=7)
    for registry in (default, sorted_build):
        registry.advance_all()
    out["default_ground_truth_is_sorted_build"] = all(
        default.value(pair) == sorted_build.value(pair) for pair in pairs
    )
    return out


def _check(observed: dict) -> None:
    for name, (_, fingerprint) in GOLDEN.items():
        assert observed[name]["fingerprint"] == fingerprint, name
    assert observed["saturated_50"]["accepted_ops"] == 0
    assert observed["saturated_100"]["accepted_ops"] == 0
    assert observed["search_48"]["accepted_ops"] >= 1
    assert observed["default_ground_truth_is_sorted_build"]


def test_golden_fingerprints_in_process():
    _check(observe())


@pytest.mark.parametrize("hash_seed", ["0", "1", "2"])
def test_golden_fingerprints_under_hash_seed(hash_seed):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    _check(json.loads(proc.stdout))


if __name__ == "__main__":
    print(json.dumps(observe()))
