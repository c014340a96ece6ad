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
Two more pin what those unit-weight plans never run, on the same 48
nodes with slices tight enough that the adjuster works: the frequency
extension (fractional value weights, non-unit message weights) and an
aggregation-aware plan (the per-attribute funnel step of the tree
walk).  A third pins DIRECT-APPLY plus the restricted search over a
run of update batches; adaptation still depends on the interpreter's
hash seed (ROADMAP, determinism), so it runs under ``PYTHONHASHSEED=0``
only.
Neither may the ground truth a live run of it is scored against: the
same processes check that ``MonitoringRuntime``'s default registry is
the one built from the sorted pairs (``repro run --seed S`` used to
report a different error under each ``PYTHONHASHSEED``).

A deliberate change to the default plan re-pins these values in the
same commit as ``BENCH_planner.json``; nothing else may move them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cluster.metrics import MetricRegistry
from repro.core.adaptation import AdaptationStrategy, AdaptiveMonitoringService
from repro.core.cost import AggregationKind, AggregationSpec
from repro.core.planner import RemoPlanner
from repro.core.tasks import MonitoringTask
from repro.ext.frequencies import frequency_weights
from repro.runtime import MonitoringRuntime, RuntimeConfig
from repro.workloads.presets import sampled_workload
from repro.workloads.updates import TaskUpdateStream

SATURATED_50 = dict(nodes=50, tasks=50)
SATURATED_100 = dict(nodes=100, tasks=100)
SEARCH_48 = dict(nodes=48, tasks=12, capacity=200.0, seed=1)
#: The same shape with slices tight enough to saturate (coverage ~0.8).
TIGHT_48 = dict(nodes=48, tasks=12, capacity=120.0, seed=1)
#: Dyadic, so every weighted sum is exact in binary floating point.
FREQUENCIES = (1.0, 0.5, 0.25)
#: Funnels by attribute rank: saturating, top-k, holistic, ...
FUNNELS = (
    AggregationSpec(kind=AggregationKind.SUM),
    AggregationSpec(kind=AggregationKind.TOP_K, k=2),
    None,
)
ADAPT_BATCHES = 14

GOLDEN = {
    "saturated_50": (
        SATURATED_50,
        "a034efe598875a6758d0394741a46452d8e19b624e5b7be31dff1ed615fff471",
    ),
    "saturated_100": (
        SATURATED_100,
        "4971280f1c0a8fc75aaa5bbf0289381bb43855d405ef5896eca143df442560b6",
    ),
    "search_48": (
        SEARCH_48,
        "5317a236149e19ae505226be696fdb009f60448473b59fd936470ab818be41b4",
    ),
}


EXTENSION_GOLDEN = {
    "frequency_48": "5277bf27e260064091063c5b44b229cb3b1966af09f0b967742e3485543cd302",
    "aggregated_48": "77ec14605a1b670c64b6dd48dad13b25e32ae8fc363e1250e8b27f4918ca9f82",
}

#: Digest of the per-batch reports, then the final plan's fingerprint.
ADAPT_GOLDEN = (
    "66d4bc154de5fd2c871de2e80af4c121a77c7b235f87e9debe3c9a02ad020682",
    "4c8c70a86140edf3d58c19bd2b9425e685c993f44dda1c4b92a04d7828dfeef1",
)


def observe_extensions() -> dict:
    """Plan the tight 48-node input frequency-aware and aggregation-aware."""
    cluster, cost, tasks = sampled_workload(**TIGHT_48)
    slowed = [
        MonitoringTask(t.task_id, t.attributes, t.nodes, frequency)
        for t, frequency in zip(tasks, itertools.cycle(FREQUENCIES))
    ]
    weights = frequency_weights(slowed)
    frequency_plan = RemoPlanner(cost).plan(
        slowed, cluster, pair_weights=weights.pair_weights, msg_weights=weights.msg_weights
    )
    ranked = sorted({a for t in tasks for a in t.attributes})
    funnels = {a: spec for a, spec in zip(ranked, itertools.cycle(FUNNELS)) if spec}
    aggregated_plan = RemoPlanner(cost, aggregation=funnels).plan(tasks, cluster)
    return {
        "frequency_48": frequency_plan.fingerprint(),
        "aggregated_48": aggregated_plan.fingerprint(),
    }


def observe_adaptation() -> dict:
    """ADAPTIVE over a run of update batches on the tight 48-node input."""
    cluster, cost, tasks = sampled_workload(**TIGHT_48)
    service = AdaptiveMonitoringService(cluster, cost, AdaptationStrategy.ADAPTIVE)
    service.initialize(tasks)
    stream = TaskUpdateStream(cluster, tasks, node_fraction=0.05, attr_fraction=0.5, seed=11)
    digest = hashlib.sha256()
    applied = throttled = 0
    for batch in range(ADAPT_BATCHES):
        report = service.apply_changes(stream.next_batch(), now=10.0 * (batch + 1))
        applied += len(report.applied_ops)
        throttled += report.throttled_ops
        record = (
            report.applied_ops,
            report.throttled_ops,
            report.adaptation_messages,
            report.collected_pairs,
            repr(report.monitoring_volume),
        )
        digest.update(json.dumps(record).encode("utf-8"))
    assert service.plan is not None
    return {
        "digest": digest.hexdigest(),
        "fingerprint": service.plan.fingerprint(),
        "applied_ops": applied,
        "throttled_ops": throttled,
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
    out["extensions"] = observe_extensions()
    return out


def _check(observed: dict) -> None:
    for name, (_, fingerprint) in GOLDEN.items():
        assert observed[name]["fingerprint"] == fingerprint, name
    assert observed["saturated_50"]["accepted_ops"] == 0
    assert observed["saturated_100"]["accepted_ops"] == 1
    assert observed["search_48"]["accepted_ops"] >= 1
    assert observed["default_ground_truth_is_sorted_build"]
    assert observed["extensions"] == EXTENSION_GOLDEN


def _observe_in_fresh_interpreter(hash_seed: str, what: str) -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), what],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout)


def test_golden_fingerprints_in_process():
    _check(observe())


@pytest.mark.parametrize("hash_seed", ["0", "1", "2"])
def test_golden_fingerprints_under_hash_seed(hash_seed):
    _check(_observe_in_fresh_interpreter(hash_seed, "plans"))


def test_adaptation_sequence_under_hash_seed_0():
    observed = _observe_in_fresh_interpreter("0", "adaptation")
    assert (observed["digest"], observed["fingerprint"]) == ADAPT_GOLDEN
    # The pin is only worth having while both DIRECT-APPLY's in-place
    # tree edits and the throttled restricted search take part.
    assert observed["applied_ops"] >= 1 and observed["throttled_ops"] >= 1


if __name__ == "__main__":
    print(json.dumps(observe_adaptation() if sys.argv[1:] == ["adaptation"] else observe()))
