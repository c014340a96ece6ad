"""Fig. 8 -- average percentage error of collected values.

The paper's real-system experiment: a YieldMonitor-like stream
application runs across the cluster, synthetic monitoring tasks are
planned by each scheme, and the *average percentage error* between
the collector's view of each requested node-attribute pair and the
ground truth at the same instant is measured (stale and dropped
values hurt; uncovered pairs count as 100% error).

- 8a: error vs number of nodes;
- 8b: error vs number of monitoring tasks.

Expected shape (paper): REMO's error is 30-50% below SINGLETON-SET's
and ONE-SET's, and error falls with more nodes (sparser load =>
bushier trees => fresher values).
"""

import pytest

from _common import emit_series, make_planners
from repro.analysis.report import Series
from repro.core.cost import CostModel
from repro.simulation import MonitoringSimulation
from repro.streams import (
    StreamMetricRegistry,
    build_stream_cluster,
    make_yieldmonitor,
    yieldmonitor_tasks,
)

COST = CostModel(per_message=20.0, per_value=1.0)
NAMES = ["REMO", "SINGLETON-SET", "ONE-SET"]
PERIODS = 12


def measure_error(plan, cluster, app) -> float:
    report = MonitoringSimulation(
        plan,
        cluster,
        registry=StreamMetricRegistry(app),
        seed=5,
    ).run(PERIODS)
    return report.mean_percentage_error


def run_point(n_nodes, n_tasks, capacity=260.0):
    app = make_yieldmonitor(n_nodes=n_nodes, n_lines=max(4, n_nodes // 3), seed=61)
    cluster = build_stream_cluster(app, capacity=capacity, central_capacity=2.0 * capacity)
    tasks = yieldmonitor_tasks(app, n_tasks, seed=62)
    planners = make_planners(COST)
    return {
        name: round(measure_error(planner.plan(tasks, cluster), cluster, app), 4)
        for name, planner in planners.items()
    }


def to_series(points):
    series = [Series(n) for n in NAMES]
    for point in points:
        for s in series:
            s.add(point[s.name])
    return series


def test_fig8a_error_vs_nodes(benchmark):
    xs = [30, 60, 90]

    def run():
        return to_series([run_point(n, 40) for n in xs])

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_series("fig08", "Fig 8a: avg percentage error vs nodes", "nodes", xs, result)
    remo, sp, op = result
    assert all(r <= s + 1e-9 for r, s in zip(remo.values, sp.values))
    assert all(r <= o + 1e-9 for r, o in zip(remo.values, op.values))
    # The paper's headline: 30-50% (we accept >= 20%) error reduction
    # vs the better baseline, on average across points.
    baseline = [min(s, o) for s, o in zip(sp.values, op.values)]
    mean_reduction = sum(
        (b - r) / b for r, b in zip(remo.values, baseline) if b > 0
    ) / len(xs)
    assert mean_reduction >= 0.2


def test_fig8b_error_vs_tasks(benchmark):
    xs = [20, 40, 60]

    def run():
        return to_series([run_point(60, t) for t in xs])

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_series("fig08", "Fig 8b: avg percentage error vs tasks", "tasks", xs, result)
    remo, sp, op = result
    assert all(r <= min(s, o) + 1e-9 for r, s, o in zip(remo.values, sp.values, op.values))
