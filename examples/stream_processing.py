#!/usr/bin/env python3
"""Monitoring a System S-style stream processing application.

Recreates the paper's real-system experiment in miniature: a
YieldMonitor-like chip-manufacturing-test analytics dataflow is placed
across a cluster, synthetic monitoring tasks (dashboards, diagnosis,
provisioning) are planned by REMO, and the discrete-event simulator
measures the average percentage error of the collected attribute
values against the live application state -- the Fig. 8 metric.

Run:  python examples/stream_processing.py
"""

from repro import CostModel, OneSetPlanner, RemoPlanner, SingletonSetPlanner
from repro.simulation import MonitoringSimulation
from repro.streams import (
    StreamMetricRegistry,
    build_stream_cluster,
    make_yieldmonitor,
    yieldmonitor_tasks,
)


def main() -> None:
    # ~200 analytic processes over 60 nodes; every node exposes
    # operator rates/queues plus OS gauges (30-50 attributes each in
    # the full-size configuration).
    app = make_yieldmonitor(n_nodes=60, n_lines=25, seed=42)
    counts = [len(app.node_attributes(n)) for n in app.nodes()]
    print(
        f"application: {len(app.graph)} operators on {len(app.nodes())} nodes, "
        f"{min(counts)}-{max(counts)} attributes per node"
    )

    cluster = build_stream_cluster(app, capacity=420.0, central_capacity=1400.0)
    tasks = yieldmonitor_tasks(app, count=40, seed=43)
    cost = CostModel(per_message=20.0, per_value=1.0)

    print(f"workload: {len(tasks)} monitoring tasks\n")
    print(f"{'scheme':<15} {'coverage':>9} {'trees':>6} {'%error':>8} {'fresh':>7}")
    for name, planner in [
        ("REMO", RemoPlanner(cost)),
        ("SINGLETON-SET", SingletonSetPlanner(cost)),
        ("ONE-SET", OneSetPlanner(cost)),
    ]:
        plan = planner.plan(tasks, cluster)
        report = MonitoringSimulation(
            plan,
            cluster,
            registry=StreamMetricRegistry(app),
            seed=9,
        ).run(20)
        print(
            f"{name:<15} {plan.coverage():>9.3f} {plan.tree_count():>6} "
            f"{report.mean_percentage_error:>8.4f} {report.mean_fresh_coverage:>7.3f}"
        )

    print(
        "\nExpected shape (paper, Fig. 8): REMO's percentage error is "
        "30-50% below the baselines'."
    )


if __name__ == "__main__":
    main()
