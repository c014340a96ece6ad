#!/usr/bin/env python3
"""Datacenter application-provisioning monitoring.

The scenario from the paper's introduction: application provisioning
requires continuously collecting performance attributes (CPU, memory,
packet-size distributions, ...) from application-hosting servers.
This example builds a heterogeneous 120-node cluster, a mixed workload
of dashboard / capacity / diagnosis tasks, plans it with REMO, and then
*runs* the plan in the discrete-event simulator to measure what a user
would see: freshness, percentage error, and traffic.

Run:  python examples/datacenter_monitoring.py
"""

from repro import CostModel, MonitoringTask, RemoPlanner, SingletonSetPlanner
from repro.cluster.topology import make_heterogeneous_cluster
from repro.simulation import MonitoringSimulation

OS_ATTRS = [
    "cpu",
    "mem",
    "net_in",
    "net_out",
    "disk_io",
    "pkt_small",
    "pkt_medium",
    "pkt_large",
    "ctx_switches",
    "load1",
]


def main() -> None:
    # Heterogeneous capacities: co-located application load leaves
    # different monitoring headroom on different hosts.
    cluster = make_heterogeneous_cluster(
        n_nodes=120,
        capacity_low=200.0,
        capacity_high=500.0,
        attrs_per_node=len(OS_ATTRS),
        attribute_pool=OS_ATTRS,
        central_capacity=1200.0,
        seed=11,
    )
    cost = CostModel(per_message=25.0, per_value=1.0)

    tasks = [
        # Fleet-wide dashboard at the highest frequency.
        MonitoringTask("fleet-cpu-mem", ["cpu", "mem"], range(120)),
        # Capacity planning: packet size distributions on the web tier.
        MonitoringTask(
            "pkt-distribution",
            ["pkt_small", "pkt_medium", "pkt_large"],
            range(0, 60),
        ),
        # Diagnosis of a perceived bottleneck on one rack.
        MonitoringTask(
            "rack7-deep-dive",
            ["cpu", "load1", "ctx_switches", "disk_io", "net_in", "net_out"],
            range(84, 96),
        ),
        # Batch tier I/O watch, half frequency.
        MonitoringTask(
            "batch-io", ["disk_io", "net_in", "net_out"], range(60, 120), frequency=0.5
        ),
    ]

    for name, planner in [
        ("REMO", RemoPlanner(cost)),
        ("SINGLETON-SET", SingletonSetPlanner(cost)),
    ]:
        plan = planner.plan(tasks, cluster)
        sim = MonitoringSimulation(plan, cluster, seed=3)
        report = sim.run(25)
        print(
            f"{name:<15} coverage={plan.coverage():.3f} trees={plan.tree_count():3d} "
            f"error={report.mean_percentage_error:.4f} "
            f"fresh={report.mean_fresh_coverage:.3f} "
            f"msgs/period={report.messages_sent // 25}"
        )

    plan = RemoPlanner(cost).plan(tasks, cluster)
    print("\nper-node budget utilisation under REMO (top 5):")
    usage = plan.node_usage()
    for node_id, used in sorted(usage.items(), key=lambda kv: -kv[1])[:5]:
        budget = cluster.capacity(node_id)
        print(f"  node {node_id:3d}: {used:7.1f} / {budget:7.1f} ({100*used/budget:5.1f}%)")


if __name__ == "__main__":
    main()
