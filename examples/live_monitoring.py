#!/usr/bin/env python3
"""Live monitoring: execute a plan on the asyncio runtime.

Plans the quickstart workload with REMO, then actually runs it --
one concurrent agent per node batching values up its collection tree
under the ``C + a*x`` budget, a collector scoring coverage and error
each period.  Halfway through, one tree's relay node is crashed to show
failure detection (its parent stops hearing from it) and recovery.

Run:  python examples/live_monitoring.py
"""

from repro import RemoPlanner, check_plan_for_cluster
from repro.runtime import AgentOutage, MonitoringRuntime, RuntimeConfig
from repro.workloads.presets import quickstart_workload


def main() -> None:
    cluster, cost, tasks = quickstart_workload()
    plan = RemoPlanner(cost).plan(tasks, cluster)
    print(
        f"planned {plan.tree_count()} trees covering "
        f"{plan.coverage():.1%} of requested pairs"
    )

    # Same pre-launch gate as ``python -m repro run``: never start
    # agents for a plan the static verifier rejects.
    report = check_plan_for_cluster(plan, cluster)
    if report.has_errors:
        print(report.format(with_hints=True))
        raise SystemExit(1)

    # Pick a relay (interior) node from the first tree and schedule a
    # crash for periods [6, 12): its whole subtree goes dark, the
    # collector flags it after two periods its parent names it silent,
    # and freshness recovers once it comes back.
    victim = None
    for result in plan.trees.values():
        tree = result.tree
        for node in tree.nodes:
            if tree.parent(node) is not None and tree.children(node):
                victim = node
                break
        if victim is not None:
            break
    outages = [AgentOutage(node=victim, start=6, end=12)] if victim is not None else []
    if victim is not None:
        print(f"scheduling a crash of relay node {victim} for periods [6, 12)")

    config = RuntimeConfig(
        period_seconds=0.05,
        failure_timeout=2,
        outages=outages,
    )
    runtime = MonitoringRuntime(plan, cluster, config=config)
    result = runtime.run(18)

    print()
    print(result.render("live quickstart run"))
    print()
    print("period-by-period freshness (watch the dip during the outage):")
    for sample in result.samples:
        bar = "#" * round(sample.fresh_fraction * 40)
        print(f"  period {sample.period:>2}  {sample.fresh_fraction:6.1%}  {bar}")
    if result.failure_events:
        print()
        print("collector failure detections:")
        for event in result.failure_events:
            print(f"  period {event.period:>2}: node {event.node} {event.kind}")


if __name__ == "__main__":
    main()
