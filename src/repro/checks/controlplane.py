"""Pre-launch verification of collector sharding and tenant namespaces.

The control plane (`repro serve`) splits a plan's collection trees
across collector shards and multiplexes many tenants' task namespaces
onto one planner.  Both mappings are cheap to verify before anything
listens on a socket and expensive to debug afterwards: a partition set
assigned to no shard silently never scores, an overloaded shard root
drops updates at capacity, and a tenant name containing the namespace
separator corrupts every qualified task id derived from it.  Failure
classes live in the same append-only registry (``REMO361``-``REMO365``).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.checks.diagnostics import DiagnosticReport
from repro.checks.structure import set_label
from repro.core.partition import AttributeSet
from repro.core.plan import MonitoringPlan
from repro.core.tasks import TENANT_SEPARATOR, MonitoringTask


def check_collector_shards(
    plan: MonitoringPlan,
    assignment: Mapping[AttributeSet, int],
    shards: int,
    central_capacity: Optional[float] = None,
) -> DiagnosticReport:
    """Verify that ``assignment`` legally shards ``plan``'s trees.

    Emits:

    - ``REMO361`` (error): a partition set missing from the assignment,
      an assigned set outside the partition, or a shard index outside
      ``[0, shards)``;
    - ``REMO362`` (error): a shard whose root messages exceed
      ``central_capacity`` (checked when a budget is given);
    - ``REMO363`` (warning): a shard hosting no trees.
    """
    report = DiagnosticReport()
    if shards < 1:
        report.add("REMO361", "shard plan", f"shard count must be >= 1, got {shards}")
        return report

    partition_sets = set(plan.partition.sets)
    for attr_set in sorted(partition_sets - set(assignment), key=sorted):
        report.add(
            "REMO361",
            set_label(attr_set),
            "partition set is assigned to no collector shard",
        )
    usage: Dict[int, float] = {shard: 0.0 for shard in range(shards)}
    for attr_set, shard in sorted(assignment.items(), key=lambda kv: sorted(kv[0])):
        label = set_label(attr_set)
        if attr_set not in partition_sets:
            report.add(
                "REMO361", label, "assigned set does not belong to the partition"
            )
            continue
        if not 0 <= shard < shards:
            report.add(
                "REMO361",
                label,
                f"assigned to shard {shard}, outside [0, {shards})",
            )
            continue
        usage[shard] += plan.trees[attr_set].tree.central_used()

    for shard in range(shards):
        if central_capacity is not None and usage[shard] > central_capacity + 1e-6:
            report.add(
                "REMO362",
                f"collector shard {shard}",
                f"root messages cost {usage[shard]:.6f} > "
                f"per-collector budget {central_capacity:.6f}",
            )
        if not any(
            owner == shard and attr_set in partition_sets
            for attr_set, owner in assignment.items()
        ):
            report.add(
                "REMO363",
                f"collector shard {shard}",
                "no partition set reports to this shard",
            )
    return report


def check_tenant_namespaces(
    tenant_tasks: Mapping[str, Sequence[MonitoringTask]],
) -> DiagnosticReport:
    """Verify tenant names and per-tenant task ids are well-formed.

    Emits:

    - ``REMO364`` (error): an empty tenant name, a tenant name or task
      id containing the ``/`` separator, or a duplicate task id within
      one tenant;
    - ``REMO365`` (warning): a tenant namespace holding no tasks.
    """
    report = DiagnosticReport()
    for tenant in sorted(tenant_tasks):
        tasks = tenant_tasks[tenant]
        location = f"tenant {tenant!r}"
        if not tenant:
            report.add("REMO364", location, "tenant name is empty")
        elif TENANT_SEPARATOR in tenant:
            report.add(
                "REMO364",
                location,
                f"tenant name contains the separator {TENANT_SEPARATOR!r}",
            )
        if not tasks:
            report.add("REMO365", location, "tenant has no registered tasks")
        seen: List[str] = []
        for task in tasks:
            if TENANT_SEPARATOR in task.task_id:
                report.add(
                    "REMO364",
                    f"{location} / task {task.task_id!r}",
                    f"task id contains the separator {TENANT_SEPARATOR!r}",
                )
            if task.task_id in seen:
                report.add(
                    "REMO364",
                    f"{location} / task {task.task_id!r}",
                    "duplicate task id within the tenant namespace",
                )
            else:
                seen.append(task.task_id)
    return report
