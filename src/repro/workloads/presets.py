"""Canonical ready-made workloads.

The quickstart example, the ``repro check`` CLI default, and CI all
exercise the same cluster + task mix so "the quickstart workload" is
one definition, not three drifting copies.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Tuple

from repro.cluster.node import Cluster
from repro.cluster.topology import default_attribute_pool, make_uniform_cluster
from repro.core.cost import CostModel
from repro.core.tasks import MonitoringTask
from repro.workloads.tasks import TaskSampler


def quickstart_workload() -> Tuple[Cluster, CostModel, List[MonitoringTask]]:
    """The quickstart scenario: 64 nodes, three overlapping tasks.

    Each node spends at most 300 cost units per period on monitoring
    I/O and observes 12 of 24 attribute types; the central collector
    is capped at 900.  Messages cost ``C + a*x`` with ``C=20`` and
    ``a=1`` (Section 2.3 of the paper).
    """
    cluster = make_uniform_cluster(
        n_nodes=64,
        capacity=300.0,
        attrs_per_node=12,
        central_capacity=900.0,
        seed=7,
    )
    cost = CostModel(per_message=20.0, per_value=1.0)
    pool = sorted({a for node in cluster for a in node.attributes})
    tasks = [
        MonitoringTask("dashboard", pool[:3], range(0, 64)),
        MonitoringTask("debug-tier1", pool[:6], range(0, 24)),
        MonitoringTask("capacity-planning", pool[3:10], range(16, 56)),
    ]
    return cluster, cost, tasks


def sampled_workload(
    nodes: int = 64,
    capacity: float = 400.0,
    central: Optional[float] = None,
    pool: int = 32,
    attrs_per_node: int = 16,
    tasks: int = 15,
    cost_c: float = 20.0,
    cost_a: float = 1.0,
    seed: int = 1,
) -> Tuple[Cluster, CostModel, List[MonitoringTask]]:
    """The CLI's sampled workload: a uniform cluster plus random tasks.

    ``repro plan/simulate/run`` and every ``repro deploy`` child
    process construct their workload through this one function, so a
    worker rebuilding its world from a deploy spec gets bit-identical
    cluster, cost model, and task list (sampling is fully seeded).
    """
    cluster = make_uniform_cluster(
        n_nodes=nodes,
        capacity=capacity,
        attrs_per_node=min(attrs_per_node, pool),
        attribute_pool=default_attribute_pool(pool),
        central_capacity=central if central is not None else 3.0 * capacity,
        seed=seed,
    )
    cost = CostModel(per_message=cost_c, per_value=cost_a)
    sampled = TaskSampler(cluster, seed=seed + 1).sample_many(
        tasks, (2, 5), (max(5, nodes // 6), max(6, nodes // 2))
    )
    return cluster, cost, sampled


def build_workload(
    workload: Mapping[str, Any],
) -> Tuple[Cluster, CostModel, List[MonitoringTask]]:
    """Resolve a workload description: ``{"preset": "quickstart"}`` or
    the :func:`sampled_workload` keyword arguments.

    The one place a ``--preset`` choice is turned into a workload, for
    the CLI and for every ``repro deploy`` child rebuilding its spec's.
    """
    params = dict(workload)
    preset = params.pop("preset", None)
    if preset == "quickstart":
        return quickstart_workload()
    if preset is not None:
        raise ValueError(f"unknown workload preset {preset!r}")
    return sampled_workload(**params)
