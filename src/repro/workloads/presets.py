"""Canonical ready-made workloads and the :class:`Scenario` built on them.

The quickstart example, the ``repro check`` CLI default, and CI all
exercise the same cluster + task mix so "the quickstart workload" is
one definition, not three drifting copies.  Outside ``repro.core``,
:meth:`Scenario.plan` is the one place a workload becomes a plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

from repro.cluster.node import Cluster
from repro.cluster.topology import default_attribute_pool, make_uniform_cluster
from repro.core import SCHEMES
from repro.core.cost import CostModel
from repro.core.plan import MonitoringPlan
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

    A :class:`Scenario` without a preset builds through this one
    function, so a deploy worker rebuilding its world from the spec
    gets a bit-identical cluster, cost model, and task list (sampling
    is fully seeded).
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


@dataclass(frozen=True)
class Scenario:
    """The paper's planning input and the scheme that plans it.

    ``preset="quickstart"`` names :func:`quickstart_workload`; otherwise
    the nine sampled fields are :func:`sampled_workload`'s arguments.
    The CLI builds one from its flags and every ``repro deploy`` child
    rebuilds it from the spec, so all of them plan the identical input.
    """

    preset: Optional[str] = None
    nodes: int = 64
    capacity: float = 400.0
    central: Optional[float] = None
    pool: int = 32
    attrs_per_node: int = 16
    tasks: int = 15
    cost_c: float = 20.0
    cost_a: float = 1.0
    seed: int = 1
    scheme: str = "remo"

    def __post_init__(self) -> None:
        if self.preset not in (None, "quickstart"):
            raise ValueError(f"unknown workload preset {self.preset!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")

    @cached_property
    def workload(self) -> Tuple[Cluster, CostModel, List[MonitoringTask]]:
        """The cluster, cost model and tasks, built once per scenario."""
        if self.preset == "quickstart":
            return quickstart_workload()
        return sampled_workload(
            nodes=self.nodes,
            capacity=self.capacity,
            central=self.central,
            pool=self.pool,
            attrs_per_node=self.attrs_per_node,
            tasks=self.tasks,
            cost_c=self.cost_c,
            cost_a=self.cost_a,
            seed=self.seed,
        )

    @property
    def label(self) -> str:
        """The workload's name in report headers."""
        return self.preset or f"{self.nodes} nodes, {self.tasks} tasks"

    def plan(self) -> MonitoringPlan:
        cluster, cost, tasks = self.workload
        return SCHEMES[self.scheme](cost).plan(tasks, cluster)
