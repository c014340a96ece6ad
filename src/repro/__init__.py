"""REMO: REsource-aware application state MOnitoring (reproduction).

This package reproduces the system described in "Resource-Aware
Application State Monitoring" (Meng, Kashyap, Venkatramani, Liu; ICDCS
2009 / IEEE TPDS 2012).  It plans monitoring overlays -- forests of
collection trees -- for large sets of application state monitoring
tasks, under per-node resource constraints and a message cost model
with explicit per-message overhead.

Public API overview
-------------------
- :mod:`repro.core` -- tasks, cost model, partitions, planners.
- :mod:`repro.trees` -- capacity-constrained collection tree builders.
- :mod:`repro.cluster` -- simulated cluster substrate.
- :mod:`repro.simulation` -- discrete-event monitoring simulator.
- :mod:`repro.streams` -- System S-like distributed stream substrate.
- :mod:`repro.ext` -- in-network aggregation, reliability, frequencies.
- :mod:`repro.workloads` -- synthetic task/update generators.
- :mod:`repro.checks` -- static plan-invariant verifier (REMOxxx codes).

Quickstart::

    from repro import CostModel, MonitoringTask, RemoPlanner, make_uniform_cluster

    cluster = make_uniform_cluster(n_nodes=64, capacity=200.0, seed=7)
    tasks = [MonitoringTask("t0", ("cpu", "mem"), tuple(range(32)))]
    planner = RemoPlanner(cost_model=CostModel(per_message=2.0, per_value=1.0))
    plan = planner.plan(tasks, cluster)
    print(plan.coverage())
"""

from repro.checks import (
    DiagnosticReport,
    PlanCheckError,
    assert_plan_valid,
    check_plan,
    check_plan_for_cluster,
)
from repro.core.attributes import NodeAttributePair
from repro.core.cost import AggregationKind, AggregationSpec, CostModel
from repro.core.tasks import MonitoringTask, TaskManager, TaskSetDelta
from repro.core.partition import Partition
from repro.core.plan import MonitoringPlan
from repro.core.allocation import AllocationPolicy
from repro.core.schemes import OneSetPlanner, SingletonSetPlanner
from repro.core.planner import RemoPlanner
from repro.core.adaptation import (
    AdaptationStrategy,
    AdaptiveMonitoringService,
)
from repro.cluster import Cluster, SimNode, make_uniform_cluster
from repro.cluster.topology import make_heterogeneous_cluster

__all__ = [
    "AdaptationStrategy",
    "AdaptiveMonitoringService",
    "AggregationKind",
    "AggregationSpec",
    "AllocationPolicy",
    "Cluster",
    "CostModel",
    "DiagnosticReport",
    "MonitoringPlan",
    "MonitoringTask",
    "NodeAttributePair",
    "OneSetPlanner",
    "Partition",
    "PlanCheckError",
    "RemoPlanner",
    "SimNode",
    "SingletonSetPlanner",
    "TaskManager",
    "TaskSetDelta",
    "assert_plan_valid",
    "check_plan",
    "check_plan_for_cluster",
    "make_heterogeneous_cluster",
    "make_uniform_cluster",
]

__version__ = "1.0.0"
