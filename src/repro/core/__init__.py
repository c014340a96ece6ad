"""Core REMO planning machinery.

The subpackage contains the paper's primary contribution: the
multi-task monitoring topology planner and everything it is defined in
terms of -- the cost model with per-message overhead, the monitoring
task model with de-duplication, attribute-set partitions with
merge/split neighborhoods, gain estimation for the guided local
search, resource allocation across trees, and the runtime adaptation
algorithms.
"""

from repro.core.attributes import NodeAttributePair
from repro.core.cost import AggregationKind, AggregationSpec, CostModel
from repro.core.tasks import (
    MonitoringTask,
    MultiTenantTaskManager,
    TaskManager,
    TaskSetDelta,
)
from repro.core.partition import Partition
from repro.core.plan import MonitoringPlan
from repro.core.allocation import AllocationPolicy
from repro.core.forest import ForestBuilder
from repro.core.schemes import OneSetPlanner, SingletonSetPlanner
from repro.core.planner import RemoPlanner
from repro.core.adaptation import AdaptationStrategy, AdaptiveMonitoringService

#: ``--scheme`` name -> planner class: the one table behind the CLI and
#: every ``repro deploy`` process.  (It lives here, not in
#: ``core/schemes.py``, because ``core/planner.py`` imports that module.)
SCHEMES = {
    "remo": RemoPlanner,
    "singleton": SingletonSetPlanner,
    "one-set": OneSetPlanner,
}

__all__ = [
    "AdaptationStrategy",
    "AdaptiveMonitoringService",
    "ForestBuilder",
    "AggregationKind",
    "AggregationSpec",
    "AllocationPolicy",
    "CostModel",
    "MonitoringPlan",
    "MonitoringTask",
    "MultiTenantTaskManager",
    "NodeAttributePair",
    "OneSetPlanner",
    "Partition",
    "RemoPlanner",
    "SCHEMES",
    "SingletonSetPlanner",
    "TaskManager",
    "TaskSetDelta",
]
