"""Synthetic workload generators matching Section 7's setup.

Monitoring tasks are sampled by picking ``|A_t|`` attributes and
``|N_t|`` nodes uniformly; *small-scale* tasks touch few attributes on
few nodes, *large-scale* tasks involve many of either.  The runtime
adaptation experiments mutate the live task set in batches: each batch
picks 5% of the monitoring nodes and replaces 50% of their monitored
attributes.
"""

from repro.workloads.tasks import TaskSampler
from repro.workloads.updates import TaskUpdateStream

__all__ = [
    "TaskSampler",
    "TaskUpdateStream",
]
