"""Discrete-event simulation of a deployed monitoring forest.

The planner reasons about capacity analytically; this package runs a
plan on the runtime's own agents and collector -- their budgets,
buffers, trimming, folding, scoring and down-node rule -- under a
schedule of its own: periodic update batches hop by hop, phased
bottom-up, and injected link outages.  It measures what the paper's
real-system experiments measure (Fig. 8): the *average percentage
error* between the collector's view of every requested node-attribute
pair and the ground-truth value at the same instant, along with
coverage and traffic statistics.
"""

from repro.simulation.failures import FailureInjector, LinkOutage
from repro.simulation.engine import MonitoringSimulation

__all__ = [
    "FailureInjector",
    "LinkOutage",
    "MonitoringSimulation",
]
