"""Discrete-event simulation of a deployed monitoring forest.

The planner reasons about capacity analytically; this package runs a
plan on the runtime's plan model -- its slot layouts, batches,
trimming rule, collector columns and scorer -- under a schedule of its
own: periodic update batches hop by hop, per-period node budgets,
injected link/node failures.  It measures what the paper's
real-system experiments measure (Fig. 8): the *average percentage
error* between the collector's view of every requested node-attribute
pair and the ground-truth value at the same instant, along with
coverage and traffic statistics.
"""

from repro.simulation.collection import CollectionStats
from repro.simulation.failures import FailureInjector, LinkOutage
from repro.simulation.engine import MonitoringSimulation, SimulationConfig

__all__ = [
    "CollectionStats",
    "FailureInjector",
    "LinkOutage",
    "MonitoringSimulation",
    "SimulationConfig",
]
