"""REMO extensions (Section 6).

Three optional capabilities, each designed as a plug-in that rewrites
planner *inputs* rather than modifying the planning framework:

- :mod:`repro.ext.aggregation` -- in-network aggregation awareness:
  funnel functions let the planner estimate per-node cost correctly
  when partial aggregates replace holistic relay;
- :mod:`repro.ext.reliability` -- SSDP/DSDP replication by task
  rewriting: aliased attributes forced into different trees yield
  redundant delivery paths;
- :mod:`repro.ext.frequencies` -- heterogeneous update frequencies via
  piggybacking: per-pair weights and per-node message weights encode
  expected traffic per unit time.
"""

from repro.ext.aggregation import uniform_aggregation
from repro.ext.frequencies import FrequencyPlanningInputs, frequency_weights
from repro.ext.reliability import (
    ReplicatedRegistry,
    ReplicationRewrite,
    alias_cluster,
    replica_plan_coverage,
    rewrite_dsdp,
    rewrite_ssdp,
)

__all__ = [
    "FrequencyPlanningInputs",
    "ReplicatedRegistry",
    "ReplicationRewrite",
    "alias_cluster",
    "frequency_weights",
    "replica_plan_coverage",
    "rewrite_dsdp",
    "rewrite_ssdp",
    "uniform_aggregation",
]
