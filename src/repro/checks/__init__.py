"""Static plan-invariant verifier (``repro.checks``).

Verifies a :class:`~repro.core.plan.MonitoringPlan` without running
the simulator: partition exact cover, tree well-formedness, capacity
feasibility against a from-scratch cost recomputation, and adaptation
legality.  Every finding carries a stable ``REMOxxx`` code -- see
:data:`repro.checks.diagnostics.CODES` for the registry and the
README for the table.

Entry points:

- :func:`check_plan` / :func:`check_plan_for_cluster` -- collect every
  finding into a :class:`DiagnosticReport`;
- :func:`assert_plan_valid` -- raise :class:`PlanCheckError` on ERROR
  findings (the hook behind ``RemoPlanner(...).plan(...,
  debug_checks=True)``);
- :func:`check_adaptation_step` -- replay-differ for one adaptation
  step's merge/split trail;
- :func:`inject_fault` -- deterministic corruption injectors used by
  the test suite and ``repro check --corrupt``.
"""

from repro.checks.adaptation import check_adaptation_step
from repro.checks.capacity import check_budgets, check_tree_costs
from repro.checks.controlplane import check_collector_shards, check_tenant_namespaces
from repro.checks.deployment import check_shard_assignment
from repro.checks.diagnostics import (
    CODES,
    CodeInfo,
    Diagnostic,
    DiagnosticReport,
    PlanCheckError,
    Severity,
    describe_codes,
)
from repro.checks.faults import FAULT_KINDS, inject_fault
from repro.checks.runner import assert_plan_valid, check_plan, check_plan_for_cluster
from repro.checks.structure import check_partition, check_tree
from repro.trees.recompute import NodeAccounting, TreeAccounting, recompute_tree

__all__ = [
    "CODES",
    "CodeInfo",
    "Diagnostic",
    "DiagnosticReport",
    "FAULT_KINDS",
    "NodeAccounting",
    "PlanCheckError",
    "Severity",
    "TreeAccounting",
    "assert_plan_valid",
    "check_adaptation_step",
    "check_budgets",
    "check_collector_shards",
    "check_partition",
    "check_plan",
    "check_plan_for_cluster",
    "check_shard_assignment",
    "check_tenant_namespaces",
    "check_tree",
    "check_tree_costs",
    "describe_codes",
    "inject_fault",
    "recompute_tree",
]
