"""Static plan-invariant verifier (``repro.checks``).

Verifies a :class:`~repro.core.plan.MonitoringPlan` without running
the simulator against the paper's validity conditions (Problem 2): the
partition covers the requested attributes exactly, every set has a
well-formed tree, and no node or collector exceeds its ``C + a*x``
budget under a from-scratch cost recomputation.  Every finding carries
a stable ``REMOxxx`` code -- see :data:`repro.checks.diagnostics.CODES`
for the registry and the README for the table.

Entry points:

- :func:`check_plan` / :func:`check_plan_for_cluster` -- collect every
  finding into a :class:`DiagnosticReport`;
- :func:`assert_plan_valid` -- raise :class:`PlanCheckError` on ERROR
  findings;
- :func:`inject_fault` -- deterministic corruption injectors used by
  the test suite and ``repro check --corrupt``.
"""

from repro.checks.capacity import check_budgets, check_tree_costs
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
    "check_budgets",
    "check_partition",
    "check_plan",
    "check_plan_for_cluster",
    "check_tree",
    "check_tree_costs",
    "describe_codes",
    "inject_fault",
    "recompute_tree",
]
