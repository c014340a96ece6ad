"""The control plane: multi-tenant task lifecycle over one collector.

:class:`ControlPlane` is the long-running state machine behind
``repro serve``.  It owns:

- a :class:`~repro.core.tasks.MultiTenantTaskManager` -- per-tenant
  task namespaces whose pair-level de-duplication is scoped per tenant
  and unioned across tenants;
- an :class:`~repro.core.adaptation.AdaptiveMonitoringService` -- the
  planner that keeps one monitoring forest in sync with the union of
  all tenants' tasks, replanning online under cost-benefit throttling;
- a :class:`~repro.obs.metrics.MetricsRegistry` that every run records
  into, so the ``/metrics`` scrape and the run reports are two views
  of the same counters and can never disagree.

Task mutations are *staged*: submit/update/delete validate and update
the tenant namespaces immediately but only take effect in the plan at
the next ``adapt()`` -- batching is what makes the adaptation
machinery's net-delta semantics worthwhile under churn.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Optional

from repro.cluster.node import Cluster
from repro.core.adaptation import (
    AdaptationStrategy,
    AdaptiveMonitoringService,
    TaskOp,
)
from repro.core.cost import CostModel
from repro.core.tasks import (
    MonitoringTask,
    MultiTenantTaskManager,
    qualified_task_id,
)
from repro.obs import names, trace
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.runtime.config import RuntimeConfig
from repro.runtime.engine import MonitoringRuntime
from repro.runtime.metrics import RuntimeMetrics


class NoPlanError(RuntimeError):
    """Raised when a run/plan query arrives before any adaptation."""


def parse_task(payload: object, task_id: Optional[str] = None) -> MonitoringTask:
    """Build a :class:`MonitoringTask` from a JSON request body.

    ``task_id`` (from the URL) overrides any id in the body, so PUT to
    ``/tenants/{t}/tasks/{id}`` cannot rename a task.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(f"task body must be a JSON object, got {type(payload).__name__}")
    body_id = payload.get("task_id")
    final_id = task_id if task_id is not None else body_id
    if not isinstance(final_id, str) or not final_id:
        raise ValueError("task_id must be a non-empty string")
    attributes = payload.get("attributes")
    nodes = payload.get("nodes")
    if not isinstance(attributes, list) or not isinstance(nodes, list):
        raise ValueError("task body needs 'attributes' and 'nodes' lists")
    # Types are checked, never coerced: what GET renders must PUT back
    # as the same task (an int attribute would come back as a string).
    for attribute in attributes:
        if not isinstance(attribute, str) or not attribute:
            raise ValueError(f"attributes must be non-empty strings, got {attribute!r}")
    for node in nodes:
        if isinstance(node, bool) or not isinstance(node, int):
            raise ValueError(f"nodes must be JSON integers, got {node!r}")
    frequency = payload.get("frequency", 1.0)
    if isinstance(frequency, bool) or not isinstance(frequency, (int, float)):
        raise ValueError(f"frequency must be a JSON number, got {frequency!r}")
    return MonitoringTask(final_id, attributes, nodes, float(frequency))


def task_as_dict(task: MonitoringTask) -> Dict[str, object]:
    return {
        "task_id": task.task_id,
        "attributes": sorted(str(a) for a in task.attributes),
        "nodes": sorted(int(n) for n in task.nodes),
        "frequency": task.frequency,
        "pairs": task.size,
    }


class ControlPlane:
    """Tenant task lifecycle, adaptation, and runs for one cluster."""

    def __init__(
        self,
        cluster: Cluster,
        cost_model: CostModel,
        strategy: AdaptationStrategy = AdaptationStrategy.ADAPTIVE,
        config: Optional[RuntimeConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.cluster = cluster
        self.cost = cost_model
        self.config = config if config is not None else RuntimeConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tenants = MultiTenantTaskManager()
        self.service = AdaptiveMonitoringService(cluster, cost_model, strategy=strategy)
        #: Task ops staged since the last adaptation (qualified ids).
        self._pending: List[TaskOp] = []
        #: Logical adaptation clock (the throttler's ``now``).
        self._clock = itertools.count()
        self.adaptations: List[Dict[str, object]] = []
        self.reports: List[Dict[str, object]] = []

    # ------------------------------------------------------------------
    # Task lifecycle (staged; applied at the next adapt())
    # ------------------------------------------------------------------
    def _qualified(self, tenant: str, task: MonitoringTask) -> MonitoringTask:
        """The task as the flat planner-side manager sees it."""
        return MonitoringTask(
            qualified_task_id(tenant, task.task_id),
            task.attributes,
            task.nodes,
            task.frequency,
        )

    def _record_op(self, op: str, tenant: str) -> None:
        self.metrics.incr(names.CONTROLPLANE_TASK_OPS_TOTAL, op=op, tenant=tenant)
        self.metrics.set_gauge(names.CONTROLPLANE_TENANTS, len(self.tenants.tenants()))
        self.metrics.set_gauge(names.CONTROLPLANE_TASKS, self.tenants.task_count())
        self.metrics.set_gauge(names.CONTROLPLANE_PAIRS, self.tenants.pair_count())

    def submit_task(self, tenant: str, task: MonitoringTask) -> None:
        """Register a tenant task (duplicate ids rejected *per tenant*)."""
        self.tenants.add_task(tenant, task)
        self._pending.append(("add", self._qualified(tenant, task)))
        self._record_op("add", tenant)

    def update_task(self, tenant: str, task: MonitoringTask) -> None:
        self.tenants.modify_task(tenant, task)
        self._pending.append(("modify", self._qualified(tenant, task)))
        self._record_op("modify", tenant)

    def delete_task(self, tenant: str, task_id: str) -> None:
        task = self.tenants.get(tenant, task_id)
        self.tenants.remove_task(tenant, task_id)
        self._pending.append(("remove", self._qualified(tenant, task)))
        self._record_op("remove", tenant)

    def get_task(self, tenant: str, task_id: str) -> MonitoringTask:
        return self.tenants.get(tenant, task_id)

    @property
    def pending_ops(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    # Adaptation
    # ------------------------------------------------------------------
    def adapt(self, force_rebuild: bool = False) -> Dict[str, object]:
        """Apply every staged op and replan.

        Runs even with no staged ops when ``force_rebuild`` is set (a
        from-scratch replan); otherwise a no-op batch still replays the
        adaptation machinery, which is harmless but pointless, so it is
        rejected to keep the adaptation log meaningful.
        """
        if not self._pending and not force_rebuild:
            raise NoPlanError("no staged task changes; nothing to adapt")
        ops, self._pending = self._pending, []
        now = float(next(self._clock))
        with trace.span(names.SPAN_CONTROLPLANE_ADAPT, lane=names.LANE_CONTROLPLANE):
            with use_registry(self.metrics):
                report = self.service.apply_changes(
                    ops, now=now, force_rebuild=force_rebuild
                )
        self.metrics.incr(names.CONTROLPLANE_ADAPTATIONS_TOTAL)
        self.metrics.observe(names.CONTROLPLANE_REPLAN_SECONDS, report.planning_seconds)
        record: Dict[str, object] = {
            "sequence": len(self.adaptations),
            "ops": len(ops),
            "strategy": report.strategy.value,
            "planning_seconds": report.planning_seconds,
            "adaptation_messages": report.adaptation_messages,
            "monitoring_volume": report.monitoring_volume,
            "coverage": report.coverage,
            "requested_pairs": report.requested_pairs,
            "applied_ops": list(report.applied_ops),
            "throttled_ops": report.throttled_ops,
        }
        self.adaptations.append(record)
        return record

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------
    async def run(self, periods: int) -> Dict[str, object]:
        """Run the current plan live and archive the merged report."""
        plan = self.service.plan
        if plan is None:
            raise NoPlanError("no plan yet: submit tasks and POST /adapt first")
        runtime = MonitoringRuntime(
            plan,
            self.cluster,
            config=self.config,
            metrics=RuntimeMetrics(registry=self.metrics),
        )
        with trace.span(names.SPAN_CONTROLPLANE_RUN, lane=names.LANE_CONTROLPLANE):
            report = await runtime.run_async(periods)
        self.metrics.incr(names.CONTROLPLANE_RUNS_TOTAL)
        payload = report.as_dict()
        payload["run"] = len(self.reports)
        self.reports.append(payload)
        return payload

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def plan_summary(self) -> Dict[str, object]:
        plan = self.service.plan
        if plan is None:
            raise NoPlanError("no plan yet: submit tasks and POST /adapt first")
        return {
            "trees": plan.tree_count(),
            "requested_pairs": plan.requested_pair_count(),
            "collected_pairs": plan.collected_pair_count(),
            "coverage": plan.coverage(),
            "message_cost": plan.total_message_cost(),
            "max_depth": plan.max_tree_depth(),
            "central_usage": plan.central_usage(),
        }

    def status(self) -> Dict[str, object]:
        return {
            "tenants": self.tenants.tenants(),
            "tasks": self.tenants.task_count(),
            "pairs": self.tenants.pair_count(),
            "pending_ops": self.pending_ops,
            "adaptations": len(self.adaptations),
            "runs": len(self.reports),
            "has_plan": self.service.plan is not None,
        }
