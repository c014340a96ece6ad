"""Timing wrappers around each planning-side layer's public entry points.

Installed only for the traced run (``--trace 1``); the untraced run
never imports this module's wrappers into the program.  Methods are
patched on the class; module functions are patched where they were
imported (``repro.core.planner.rank_candidates``), because that is the
name the caller resolves.

Span names are ``<layer>.<operation>``; :func:`planning_metrics` turns
a recorder into the per-layer metric names of ``BENCHMARK.json``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable

from repro.core import planner as planner_module
from repro.core.adaptation import AdaptiveMonitoringService
from repro.core.forest import ForestBuilder
from repro.core.tasks import MultiTenantTaskManager, TaskManager
from repro.serve.controlplane import ControlPlane
from repro.trees.adjust import TreeAdjuster
from repro.trees.base import GreedyTreeBuilder
from repro.trees.model import MonitoringTree

from harness.common import ratio
from harness.spans import Patcher, Recorder

MODEL_PROBES = ("can_add_node", "can_move_branch", "viable_parent_arrays")
MODEL_MUTATORS = ("add_node", "move_branch", "remove_branch", "update_local")
TENANT_TASK_OPS = ("add_task", "modify_task", "remove_task")
CONTROLPLANE_TASK_OPS = ("submit_task", "update_task", "delete_task", "get_task")

#: The plan (or adapt request) every other span hangs under.
SPAN_PLAN = "core.planner.plan"
SPAN_ADAPT = "serve.controlplane.adapt"
SPAN_TASK_OP = "serve.controlplane.task_op"


class PlanningCounters:
    """Counts the wrappers cannot see from timings alone."""

    def __init__(self) -> None:
        self.inserts = 0


def _leaves(rec: Recorder, patcher: Patcher, owner: Any, attrs: Iterable[str], name: str) -> None:
    for attr in attrs:
        patcher.wrap(owner, attr, lambda fn: rec.wrap_leaf(name, fn))


def _spans(rec: Recorder, patcher: Patcher, owner: Any, attrs: Iterable[str], name: str) -> None:
    for attr in attrs:
        patcher.wrap(owner, attr, lambda fn: rec.wrap_span(name, fn))


def install_planning(rec: Recorder, patcher: Patcher) -> PlanningCounters:
    """Wrap tree model, builders, adjuster, forest, ranking and de-dup."""
    counters = PlanningCounters()

    def count_inserts(result: Any) -> None:
        counters.inserts += result.included_count

    def build_span(fn: Callable[..., Any]) -> Callable[..., Any]:
        return rec.wrap_span("trees.builder.build", fn, on_result=count_inserts)

    _leaves(rec, patcher, MonitoringTree, MODEL_PROBES, "trees.model.probe")
    _leaves(rec, patcher, MonitoringTree, MODEL_MUTATORS, "trees.model.mutate")
    patcher.wrap(GreedyTreeBuilder, "build", build_span)
    _spans(rec, patcher, TreeAdjuster, ["relieve"], "trees.adjust.relieve")
    _spans(rec, patcher, ForestBuilder, ["build"], "core.forest.build")
    _spans(rec, patcher, planner_module, ["rank_candidates"], "core.gain.rank")
    _leaves(rec, patcher, planner_module, ["observable_pairs"], "core.tasks.dedup")
    return counters


def install_controlplane(rec: Recorder, patcher: Patcher) -> None:
    """Wrap the control plane, the adaptation step and task de-dup."""
    _spans(rec, patcher, ControlPlane, CONTROLPLANE_TASK_OPS, SPAN_TASK_OP)
    _spans(rec, patcher, ControlPlane, ["adapt"], SPAN_ADAPT)
    _spans(
        rec, patcher, AdaptiveMonitoringService, ["apply_changes"], "core.adaptation.apply"
    )
    _leaves(rec, patcher, MultiTenantTaskManager, TENANT_TASK_OPS, "core.tasks.dedup")
    _leaves(rec, patcher, TaskManager, ["apply"], "core.tasks.dedup")


def planning_metrics(rec: Recorder, counters: PlanningCounters) -> Dict[str, float]:
    """Per-layer numbers for everything :func:`install_planning` wraps."""
    probe_calls, probe_s, probe_true = rec.leaf("trees.model.probe")
    mutate_calls, mutate_s, _ = rec.leaf("trees.model.mutate")
    _dedup_calls, dedup_s, _ = rec.leaf("core.tasks.dedup")
    builder_self = rec.self_seconds("trees.builder.build")
    return {
        "trees.model.probe_calls": probe_calls,
        "trees.model.probe_s": probe_s,
        "trees.model.mutate_calls": mutate_calls,
        "trees.model.mutate_s": mutate_s,
        "trees.model.probe_accept_ratio": ratio(probe_true, probe_calls),
        "trees.builder.build_calls": rec.calls("trees.builder.build"),
        "trees.builder.self_s": builder_self,
        "trees.builder.inserts_per_s": ratio(
            counters.inserts, rec.total_seconds("trees.builder.build")
        ),
        "trees.adjust.relieve_calls": rec.calls("trees.adjust.relieve"),
        "trees.adjust.self_s": rec.self_seconds("trees.adjust.relieve"),
        "core.forest.build_calls": rec.calls("core.forest.build"),
        "core.forest.self_s": rec.self_seconds("core.forest.build"),
        "core.gain.rank_calls": rec.calls("core.gain.rank"),
        "core.gain.rank_s": rec.total_seconds("core.gain.rank"),
        "core.tasks.dedup_s": dedup_s,
    }


def selftime_coverage(rec: Recorder, *root_names: str) -> float:
    """Sum of every span's self time plus leaf time, over the root spans' time.

    1.0 means the layers account for the whole of the enclosing spans
    (a plan, an adapt request, a task call); a value away from 1 means
    wrapped code ran outside any of them.
    """
    enclosing = sum(rec.total_seconds(name) for name in root_names)
    if not enclosing:
        return 0.0
    roots = {i for i, r in enumerate(rec.spans) if r[0] in root_names}
    inside = set(roots)
    for index, record in enumerate(rec.spans):
        if record[3] in inside:
            inside.add(index)
    accounted = sum(r[2] - r[1] - r[5] for i, r in enumerate(rec.spans) if i in inside)
    # Leaf time was charged to its enclosing span as child time, so it
    # is not in any self time above; add it back.
    accounted += sum(stats[1] for stats in rec.leaves.values())
    return accounted / enclosing
