"""The two planner workloads: ``plan_saturated`` and ``plan_search``.

Both time :meth:`RemoPlanner.plan_with_stats` (serial, library
defaults) over a *panel* of sampled workloads and report the mean over
the panel; the amount of work is fixed by ``--seconds`` on the
reference box, not by how fast the code is, so both sides of a
comparison plan exactly the same inputs.

A single input's plan time swings 20-40% with its generator seed (the
local search runs one to five iterations), and a panel of affordable
size drawn afresh for every ``--seed`` still moved the mean by 5-10%
between seeds.  So the inputs come from a fixed *pool* a quarter larger
than the panel, and ``--seed`` draws the panel from the pool: panels of
two seeds share most of their inputs.

The panel is planned ``PASSES`` times and every input keeps its faster
plan.  The reference VM has slow stretches of seconds (the same input
read 568 to 937 ms in 24 plans back to back, in stretches of three or
four slow plans); interference only ever adds time, and the passes are
a panel apart in time, so one stretch rarely catches both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import Any, Callable, List, Optional, Tuple

from repro.checks import assert_plan_valid
from repro.core.planner import RemoPlanner
from repro.workloads.presets import sampled_workload

from harness import layers
from harness.common import Outcome, ratio, results_path, sub_seeds
from harness.spans import Patcher, Recorder

#: Inputs of the traced run planned untraced first, for the overhead ratio.
OVERHEAD_INPUTS = 4
#: The traced run plans this share of the untraced run's panel.
TRACED_SHARE = 0.5
#: Panels smaller than this (``--quick``) are too few inputs to judge
#: the regime by; the guard is skipped.
GUARD_MIN_INPUTS = 10
#: Times the panel is planned; each input keeps its fastest plan.
PASSES = 2
#: The pool's generator seeds are drawn from this, not from ``--seed``.
POOL_SEED = 0


@dataclass(frozen=True)
class PlanRegime:
    """One planner workload: input shape, panel rate, regime guard."""

    name: str
    nodes: int
    tasks: int
    capacity: float
    #: Plans per ``--seconds`` second (so that the passes add up to
    #: about ``--seconds`` on the 2-core reference box).
    plans_per_second: float
    #: Pooled (coverage, mean accepted ops) -> problem text or None;
    #: keeps the regime from silently degenerating.
    guard: Callable[[float, float], Optional[str]]


def _saturated_guard(coverage: float, accepted: float) -> Optional[str]:
    if coverage > 0.5 or accepted > 1.5:
        return f"not capacity-saturated: coverage {coverage:.3f}, {accepted:.2f} ops/plan"
    return None


def _search_guard(coverage: float, accepted: float) -> Optional[str]:
    if coverage < 0.7 or accepted < 1.0:
        return f"search regime lost: coverage {coverage:.3f}, {accepted:.2f} ops/plan"
    return None


REGIMES = {
    "plan_saturated": PlanRegime("plan_saturated", 150, 150, 200.0, 1.35, _saturated_guard),
    "plan_search": PlanRegime("plan_search", 48, 12, 200.0, 3.3, _search_guard),
}


class PlanWorkload:
    def __init__(self, name: str) -> None:
        self.regime = REGIMES[name]
        self.inputs: List[Tuple[Any, Any, Any]] = []

    # ------------------------------------------------------------------
    def setup(self, seed: int, seconds: float, traced: bool) -> None:
        regime = self.regime
        # The traced run plans each input once: wrappers, not stalls,
        # are what it is there to see.
        share = TRACED_SHARE if traced else 1.0 / PASSES
        count = max(3, round(seconds * share * regime.plans_per_second))
        pool = sub_seeds(regime.name, POOL_SEED, count + max(1, count // 4))
        self.inputs = [
            sampled_workload(
                nodes=regime.nodes, tasks=regime.tasks, capacity=regime.capacity, seed=sub
            )
            for sub in random.Random(seed).sample(pool, count)
        ]
        # One untimed plan so imports, numpy and allocator warm-up are
        # paid before the first timed operation.
        cluster, cost, tasks = sampled_workload(
            nodes=32, tasks=8, capacity=regime.capacity, seed=seed
        )
        RemoPlanner(cost).plan_with_stats(tasks, cluster)

    # ------------------------------------------------------------------
    def _plan_panel(
        self, inputs: List[Tuple[Any, Any, Any]], outcome: Outcome, rec: Optional[Recorder]
    ) -> List[Tuple[float, float, Any, Any]]:
        """Plan every input once: (wall s, cpu s, plan, stats) each."""
        rows = []
        for index, (cluster, cost, tasks) in enumerate(inputs):
            planner = RemoPlanner(cost)
            span = rec.open(layers.SPAN_PLAN, trace_id=index) if rec is not None else -1
            cpu0 = process_time()
            started = perf_counter()
            plan, stats = planner.plan_with_stats(tasks, cluster)
            wall = perf_counter() - started
            cpu = process_time() - cpu0
            if rec is not None:
                rec.close(span)
            rows.append((wall, cpu, plan, stats))
            outcome.attempted += 1
            if not self._valid(plan, cluster):
                outcome.failed += 1
        return rows

    @staticmethod
    def _valid(plan: Any, cluster: Any) -> bool:
        capacities = {node.node_id: node.capacity for node in cluster}
        try:
            plan.validate(capacities, cluster.central_capacity)
            assert_plan_valid(plan, cluster)
        except AssertionError:
            return False
        return True

    def _plan_again(self, rows: List[Tuple[float, float, Any, Any]], outcome: Outcome) -> None:
        """One more pass over the inputs of ``rows``: every plan must
        repeat its fingerprint, and each input keeps its faster plan."""
        again = self._plan_panel(self.inputs[: len(rows)], outcome, None)
        for index, (first, second) in enumerate(zip(rows, again)):
            if first[2].fingerprint() != second[2].fingerprint():
                outcome.failed += 1
                outcome.check(False, f"re-planning input {index} gave a different fingerprint")
            if second[0] < first[0]:
                rows[index] = second

    # ------------------------------------------------------------------
    def measure(self) -> Outcome:
        outcome = Outcome()
        rows = self._plan_panel(self.inputs, outcome, None)
        for _ in range(PASSES - 1):
            self._plan_again(rows, outcome)
        walls_ms = [wall * 1000.0 for wall, _cpu, _plan, _stats in rows]
        requested = sum(plan.requested_pair_count() for _w, _c, plan, _s in rows)
        collected = sum(plan.collected_pair_count() for _w, _c, plan, _s in rows)
        accepted = ratio(sum(len(stats.accepted_ops) for *_x, stats in rows), len(rows))
        if len(rows) >= GUARD_MIN_INPUTS:
            problem = self.regime.guard(ratio(collected, requested), accepted)
            outcome.check(problem is None, str(problem))
        outcome.end_to_end = {
            # Mean, not median: inputs fall in two clusters (one search
            # iteration or two) and a median sitting between them jumps
            # from one to the other as the panel's mix shifts.
            "op_ms": ratio(sum(walls_ms), len(walls_ms)),
            "work_per_cpu_s": ratio(requested, sum(cpu for _w, cpu, _p, _s in rows)),
            "delivered_fraction": ratio(collected, requested),
        }
        outcome.samples = dict.fromkeys(("op_ms", "work_per_cpu_s"), len(rows))
        outcome.info = {
            "inputs": len(rows),
            "shape": [self.regime.nodes, self.regime.tasks, self.regime.capacity],
            "accepted_ops_per_plan": accepted,
            "fingerprints": [plan.fingerprint()[:12] for _w, _c, plan, _s in rows[:4]],
        }
        return outcome

    # ------------------------------------------------------------------
    def measure_traced(self) -> Outcome:
        outcome = Outcome()
        shared = self.inputs[:OVERHEAD_INPUTS]
        plain = self._plan_panel(shared, Outcome(), None)
        rec = Recorder()
        patcher = Patcher()
        counters = layers.install_planning(rec, patcher)
        try:
            rows = self._plan_panel(self.inputs, outcome, rec)
        finally:
            patcher.undo()
        for before, after in zip(plain, rows):
            outcome.check(
                before[2].fingerprint() == after[2].fingerprint(),
                "tracing changed a plan's fingerprint",
            )
        stats = [row[3] for row in rows]
        plans = [row[2] for row in rows]
        evaluated = sum(s.candidates_evaluated for s in stats)
        accepted = sum(len(s.accepted_ops) for s in stats)
        memo_hits = sum(s.memo_hits for s in stats)
        memo_lookups = memo_hits + sum(s.memo_misses for s in stats)
        metrics = layers.planning_metrics(rec, counters)
        metrics.update(
            {
                "core.forest.memo_hit_ratio": ratio(memo_hits, memo_lookups),
                "core.gain.candidates_ranked": sum(s.candidates_ranked for s in stats),
                "core.planner.self_s": rec.self_seconds(layers.SPAN_PLAN),
                "core.planner.iterations": sum(s.iterations for s in stats),
                "core.planner.candidates_evaluated": evaluated,
                "core.planner.accepted_ops": accepted,
                "core.planner.accept_ratio": ratio(accepted, evaluated),
                "core.tasks.pairs": sum(p.requested_pair_count() for p in plans),
                "core.plan.traffic_per_period": sum(p.total_message_cost() for p in plans),
                "core.plan.trees": sum(p.tree_count() for p in plans),
                "core.plan.max_depth": max(p.max_tree_depth() for p in plans),
                "bench.trace_overhead_ratio": ratio(
                    sum(row[0] for row in rows[: len(plain)]), sum(row[0] for row in plain)
                ),
                "bench.trace_selftime_coverage": layers.selftime_coverage(rec, layers.SPAN_PLAN),
                "bench.trace_spans": len(rec.spans),
            }
        )
        outcome.per_layer = metrics
        outcome.info = {"inputs": len(rows)}
        rec.dump(
            results_path(f"trace-{self.regime.name}.json"),
            workload=self.regime.name,
            trace_id="index of the planned input",
        )
        return outcome

    def teardown(self) -> None:
        self.inputs = []
