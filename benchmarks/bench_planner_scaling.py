"""Planner wall-clock scaling under incremental cost propagation.

The delta-based tree model (see DESIGN.md) exists to make planning
cheap at paper scale; this bench measures it directly.  For each
workload size N the planner runs the CLI-default regime (N nodes, N
tasks, capacity 400, C=20/a=1) and reports wall-clock time alongside
the search-effort counters from :class:`PlanningStats`.

Besides the human-readable table, results are persisted as
``BENCH_planner.json`` under ``benchmarks/results/`` (override with
``REPRO_BENCH_RESULTS``) using the same field names the CLI's
``repro plan --json`` emits in its ``planning`` block, so the two
sources can be joined.

The CI perf-smoke job re-runs the default sizes and fails when any
row's fingerprint differs from the committed report, so a change to a
default plan lands with its re-run report.  Custom sizes::

    PYTHONPATH=src python benchmarks/bench_planner_scaling.py --sizes 80
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Dict, List, Sequence

from _common import emit, results_dir
from repro.analysis.report import format_table
from repro.core.planner import RemoPlanner
from repro.obs import names
from repro.obs.metrics import default_registry
from repro.workloads.presets import sampled_workload

DEFAULT_SIZES = (50, 100, 200, 500, 1000)

#: Planner phases whose wall time the obs registry histograms record.
#: ``adjustment`` interleaves with ``tree_construction``; each build
#: reports the two exclusive of each other, so the phases add up.
_PHASES = ("partition", "tree_construction", "adjustment")


def _phase_seconds_snapshot() -> Dict[str, float]:
    registry = default_registry()
    return {
        phase: registry.histogram(names.PLANNER_PHASE_SECONDS, phase=phase).sum
        for phase in _PHASES
    }


def measure(n_nodes: int, n_tasks: int) -> Dict:
    cluster, cost, tasks = sampled_workload(nodes=n_nodes, tasks=n_tasks)
    planner = RemoPlanner(cost)
    before = _phase_seconds_snapshot()
    plan, stats = planner.plan_with_stats(tasks, cluster)
    after = _phase_seconds_snapshot()
    memo_total = stats.memo_hits + stats.memo_misses
    return {
        "nodes": n_nodes,
        "tasks": n_tasks,
        "elapsed_seconds": stats.elapsed_seconds,
        "iterations": stats.iterations,
        "candidates_ranked": stats.candidates_ranked,
        "candidates_evaluated": stats.candidates_evaluated,
        "candidates_abandoned": stats.candidates_abandoned,
        "accepted_ops": list(stats.accepted_ops),
        "coverage": plan.coverage(),
        # Committed alongside the timings so a perf change that silently
        # alters the default plan shows up as a fingerprint diff.
        "fingerprint": plan.fingerprint(),
        "collected_pairs": plan.collected_pair_count(),
        "trees": plan.tree_count(),
        "traffic_per_period": plan.total_message_cost(),
        "phase_seconds": {p: after[p] - before[p] for p in _PHASES},
        "memo": {
            "hits": stats.memo_hits,
            "misses": stats.memo_misses,
            "hit_rate": stats.memo_hits / memo_total if memo_total else 0.0,
        },
    }


def run_scaling(sizes: Sequence[int]) -> List[Dict]:
    return [measure(n, n) for n in sizes]


def persist(rows: List[Dict]) -> str:
    payload = {
        "bench": "planner_scaling",
        "results": rows,
    }
    target = results_dir()
    os.makedirs(target, exist_ok=True)
    path = os.path.join(target, "BENCH_planner.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def report(rows: List[Dict]) -> None:
    emit(
        "planner_scaling",
        format_table(
            "Planner scaling (CLI-default regime, tasks = nodes)",
            [
                "nodes",
                "seconds",
                "tree_s",
                "adjust_s",
                "memo_rate",
                "evaluated",
                "abandoned",
                "accepted",
                "coverage",
            ],
            [
                [
                    row["nodes"],
                    round(row["elapsed_seconds"], 2),
                    round(row["phase_seconds"]["tree_construction"], 2),
                    round(row["phase_seconds"]["adjustment"], 2),
                    round(row["memo"]["hit_rate"], 3),
                    row["candidates_evaluated"],
                    row["candidates_abandoned"],
                    len(row["accepted_ops"]),
                    round(row["coverage"], 4),
                ]
                for row in rows
            ],
        ),
    )


def _env_sizes() -> Sequence[int]:
    raw = os.environ.get("REPRO_BENCH_SIZES")
    if not raw:
        return DEFAULT_SIZES
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


def test_planner_scaling(benchmark):
    sizes = _env_sizes()
    rows = benchmark.pedantic(run_scaling, args=(sizes,), rounds=1, iterations=1)
    report(rows)
    persist(rows)
    for row in rows:
        assert row["coverage"] > 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=list(DEFAULT_SIZES),
        help="workload sizes (nodes; tasks = nodes)",
    )
    args = parser.parse_args()
    rows = run_scaling(args.sizes)
    report(rows)
    path = persist(rows)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
