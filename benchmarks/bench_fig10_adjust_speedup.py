"""Fig. 10 -- speedup of the optimized tree-adjusting procedures.

Section 5.1 introduces two optimizations over the basic adjusting
procedure (which dismantles a pruned branch and re-homes its nodes one
by one anywhere in the tree):

- branch-based re-attaching (move the branch whole);
- subtree-only searching (restrict re-attachment targets to the
  congested node's subtree, justified by Theorem 1).

The paper reports up to ~11x speedup combined, with < 2% loss in
collected values.  We time the adaptive builder under saturated
workloads with each adjuster variant and report speedups, the coverage
penalty and the re-attachment probes each variant spends.  Only the
speedup block (10a) is wall-clock; the assertions hold the
deterministic blocks: coverage (10b) and probe counts (aux).
"""

import time

import pytest

from _common import emit
from repro.analysis.report import format_table
from repro.core.cost import CostModel
from repro.trees.adaptive import AdaptiveTreeBuilder
from repro.trees.adjust import TreeAdjuster
from repro.trees.base import TreeBuildRequest

COST = CostModel(per_message=20.0, per_value=1.0)

VARIANTS = {
    "basic": (False, False),
    "branch-based": (True, False),
    "subtree-only": (False, True),
    "combined": (True, True),
}


def saturated_request(n_nodes, capacity=300.0, values=2):
    attrs = [f"m{i}" for i in range(values)]
    return TreeBuildRequest(
        attributes=frozenset(attrs),
        demands={i: {a: 1.0 for a in attrs} for i in range(n_nodes)},
        capacities={i: capacity for i in range(n_nodes)},
        central_capacity=10_000.0,
    )


def run_variant(branch_based, subtree_only, n_nodes, repeats=2):
    """Time the paper-faithful STAR-construction adaptive builder with
    the requested adjuster variant (min over repeats, after warm-up)."""
    builder = AdaptiveTreeBuilder(
        COST,
        adjuster=TreeAdjuster(branch_based=branch_based, subtree_only=subtree_only),
        construction="star",
    )
    builder.build(saturated_request(n_nodes))  # warm-up
    best = float("inf")
    pairs = 0
    probes = 0
    for _ in range(repeats):
        adjuster = TreeAdjuster(branch_based=branch_based, subtree_only=subtree_only)
        builder = AdaptiveTreeBuilder(COST, adjuster=adjuster, construction="star")
        request = saturated_request(n_nodes)
        started = time.perf_counter()
        result = builder.build(request)
        best = min(best, time.perf_counter() - started)
        pairs = result.tree.pair_count()
        probes = adjuster.probe_count
    return best, pairs, probes


@pytest.fixture(scope="module")
def fig10_data():
    sizes = [120, 240, 360]
    data = {}
    for name, (bb, so) in VARIANTS.items():
        data[name] = [run_variant(bb, so, n) for n in sizes]
    return sizes, data


def test_fig10a_speedup(fig10_data, benchmark):
    sizes, data = fig10_data
    benchmark.pedantic(
        lambda: run_variant(True, True, 120, repeats=1), rounds=1, iterations=1
    )
    rows = []
    for i, n in enumerate(sizes):
        base_time = data["basic"][i][0]
        row = [n]
        for name in VARIANTS:
            t = data[name][i][0]
            row.append(round(base_time / t, 2) if t > 0 else float("inf"))
        rows.append(row)
    emit(
        "fig10",
        format_table(
            "Fig 10a: adjusting-procedure speedup over basic (x)",
            ["nodes"] + list(VARIANTS),
            rows,
        ),
    )


def test_fig10b_coverage_penalty(fig10_data, benchmark):
    sizes, data = fig10_data
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for i, n in enumerate(sizes):
        base_pairs = data["basic"][i][1]
        row = [n]
        for name in VARIANTS:
            pairs = data[name][i][1]
            row.append(round(100.0 * pairs / max(base_pairs, 1), 2))
        rows.append(row)
    emit(
        "fig10",
        format_table(
            "Fig 10b: collected values as % of basic adjusting",
            ["nodes"] + list(VARIANTS),
            rows,
        ),
    )
    # The paper's bound: optimization costs < 2% coverage. Allow 5%.
    for row in rows:
        assert row[-1] >= 95.0


def test_fig10_probe_reduction(fig10_data, benchmark):
    """Search-effort view: subtree-only probes fewer candidates."""
    sizes, data = fig10_data
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for i, n in enumerate(sizes):
        rows.append(
            [n] + [data[name][i][2] for name in VARIANTS]
        )
    emit(
        "fig10",
        format_table(
            "Fig 10 (aux): re-attachment feasibility probes",
            ["nodes"] + list(VARIANTS),
            rows,
        ),
    )
    # Subtree-only restriction is what bounds the branch-move search
    # space (branch-based alone scans the whole tree per move), and the
    # two optimizations together search less than basic adjusting: the
    # speedup of 10a, counted in probes instead of seconds.
    for i in range(len(sizes)):
        assert data["combined"][i][2] <= data["branch-based"][i][2]
        assert data["combined"][i][2] <= data["basic"][i][2]
