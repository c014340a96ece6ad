"""Judge result sets against the bounds in ``BENCHMARK.json``.

``run_bench.py --compare A.json B.json`` prints, per workload and
end-to-end metric, both medians, the relative change, the bound, and a
verdict:

- ``worse``      B's median is worse than A's by more than the bound;
- ``unresolved`` either set's own spread (inter-quartile distance over
                 the median) is wider than the bound, so the medians
                 cannot be told apart -- unless every run of B beats
                 every run of A;
- ``better``     B's median is better by more than A's own spread and
                 every run of B beats A's median;
- ``within``     anything else: no regression, no claimable gain.

``--aa N`` runs N sets of the same code and fails if any pair of sets
disagrees: a metric ``unresolved``, or medians further apart than the
bound in either direction.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence, Tuple

from harness.common import load_spec, median, spread


def load_runs(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as fh:
        return [run for run in json.load(fh)["runs"] if not run["trace"]]


def _values(runs: Sequence[Dict[str, Any]], workload: str, metric: str) -> List[float]:
    return [
        run["metrics"][metric]["value"]
        for run in runs
        if run["workload"] == workload and metric in run["metrics"]
    ]


def judge(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> Tuple[float, str]:
    """Relative change of B's median against A's (positive = worse), and the verdict."""
    mid_a, mid_b = median(a), median(b)
    if not mid_a:
        return 0.0, "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (mid_b - mid_a) / abs(mid_a)
    beats = (lambda x, y: x < y) if better == "lower" else (lambda x, y: x > y)
    if worse_by > bound:
        return worse_by, "worse"
    if max(spread(a), spread(b)) > bound:
        if all(beats(x, y) for x in b for y in a):
            return worse_by, "better"
        return worse_by, "unresolved"
    if -worse_by > spread(a) and worse_by < 0 and all(beats(x, mid_a) for x in b):
        return worse_by, "better"
    return worse_by, "within"


def compare_sets(
    runs_a: Sequence[Dict[str, Any]], runs_b: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """One row per (workload, end-to-end metric) present in both sets."""
    spec = load_spec()
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a = _values(runs_a, workload, metric["name"])
            b = _values(runs_b, workload, metric["name"])
            if not a or not b:
                continue
            change, verdict = judge(a, b, metric["better"], metric["bound"])
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "median_a": median(a),
                    "median_b": median(b),
                    "n_a": len(a),
                    "n_b": len(b),
                    "worse_by": change,
                    "bound": metric["bound"],
                    "verdict": verdict,
                }
            )
    return rows


def render(rows: Sequence[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<16}{'metric':<20}{'A median':>13}{'B median':>13}"
        f"{'worse by':>10}{'bound':>7}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<16}{row['metric']:<20}"
            f"{row['median_a']:>13.4f}{row['median_b']:>13.4f}"
            f"{row['worse_by']:>+10.1%}{row['bound']:>7.0%}  {row['verdict']}"
            f"  (n={row['n_a']}/{row['n_b']}, {row['unit']})"
        )
    return "\n".join(lines)


def _failures(runs: Sequence[Dict[str, Any]]) -> int:
    return sum(run["failed"] for run in runs) + sum(1 for run in runs if not run["correct"])


def main_compare(path_a: str, path_b: str) -> int:
    """Exit 1 when B regresses or fails more operations than A."""
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    rows = compare_sets(runs_a, runs_b)
    print(render(rows))
    more_failures = _failures(runs_b) > _failures(runs_a)
    if more_failures:
        print(f"B failed more operations than A: {_failures(runs_b)} vs {_failures(runs_a)}")
    return 1 if more_failures or any(row["verdict"] == "worse" for row in rows) else 0


def main_aa(paths: Sequence[str]) -> int:
    """Exit 1 when two sets of the same code disagree beyond a bound."""
    status = 0
    for index in range(1, len(paths)):
        print(f"\nA/A: {paths[0]} vs {paths[index]}")
        rows = compare_sets(load_runs(paths[0]), load_runs(paths[index]))
        print(render(rows))
        # Same code on both sides: a gap beyond the bound in either
        # direction is noise the bound does not cover.
        if any(
            row["verdict"] == "unresolved" or abs(row["worse_by"]) > row["bound"]
            for row in rows
        ):
            status = 1
    print("\nA/A " + ("disagrees beyond a bound" if status else "agrees within every bound"))
    return status
