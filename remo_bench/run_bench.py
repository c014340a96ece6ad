#!/usr/bin/env python3
"""The repo benchmark's one command.

Driver form (one workload, one JSON object on the last stdout line)::

    python3 remo_bench/run_bench.py --workload plan_search --seed 1 --seconds 15 --trace 0

Without ``--workload`` every workload runs, each in its own child
process, untraced and then traced, and a result set is written under
``remo_bench/results/bench/``.  ``--compare A.json B.json`` and
``--aa N`` judge result sets against the bounds in ``BENCHMARK.json``;
``--quick`` is the same run at a fraction of the size.  See
``remo_bench/README.md``.
"""

from __future__ import annotations

import time

#: Process start, for ``setup_s`` (set-up ends at the first timed operation).
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence  # noqa: E402

if os.environ.get("PYTHONHASHSEED") != "0":
    # Adaptation iterates sets, so its plans follow the hash seed; pin
    # it (for this process and every child) so counts repeat exactly.
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
_SRC_DIR = os.path.join(os.path.dirname(_BENCH_DIR), "src")
if not os.path.isdir(os.path.join(_SRC_DIR, "repro")):
    sys.exit(f"remo_bench: no program to measure: {_SRC_DIR}/repro is missing")
sys.path[:0] = [_BENCH_DIR, _SRC_DIR]

from harness import compare  # noqa: E402
from harness.common import (  # noqa: E402
    Outcome,
    environment_block,
    load_spec,
    median,
    results_path,
    self_peak_rss_mb,
)

#: Extra set-ups per untraced run (fresh child processes); with the
#: run's own set-up that makes three samples behind ``setup_s``.
SETUP_PROBES = 2
QUICK_SECONDS = 2.0
CHILD_TIMEOUT = 170.0


def make_workload(name: str) -> Any:
    from harness import churn_wl, collect_wl, plan_wl

    if name in plan_wl.REGIMES:
        return plan_wl.PlanWorkload(name)
    if name in collect_wl.KINDS:
        return collect_wl.CollectWorkload(name)
    if name == churn_wl.NAME:
        return churn_wl.ChurnWorkload()
    raise SystemExit(f"remo_bench: unknown workload {name!r}")


# ----------------------------------------------------------------------
# One workload, this process
# ----------------------------------------------------------------------
def _child_command(
    workload: str, seed: int, seconds: float, inject: Optional[str], *extra: str
) -> List[str]:
    """This script again, for one workload, in a fresh process."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
    ]  # fmt: skip
    if inject:
        command += ["--inject", inject]
    return command + list(extra)


def _probe_setup(args: argparse.Namespace) -> float:
    """Set the workload up once more in a fresh process; its ``setup_s``."""
    done = subprocess.run(
        _child_command(
            args.workload, args.seed, args.seconds, args.inject, "--trace", "0", "--setup-only"
        ),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
        check=True,
    )
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _metrics_payload(declared: Sequence[Dict[str, Any]], values: Dict[str, float], strict: bool) -> Dict[str, Any]:
    names = {metric["name"] for metric in declared}
    unknown = sorted(set(values) - names)
    if unknown:
        raise SystemExit(f"remo_bench: metrics not declared in BENCHMARK.json: {unknown}")
    missing = sorted(names - set(values))
    if strict and missing:
        raise SystemExit(f"remo_bench: end-to-end metrics not measured: {missing}")
    return {
        metric["name"]: {
            "value": float(values.get(metric["name"], 0.0)),
            "unit": metric["unit"],
        }
        for metric in declared
    }


def run_workload(args: argparse.Namespace) -> int:
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"remo_bench: unknown workload {args.workload!r}")
    traced = args.trace == 1
    injection = _install_injection(args.inject)
    workload = make_workload(args.workload)
    try:
        workload.setup(args.seed, args.seconds, traced)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        outcome: Outcome = workload.measure_traced() if traced else workload.measure()
    finally:
        workload.teardown()
        injection.undo()
    if traced:
        metrics = _metrics_payload(spec["per_layer"], outcome.per_layer, strict=False)
    else:
        probes = 0 if args.no_probes else SETUP_PROBES
        setups = [setup_s] + [_probe_setup(args) for _ in range(probes)]
        outcome.end_to_end["setup_s"] = median(setups)
        outcome.samples["setup_s"] = len(setups)
        outcome.end_to_end.setdefault("peak_rss_mb", self_peak_rss_mb())
        metrics = _metrics_payload(spec["end_to_end"], outcome.end_to_end, strict=True)
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    if args.detail:
        detail = dict(result)
        detail.update(
            workload=args.workload,
            trace=args.trace,
            problems=outcome.problems,
            samples=outcome.samples,
            info=outcome.info,
            environment=environment_block(args.seed, args.seconds),
        )
        with open(args.detail, "w", encoding="utf-8") as fh:
            json.dump(detail, fh, indent=1)
            fh.write("\n")
    for problem in outcome.problems:
        print(f"remo_bench: {args.workload}: output check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# Slowdown injection (the gate's self-test only)
# ----------------------------------------------------------------------
def _busy_wait(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


def _install_injection(spec: Optional[str]) -> Any:
    """``plan:F`` stretches every plan by the fraction F; ``send:S``
    adds S busy seconds to every transport send.  Exists so the tests
    can show the comparison firing on a known slowdown."""
    from harness.spans import Patcher

    patcher = Patcher()
    if not spec:
        return patcher
    kind, _, amount = spec.partition(":")
    value = float(amount)
    if kind == "plan":
        from repro.core.planner import RemoPlanner

        def slow_plan(fn: Any) -> Any:
            def wrapper(*a: Any, **kw: Any) -> Any:
                started = time.perf_counter()
                result = fn(*a, **kw)
                _busy_wait(value * (time.perf_counter() - started))
                return result

            return wrapper

        patcher.wrap(RemoPlanner, "plan_with_stats", slow_plan)
    elif kind == "send":
        from repro.runtime.transport import InProcessTransport

        def slow_send(fn: Any) -> Any:
            async def wrapper(*a: Any, **kw: Any) -> Any:
                _busy_wait(value)
                return await fn(*a, **kw)

            return wrapper

        patcher.wrap(InProcessTransport, "send", slow_send)
    else:
        raise SystemExit(f"remo_bench: unknown injection {spec!r}")
    return patcher


# ----------------------------------------------------------------------
# Every workload, child processes
# ----------------------------------------------------------------------
def _run_child(workload: str, seed: int, seconds: float, trace: int, inject: Optional[str], probes: bool) -> Dict[str, Any]:
    detail = results_path("detail", f"{workload}-{os.getpid()}-{trace}.json")
    command = _child_command(
        workload, seed, seconds, inject, "--trace", str(trace), "--detail", detail
    )
    if not probes:
        command.append("--no-probes")
    started = time.perf_counter()
    subprocess.run(command, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT, check=True)
    with open(detail, encoding="utf-8") as fh:
        run = json.load(fh)
    os.unlink(detail)
    run["seed"] = seed
    run["wall_s"] = time.perf_counter() - started
    return run


def run_sets(
    labels: Sequence[str],
    seed: int,
    seconds: float,
    runs: int,
    traced_pass: bool,
    workloads: Optional[Sequence[str]] = None,
    inject: Optional[str] = None,
    probes: bool = True,
    append: bool = False,
) -> List[str]:
    """One result set per label: every workload ``runs`` times (seeds
    ``seed``, ``seed+1``, ...) untraced, then once traced.

    With several labels the sets are interleaved run by run -- set 0's
    run, then set 1's, for each workload and seed -- because this box
    drifts by tens of percent over a minute, and sets measured one
    after the other would differ by the drift.
    """
    spec = load_spec()
    names = list(workloads) if workloads else [w["name"] for w in spec["workloads"]]
    collected: List[List[Dict[str, Any]]] = [[] for _ in labels]
    for name in names:
        plan = [(seed + index, 0) for index in range(runs)]
        if traced_pass:
            plan.append((seed, 1))
        for run_seed, trace in plan:
            for runs_of_set in collected:
                run = _run_child(name, run_seed, seconds, trace, inject, probes)
                runs_of_set.append(run)
                _print_run(run)
    paths = []
    for label, runs_of_set in zip(labels, collected):
        path = results_path("bench", f"{label}.json")
        if append and os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                runs_of_set = json.load(fh)["runs"] + runs_of_set
        payload = {"environment": environment_block(seed, seconds), "runs": runs_of_set}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        paths.append(path)
    return paths


def _print_run(run: Dict[str, Any]) -> None:
    kind = "traced" if run["trace"] else "untraced"
    print(
        f"\n{run['workload']} (seed {run['seed']}, {kind}, {run['wall_s']:.1f} s): "
        f"ops_attempted={run['attempted']} ops_failed={run['failed']} "
        f"correct={run['correct']}"
    )
    for problem in run["problems"]:
        print(f"  output check failed: {problem}")
    for name, metric in run["metrics"].items():
        if run["trace"] and not metric["value"]:
            continue  # layers this workload does not exercise
        count = run["samples"].get(name)
        suffix = f"  (n={count})" if count else ""
        print(f"  {name:<40} {metric['value']:>14.4f} {metric['unit']}{suffix}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=1, help="seeds input generation only")
    parser.add_argument("--seconds", type=float, default=None, help="how long a run measures")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload per set")
    parser.add_argument("--quick", action="store_true", help="every workload, small and fast")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--aa", type=int, metavar="N", help="run N sets of this code and compare")
    parser.add_argument("--label", default=None, help="name of the result set to write")
    parser.add_argument(
        "--append", action="store_true", help="add the runs to the label's existing result set"
    )
    parser.add_argument("--only", action="append", help="restrict a set to these workloads")
    parser.add_argument("--skip-traced", action="store_true", help="no traced pass in a set")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--no-probes", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--inject", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main_compare(args.compare[0], args.compare[1])
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else float(load_spec()["run_seconds"])
    if args.workload:
        return run_workload(args)
    probes = not (args.quick or args.no_probes)
    if args.aa:
        labels = [f"aa-{index}" for index in range(args.aa)]
        return compare.main_aa(
            run_sets(labels, args.seed, args.seconds, args.runs, False, args.only, args.inject, probes)
        )
    label = args.label or ("quick" if args.quick else "latest")
    [path] = run_sets(
        [label], args.seed, args.seconds, args.runs, not args.skip_traced,
        args.only, args.inject, probes, args.append,
    )  # fmt: skip
    print(f"\nresult set written to {os.path.relpath(path)}")
    with open(path, encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
