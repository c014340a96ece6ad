"""Command-line interface: plan, simulate, adapt, check, and run.

Nine subcommands over synthetic workloads, mirroring the examples:

- ``plan``       build a monitoring forest and print its summary;
- ``simulate``   run the planned forest in the discrete-event simulator
  and report coverage / percentage error / traffic;
- ``adapt``      drive the adaptive service through task-churn batches;
- ``check``      plan, then statically verify the plan's invariants
  (exit 1 on any ERROR diagnostic);
- ``run``        execute the plan live on the asyncio runtime -- one
  concurrent agent per node plus a collector -- with capacity
  budgets, heartbeats, and failure detection;
- ``deploy``     run the plan across worker processes over real TCP;
- ``metrics``    render (and validate) a ``--metrics`` Prometheus
  snapshot -- as a table, canonical Prometheus series lines (diffable
  against a ``repro serve`` ``/metrics`` scrape), or JSONL;
- ``serve``      run the multi-tenant control-plane HTTP service:
  tenants submit/update/delete tasks over HTTP, trigger adaptation,
  launch runs, and scrape ``/metrics``, over hash-sharded collector
  roots;
- ``trace``      merge a deploy rundir's per-process span artifacts
  into one trace, with per-period critical-path and cross-process
  latency summaries (``--strict`` fails when any worker's spans are
  missing -- the CI completeness gate).

``plan``, ``simulate``, ``adapt``, and ``run`` all accept ``--json``
for machine-readable output, so CI and benches can consume results
without screen-scraping.  Those four plus ``deploy`` and ``serve``
accept ``--trace PATH`` (execution trace: ``.jsonl`` for the span log,
anything else for Chrome trace-event JSON loadable in Perfetto /
``about:tracing``) and ``--metrics PATH`` (Prometheus text-format
snapshot of every counter, gauge, and histogram the command touched).
On ``deploy``, ``--trace`` also switches every child process into
tracing mode: each writes ``trace-<role>.jsonl`` into the rundir, the
supervisor folds them into the exported trace, and ``repro trace
RUNDIR`` re-merges them after the fact.

``run`` and ``deploy`` never launch a plan the static verifier rejects.

Usage::

    python -m repro plan --nodes 80 --tasks 20 --scheme remo
    python -m repro simulate --nodes 60 --tasks 15 --periods 25 --json
    python -m repro adapt --nodes 60 --tasks 20 --batches 5 --strategy adaptive
    python -m repro check --preset quickstart
    python -m repro check --nodes 48 --tasks 12 --corrupt cycle
    python -m repro run --preset quickstart --periods 10 --json
    python -m repro run --nodes 32 --tasks 8 --fail-node 3:2:6
    python -m repro run --nodes 120 --trace run.trace.json --metrics run.prom
    python -m repro metrics run.prom
    python -m repro metrics run.prom --format prometheus
    python -m repro serve --preset quickstart --collectors 2 --port 8080
    python -m repro deploy --workers 2 --trace deploy.trace.json --rundir run/
    python -m repro trace run/ --out merged.trace.json --strict
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis.report import format_table
from repro.checks import (
    FAULT_KINDS,
    check_plan_for_cluster,
    describe_codes,
    inject_fault,
)
from repro.core import SCHEMES
from repro.core.adaptation import AdaptationStrategy, AdaptiveMonitoringService
from repro.core.planner import RemoPlanner
from repro.obs import log, names, trace
from repro.obs.export import (
    check_prometheus_text,
    parse_prometheus_text,
    read_jsonl_spans,
    write_chrome_trace,
    write_jsonl_spans,
    write_prometheus,
)
from repro.net.deploy import (
    DeployError,
    DeploySpec,
    make_spec,
    parse_chaos_kill,
    run_deploy,
)
from repro.obs.metrics import MetricsRegistry, default_registry, use_registry
from repro.runtime import AgentOutage, MonitoringRuntime, RuntimeConfig
from repro.runtime.metrics import RuntimeMetrics
from repro.serve import ControlPlane, run_serve
from repro.simulation import MonitoringSimulation, SimulationConfig
from repro.workloads.presets import Scenario
from repro.workloads.updates import TaskUpdateStream


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=_positive(int), default=64, help="cluster size")
    parser.add_argument(
        "--capacity", type=_positive(float), default=400.0, help="node budget b_i"
    )
    parser.add_argument(
        "--central",
        type=_positive(float),
        default=None,
        help="collector budget (default 3x capacity)",
    )
    parser.add_argument("--pool", type=_positive(int), default=32, help="attribute pool size")
    parser.add_argument(
        "--attrs-per-node",
        type=_positive(int),
        default=16,
        help="attributes observable per node",
    )
    parser.add_argument(
        "--tasks", type=_positive(int), default=15, help="number of monitoring tasks"
    )
    parser.add_argument(
        "--cost-c", type=_bounded(float, 0), default=20.0, help="per-message overhead C"
    )
    parser.add_argument("--cost-a", type=_positive(float), default=1.0, help="per-value cost a")
    parser.add_argument("--seed", type=int, default=1, help="random seed")
    parser.add_argument(
        "--scheme",
        choices=sorted(SCHEMES),
        default="remo",
        help="partition scheme",
    )


def _add_json(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON object instead of tables",
    )


def _add_obs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write an execution trace: .jsonl for the raw span log, "
        "any other extension for Chrome trace-event JSON (Perfetto)",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write a Prometheus text-format snapshot of every metric "
        "this command touched",
    )


def _add_preset(
    parser: argparse.ArgumentParser,
    help: str = "use a canonical workload instead of the sampled one",
) -> None:
    parser.add_argument("--preset", choices=["quickstart"], default=None, help=help)


def _positive(kind: type) -> Callable[[str], Any]:
    """argparse ``type=`` for a ``kind`` number > 0: anything else is a
    usage error (exit 2, one line on stderr), not a traceback from
    deep inside a launch."""

    def parse(text: str) -> Any:
        value = kind(text)  # a ValueError here reads "invalid positive int value"
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
        return value

    parse.__name__ = f"positive {kind.__name__}"
    return parse


def _bounded(kind: type, low: float, high: float = math.inf) -> Callable[[str], Any]:
    """argparse ``type=`` for a ``kind`` number in ``[low, high]``, with
    the same usage-error contract as :func:`_positive`."""
    rule = f">= {low}" if high == math.inf else f"in {low}..{high}"

    def parse(text: str) -> Any:
        value = kind(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = kind.__name__
    return parse


def _add_runtime(
    parser: argparse.ArgumentParser, period_seconds: float = 0.1, periods: bool = True
) -> None:
    """The runtime settings ``run``, ``deploy`` and ``serve`` share;
    :func:`_runtime_config` reads them back."""
    if periods:
        parser.add_argument(
            "--periods", type=_positive(int), default=10, help="collection periods"
        )
    parser.add_argument(
        "--period-seconds",
        type=_positive(float),
        default=period_seconds,
        help="wall-clock seconds per collection period",
    )
    parser.add_argument(
        "--failure-timeout",
        type=_positive(int),
        default=3,
        help="periods without heartbeat before a collector flags a node",
    )


def _runtime_config(args) -> Dict[str, Any]:
    """The :class:`RuntimeConfig` fields the launch flags set: ``run``
    and ``serve`` construct the config from it, ``deploy`` ships it in
    its spec for every child to construct its own."""
    return {
        "period_seconds": args.period_seconds,
        "failure_timeout": args.failure_timeout,
        "seed": args.seed,
    }


def _emit_json(payload: Dict[str, Any]) -> None:
    print(json.dumps(payload, indent=2, sort_keys=False))


def _fail(message: str, code: int = 2) -> int:
    """One line on stderr; the exit code is 2 (usage) unless given."""
    print(message, file=sys.stderr)
    return code


def _scenario(args) -> Scenario:
    """The scenario the :func:`_add_common` flags and ``--preset`` name."""
    return Scenario(
        preset=getattr(args, "preset", None),
        nodes=args.nodes,
        capacity=args.capacity,
        central=args.central,
        pool=args.pool,
        attrs_per_node=args.attrs_per_node,
        tasks=args.tasks,
        cost_c=args.cost_c,
        cost_a=args.cost_a,
        seed=args.seed,
        scheme=args.scheme,
    )


def _plan_summary(plan, elapsed: Optional[float] = None) -> Dict[str, Any]:
    summary: Dict[str, Any] = {
        "coverage": plan.coverage(),
        "collected_pairs": plan.collected_pair_count(),
        "requested_pairs": plan.requested_pair_count(),
        "trees": plan.tree_count(),
        "max_tree_depth": plan.max_tree_depth(),
        "traffic_per_period": plan.total_message_cost(),
        "collector_usage": plan.central_usage(),
    }
    if elapsed is not None:
        summary["planning_seconds"] = elapsed
    return summary


def _planning_stats_payload(stats) -> Dict[str, Any]:
    """JSON block for :class:`PlanningStats`.

    The same field names are emitted by ``benchmarks/
    bench_planner_scaling.py`` so dashboards can join the two sources.
    """
    return {
        "iterations": stats.iterations,
        "candidates_ranked": stats.candidates_ranked,
        "candidates_evaluated": stats.candidates_evaluated,
        "accepted_ops": list(stats.accepted_ops),
        "elapsed_seconds": stats.elapsed_seconds,
        "memo_hits": stats.memo_hits,
        "memo_misses": stats.memo_misses,
    }


def _plan(args) -> int:
    scenario = _scenario(args)
    cluster, cost, tasks = scenario.workload
    scheme, pstats = scenario.scheme, None
    if scheme == "remo":
        planner = RemoPlanner(cost, candidate_budget=None if args.exhaustive else 8)
        plan, pstats = planner.plan_with_stats(tasks, cluster)
        elapsed = pstats.elapsed_seconds
    else:
        with trace.timer(names.SPAN_PLANNER_PLAN, lane=names.LANE_PLANNER, scheme=scheme) as t:
            plan = scenario.plan()
        elapsed = t.elapsed
    plan.validate({n.node_id: n.capacity for n in cluster}, cluster.central_capacity)
    summary = _plan_summary(plan, elapsed)
    tree_rows = [
        {
            "attributes": sorted(attr_set),
            "nodes": len(result.tree),
            "height": result.tree.height(),
            "pairs": result.tree.pair_count(),
        }
        for attr_set, result in sorted(plan.trees.items(), key=lambda kv: sorted(kv[0]))
    ]
    if args.json:
        payload: Dict[str, Any] = {
            "command": "plan",
            "scheme": scenario.scheme,
            "nodes": scenario.nodes,
            "tasks": scenario.tasks,
            "summary": summary,
            "trees": tree_rows,
        }
        if pstats is not None:
            payload["planning"] = _planning_stats_payload(pstats)
            payload["planning"]["exhaustive"] = args.exhaustive
        _emit_json(payload)
        return 0
    metric_rows = [
        ["coverage", round(summary["coverage"], 4)],
        ["collected pairs", summary["collected_pairs"]],
        ["requested pairs", summary["requested_pairs"]],
        ["trees", summary["trees"]],
        ["max tree depth", summary["max_tree_depth"]],
        ["traffic / period", round(summary["traffic_per_period"], 1)],
        ["collector usage", round(summary["collector_usage"], 1)],
        ["planning seconds", round(elapsed, 3)],
    ]
    if pstats is not None:
        metric_rows.extend(
            [
                ["search iterations", pstats.iterations],
                ["candidates ranked", pstats.candidates_ranked],
                ["candidates evaluated", pstats.candidates_evaluated],
                ["accepted ops", len(pstats.accepted_ops)],
            ]
        )
    print(
        format_table(
            f"{scenario.scheme} plan ({scenario.label})",
            ["metric", "value"],
            metric_rows,
        )
    )
    rows = [
        [
            ",".join(row["attributes"][:4]) + ("..." if len(row["attributes"]) > 4 else ""),
            row["nodes"],
            row["height"],
            row["pairs"],
        ]
        for row in tree_rows
    ]
    print()
    print(format_table("trees", ["attributes", "nodes", "height", "pairs"], rows))
    return 0


def _simulate(args) -> int:
    scenario = _scenario(args)
    plan = scenario.plan()
    stats = MonitoringSimulation(
        plan, scenario.workload[0], config=SimulationConfig(seed=scenario.seed)
    ).run(args.periods)
    if args.json:
        _emit_json(
            {
                "command": "simulate",
                "scheme": scenario.scheme,
                "nodes": scenario.nodes,
                "tasks": scenario.tasks,
                "periods": args.periods,
                "planned_coverage": plan.coverage(),
                "mean_percentage_error": stats.mean_percentage_error,
                "mean_fresh_coverage": stats.mean_fresh_coverage,
                "messages": {
                    "sent": stats.messages_sent,
                    "delivered": stats.messages_delivered,
                    "dropped_capacity": stats.messages_dropped_capacity,
                    "dropped_failure": stats.messages_dropped_failure,
                },
                "values_trimmed": stats.values_trimmed,
                "cost_units_spent": stats.cost_units_spent,
            }
        )
        return 0
    print(
        format_table(
            f"{scenario.scheme} simulated over {args.periods} periods",
            ["metric", "value"],
            [
                ["coverage (planned)", round(plan.coverage(), 4)],
                ["mean % error", round(stats.mean_percentage_error, 4)],
                ["mean freshness", round(stats.mean_fresh_coverage, 4)],
                ["messages sent", stats.messages_sent],
                ["messages delivered", stats.messages_delivered],
                ["dropped (capacity)", stats.messages_dropped_capacity],
                ["dropped (failure)", stats.messages_dropped_failure],
                ["values trimmed", stats.values_trimmed],
            ],
        )
    )
    return 0


def _adapt(args) -> int:
    scenario = _scenario(args)
    cluster, cost, tasks = scenario.workload
    strategy = AdaptationStrategy(args.strategy)
    svc = AdaptiveMonitoringService(cluster, cost, strategy=strategy)
    svc.initialize(tasks, now=0.0)
    stream = TaskUpdateStream(cluster, tasks, seed=scenario.seed + 2)
    batches = []
    for step in range(args.batches):
        batch = stream.next_batch()
        report = svc.apply_changes(batch, now=float(step + 1))
        batches.append(
            {
                "batch": step + 1,
                "ops": len(batch),
                "cpu_seconds": report.planning_seconds,
                "adaptation_messages": report.adaptation_messages,
                "coverage": report.coverage,
                "applied_ops": len(report.applied_ops),
                "throttled_ops": report.throttled_ops,
            }
        )
    if args.json:
        _emit_json(
            {
                "command": "adapt",
                "strategy": strategy.value,
                "nodes": scenario.nodes,
                "tasks": scenario.tasks,
                "batches": batches,
            }
        )
        return 0
    rows = [
        [
            b["batch"],
            b["ops"],
            round(b["cpu_seconds"], 3),
            b["adaptation_messages"],
            round(b["coverage"], 4),
            b["applied_ops"],
            b["throttled_ops"],
        ]
        for b in batches
    ]
    print(
        format_table(
            f"{strategy.value} over {args.batches} update batches",
            ["batch", "ops", "cpu_s", "adapt_msgs", "coverage", "applied", "throttled"],
            rows,
        )
    )
    return 0


def _check(args) -> int:
    if args.codes:
        rows = [
            [info.code, info.severity.value, info.title]
            for info in describe_codes()
        ]
        print(format_table("diagnostic codes", ["code", "severity", "title"], rows))
        return 0
    scenario = _scenario(args)
    plan = scenario.plan()
    if args.corrupt:
        print(f"injected fault: {inject_fault(plan, args.corrupt)}")
    report = check_plan_for_cluster(plan, scenario.workload[0])
    header = f"{scenario.scheme} plan ({scenario.label}): "
    if not report:
        print(header + "all invariants hold, no diagnostics")
        return 0
    print(
        header
        + f"{len(report.errors)} error(s), {len(report.warnings)} warning(s)"
    )
    print(report.format(with_hints=args.hints))
    return 1 if report.has_errors else 0


def _launch_gate(plan, cluster) -> Dict[str, int]:
    """Never start agents or spawn processes for a plan the static
    verifier rejects: returns the ``plan_check`` summary, whose errors
    (already reported) refuse the launch."""
    report = check_plan_for_cluster(plan, cluster)
    if report.has_errors:
        print("plan verification failed, refusing to launch:", file=sys.stderr)
        print(report.format(with_hints=True), file=sys.stderr)
    return {"errors": len(report.errors), "warnings": len(report.warnings)}


def _parse_outage(spec: str) -> AgentOutage:
    """Parse a ``NODE:START:END`` outage spec (periods, end-exclusive)."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected NODE:START:END (periods), got {spec!r}"
        )
    try:
        node, start, end = (int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"non-integer field in {spec!r}") from exc
    try:
        return AgentOutage(node=node, start=start, end=end)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _run(args) -> int:
    scenario = _scenario(args)
    cluster = scenario.workload[0]
    missing = [outage.node for outage in args.fail_node if outage.node not in cluster]
    if missing:
        return _fail(
            f"repro run: --fail-node names node {missing[0]}, which the "
            f"{len(cluster)}-node cluster does not have"
        )
    plan = scenario.plan()
    check_summary = _launch_gate(plan, cluster)
    if check_summary["errors"]:
        return 1
    config = RuntimeConfig(outages=list(args.fail_node), **_runtime_config(args))
    # Record into the ambient registry so a ``--metrics`` snapshot
    # covers planner and runtime counters together and always
    # reconciles with the report (they are the same bookkeeping).
    runtime = MonitoringRuntime(
        plan,
        cluster,
        config=config,
        metrics=RuntimeMetrics(registry=default_registry()),
    )
    report = runtime.run(args.periods)
    if args.json:
        payload: Dict[str, Any] = {
            "command": "run",
            "scheme": scenario.scheme,
            "workload": scenario.label,
            "plan": _plan_summary(plan),
            "plan_check": check_summary,
        }
        payload.update(report.as_dict())
        _emit_json(payload)
        return 0
    print(report.render(f"{scenario.scheme} live run ({scenario.label}, {args.periods} periods)"))
    return 0


def _parse_chaos(spec: str):
    """argparse type for ``--chaos-kill RANK:SECONDS``."""
    try:
        return parse_chaos_kill(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _deploy(args) -> int:
    """Shard the plan across worker processes over real TCP."""
    beyond = [rank for rank, _seconds in args.chaos_kill if rank >= args.workers]
    if beyond:
        return _fail(
            f"repro deploy: --chaos-kill rank {beyond[0]} is out of range "
            f"for {args.workers} worker(s)"
        )
    scenario = _scenario(args)
    try:
        spec, plan = make_spec(
            scenario,
            workers=args.workers,
            periods=args.periods,
            config=_runtime_config(args),
            rundir=args.rundir,
            host=args.host,
            collectors=args.collectors,
            trace=args.trace is not None,
        )
    except ValueError as exc:
        return _fail(f"repro deploy: {exc}", 1)
    check_summary = _launch_gate(plan, scenario.workload[0])
    if check_summary["errors"]:
        _record_check_failure(spec, check_summary["errors"])
        return 1
    try:
        outcome = run_deploy(
            spec,
            plan=plan,
            chaos_kill=dict(args.chaos_kill),
            metrics=RuntimeMetrics(registry=default_registry()),
        )
    except DeployError as exc:
        return _fail(f"repro deploy: {exc}", 1)
    # Fold every child process's span artifact into the supervisor's
    # tracer: the ``--trace`` export then covers the whole deployment
    # (one monitoring period = one trace id across all processes).
    if trace.active_tracer() is not None:
        for span_file in outcome.trace_files:
            try:
                trace.ingest(read_jsonl_spans(span_file))
            except (OSError, ValueError) as exc:
                print(f"repro deploy: skipping {span_file}: {exc}", file=sys.stderr)
    report = outcome.report
    if args.json:
        payload: Dict[str, Any] = {
            "command": "deploy",
            "scheme": scenario.scheme,
            "workload": scenario.label,
            "workers": spec.workers,
            "collectors": spec.collectors,
            "restarts": outcome.restarts,
            "worker_reports": outcome.worker_reports,
            "rundir": spec.rundir,
            "trace_files": outcome.trace_files,
            "flight_records": outcome.flight_records,
            "plan": _plan_summary(plan),
            "plan_check": check_summary,
        }
        payload.update(report.as_dict())
        _emit_json(payload)
        return 0
    print(
        format_table(
            f"deployment ({scenario.label}, {spec.workers} workers)",
            ["process", "endpoint", "nodes"],
            [
                *[
                    [f"worker {rank}", str(spec.worker_endpoints[rank]), len(shard)]
                    for rank, shard in enumerate(spec.shards)
                ],
                [
                    f"collector x{spec.collectors}",
                    str(spec.collector_endpoint),
                    "-",
                ],
            ],
        )
    )
    print()
    print(
        report.render(
            f"{scenario.scheme} deployed run ({scenario.label}, {args.periods} periods, "
            f"{spec.workers} workers, {outcome.restart_total()} restart(s))"
        )
    )
    for flight in outcome.flight_records:
        print(f"flight record: {flight}")
    return 0


def _record_check_failure(spec: "DeploySpec", errors: int) -> None:
    """Flight-record a refused launch so the rundir explains itself."""
    log.emit(
        names.LOG_DEPLOY_CHECK_FAILED,
        lane=names.LANE_DEPLOY,
        severity="error",
        check="plan",
        errors=errors,
    )
    log.dump_flight(
        spec.flight_path("supervisor"),
        reason=f"plan check failed with {errors} error(s); launch refused",
    )


def _metrics(args) -> int:
    """Validate and render a ``--metrics`` Prometheus snapshot file.

    ``--format prometheus`` re-emits the snapshot as canonical sorted
    ``series value`` lines; two snapshots rendered this way (a
    ``--metrics`` file and a ``repro serve`` ``/metrics`` scrape) diff
    cleanly because HELP/TYPE chrome and series order are normalized
    away.  ``--format jsonl`` emits one ``{"series", "value"}`` object
    per line for log pipelines.
    """
    try:
        with open(args.path) as fh:
            text = fh.read()
    except OSError as exc:
        return _fail(f"cannot read {args.path}: {exc}", 1)
    problems = check_prometheus_text(text)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1
    samples = parse_prometheus_text(text)
    if args.json:
        _emit_json({"command": "metrics", "path": args.path, "samples": samples})
        return 0
    if args.format == "prometheus":
        for series, value in sorted(samples.items()):
            print(f"{series} {value:g}")
        return 0
    if args.format == "jsonl":
        for series, value in sorted(samples.items()):
            print(json.dumps({"series": series, "value": value}, sort_keys=True))
        return 0
    rows = [[series, round(value, 4)] for series, value in sorted(samples.items())]
    print(format_table(f"metrics snapshot ({args.path})", ["series", "value"], rows))
    return 0


def _critical_path(trace_spans) -> List[str]:
    """Span names from the trace root to the last-finishing span.

    Parent links cross process boundaries (the envelope carried the
    context over TCP), so the chain walks back from the slowest leaf --
    typically a worker-side wave -- through the collector's period root.
    """
    by_id = {s.span_id: s for s in trace_spans if s.span_id}
    # The last-finishing *leaf*: enclosing spans (the period root) end
    # after everything they contain, so restrict to spans no other span
    # claims as parent before taking the latest end time.
    parent_ids = {s.parent_id for s in trace_spans if s.parent_id}
    leaves = [s for s in trace_spans if s.span_id not in parent_ids]
    leaf = max(leaves or trace_spans, key=lambda s: s.start + s.duration)
    chain: List[str] = []
    seen = set()
    current = leaf
    while current is not None and current.span_id not in seen:
        seen.add(current.span_id)
        chain.append(current.name)
        current = by_id.get(current.parent_id) if current.parent_id else None
    chain.reverse()
    return chain


def _trace_cmd(args) -> int:
    """Merge a deploy rundir's per-process span artifacts into one trace."""
    by_file: Dict[str, list] = {}
    spans = []
    for path in sorted(glob.glob(os.path.join(args.rundir, "trace-*.jsonl"))):
        try:
            by_file[os.path.basename(path)] = read_jsonl_spans(path)
        except (OSError, ValueError) as exc:
            return _fail(f"repro trace: cannot read {path}: {exc}")
        spans.extend(by_file[os.path.basename(path)])
    if not spans:
        return _fail(
            f"repro trace: no trace-*.jsonl spans in {args.rundir} "
            "(was the deploy run with --trace?)"
        )

    problems: List[str] = []
    if args.strict:
        spec_path = os.path.join(args.rundir, "spec.json")
        try:
            spec = DeploySpec.load(spec_path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return _fail(f"repro trace: --strict needs a readable {spec_path}: {exc}")
        roles = ["collector"] + [f"worker-{rank}" for rank in range(spec.workers)]
        for role in roles:
            if not by_file.get(f"trace-{role}.jsonl"):
                problems.append(f"{role} contributed no spans to the merged trace")

    by_trace: Dict[str, list] = {}
    for span in spans:
        if span.trace_id is not None:
            by_trace.setdefault(span.trace_id, []).append(span)
    roots = sorted(
        (s for s in spans if s.name == names.SPAN_RUNTIME_PERIOD and s.trace_id),
        key=lambda s: (s.attrs.get("period", -1), s.start),
    )
    periods = []
    for root in roots:
        trace_spans = by_trace[root.trace_id]
        last_end = max(s.start + s.duration for s in trace_spans)
        periods.append(
            {
                "period": root.attrs.get("period"),
                "trace_id": root.trace_id,
                "spans": len(trace_spans),
                "processes": len({s.pid for s in trace_spans}),
                "duration_ms": root.duration * 1000.0,
                "cross_process_ms": (last_end - root.start) * 1000.0,
                "critical_path": _critical_path(trace_spans),
            }
        )

    if args.out is not None:
        if args.out.endswith(".jsonl"):
            write_jsonl_spans(spans, args.out)
        else:
            write_chrome_trace(spans, args.out, epoch=min(s.start for s in spans))

    if args.json:
        _emit_json(
            {
                "command": "trace",
                "rundir": args.rundir,
                "files": sorted(by_file),
                "spans": len(spans),
                "out": args.out,
                "periods": periods,
                "problems": problems,
            }
        )
        return 1 if problems else 0

    rows = [
        [
            p["period"],
            p["trace_id"][:8],
            p["spans"],
            p["processes"],
            round(p["duration_ms"], 2),
            round(p["cross_process_ms"], 2),
        ]
        for p in periods
    ]
    print(
        format_table(
            f"merged trace ({len(spans)} spans from {len(by_file)} processes)",
            ["period", "trace", "spans", "procs", "duration_ms", "xproc_ms"],
            rows,
        )
    )
    if periods:
        slowest = max(periods, key=lambda p: p["cross_process_ms"])
        print()
        print(
            f"critical path (period {slowest['period']}): "
            + " > ".join(slowest["critical_path"])
        )
    if args.out is not None:
        print(f"merged trace written to {args.out}")
    for problem in problems:
        print(f"repro trace: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _serve(args) -> int:
    """Run the control-plane HTTP service (blocks until stopped)."""
    # The scenario's tasks are ignored on purpose, and it is never
    # planned: the service starts empty and tenants populate it over HTTP.
    cluster, cost, _tasks = _scenario(args).workload
    try:
        controlplane = ControlPlane(
            cluster,
            cost,
            collectors=args.collectors,
            strategy=AdaptationStrategy(args.strategy),
            config=RuntimeConfig(**_runtime_config(args)),
            metrics=default_registry(),
        )
    except ValueError as exc:
        return _fail(f"repro serve: {exc}")
    print(f"control plane: {len(cluster)} nodes, {args.collectors} collector shard(s)", flush=True)
    run_serve(
        controlplane,
        host=args.host,
        port=args.port,
        announce=args.announce,
        max_seconds=args.max_seconds,
    )
    return 0


def _export_observability(args, registry: MetricsRegistry, tracer) -> None:
    """Write the ``--trace`` / ``--metrics`` artifacts for one command."""
    trace_path = getattr(args, "trace", None)
    if trace_path is not None:
        spans = tracer.spans()
        if trace_path.endswith(".jsonl"):
            write_jsonl_spans(spans, trace_path)
        else:
            write_chrome_trace(spans, trace_path, epoch=tracer.epoch)
    metrics_path = getattr(args, "metrics", None)
    if metrics_path is not None:
        write_prometheus(registry, metrics_path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="REMO resource-aware monitoring planner (paper reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan_p = sub.add_parser("plan", help="plan a monitoring forest")
    _add_common(plan_p)
    _add_json(plan_p)
    _add_obs(plan_p)
    plan_p.add_argument(
        "--exhaustive",
        action="store_true",
        help="evaluate the entire merge/split neighborhood each iteration "
        "instead of the ranked top-8 (remo scheme only; slow, ablation "
        "baseline)",
    )
    plan_p.set_defaults(func=_plan)

    sim_p = sub.add_parser("simulate", help="plan then simulate")
    _add_common(sim_p)
    _add_json(sim_p)
    _add_obs(sim_p)
    sim_p.add_argument(
        "--periods", type=_positive(int), default=20, help="collection periods"
    )
    sim_p.set_defaults(func=_simulate)

    adapt_p = sub.add_parser("adapt", help="run the adaptive service under churn")
    _add_common(adapt_p)
    _add_json(adapt_p)
    _add_obs(adapt_p)
    adapt_p.add_argument("--batches", type=_positive(int), default=5, help="update batches")
    adapt_p.add_argument(
        "--strategy",
        choices=[s.value for s in AdaptationStrategy],
        default="adaptive",
    )
    adapt_p.set_defaults(func=_adapt)

    check_p = sub.add_parser(
        "check", help="plan, then statically verify the plan's invariants"
    )
    _add_common(check_p)
    _add_preset(check_p)
    check_p.add_argument(
        "--corrupt",
        choices=list(FAULT_KINDS),
        default=None,
        help="inject a known corruption before checking (verifier self-test)",
    )
    check_p.add_argument(
        "--hints", action="store_true", help="print fix hints with each finding"
    )
    check_p.add_argument(
        "--codes", action="store_true", help="list the diagnostic-code registry and exit"
    )
    check_p.set_defaults(func=_check)

    run_p = sub.add_parser(
        "run", help="execute the plan live on the asyncio runtime"
    )
    _add_common(run_p)
    _add_json(run_p)
    _add_obs(run_p)
    _add_preset(run_p)
    _add_runtime(run_p)
    run_p.add_argument(
        "--fail-node",
        type=_parse_outage,
        action="append",
        default=[],
        metavar="NODE:START:END",
        help="crash NODE during periods [START, END) (repeatable)",
    )
    run_p.set_defaults(func=_run)

    deploy_p = sub.add_parser(
        "deploy",
        help="run the plan across worker processes over real TCP",
    )
    _add_common(deploy_p)
    _add_json(deploy_p)
    _add_obs(deploy_p)
    _add_preset(deploy_p)
    _add_runtime(deploy_p)
    deploy_p.add_argument(
        "--workers",
        type=_positive(int),
        default=3,
        help="worker processes to shard nodes across",
    )
    deploy_p.add_argument(
        "--collectors",
        type=_positive(int),
        default=1,
        help="collector shards co-hosted in the collector process "
        "(hash-sharded collection trees)",
    )
    deploy_p.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface every process listens on (single-host deployment)",
    )
    deploy_p.add_argument(
        "--rundir",
        metavar="PATH",
        default=None,
        help="directory for the spec/readiness/report files "
        "(default: a fresh temp directory)",
    )
    deploy_p.add_argument(
        "--chaos-kill",
        type=_parse_chaos,
        action="append",
        default=[],
        metavar="RANK:SECONDS",
        help="SIGKILL worker RANK this many seconds into the run, once "
        "(exercises the supervisor's restart path; repeatable)",
    )
    deploy_p.set_defaults(func=_deploy)

    trace_p = sub.add_parser(
        "trace",
        help="merge a deploy rundir's span artifacts into one trace",
    )
    trace_p.add_argument(
        "rundir",
        help="deploy run directory holding trace-*.jsonl span artifacts",
    )
    trace_p.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the merged trace: .jsonl for the raw span log, any "
        "other extension for Chrome trace-event JSON (Perfetto)",
    )
    trace_p.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 unless the collector and every worker listed in the "
        "rundir's spec.json contributed spans (CI completeness gate)",
    )
    _add_json(trace_p)
    trace_p.set_defaults(func=_trace_cmd)

    metrics_p = sub.add_parser(
        "metrics", help="validate and render a --metrics snapshot file"
    )
    metrics_p.add_argument("path", help="Prometheus text-format snapshot to render")
    metrics_p.add_argument(
        "--format",
        choices=["table", "prometheus", "jsonl"],
        default="table",
        help="output format: a table, canonical sorted 'series value' "
        "lines (diffable against a /metrics scrape), or one JSON "
        "object per line",
    )
    _add_json(metrics_p)
    metrics_p.set_defaults(func=_metrics)

    serve_p = sub.add_parser(
        "serve",
        help="run the multi-tenant control-plane HTTP service",
    )
    _add_common(serve_p)
    _add_obs(serve_p)
    _add_preset(
        serve_p,
        help="use the canonical cluster instead of the sampled one "
        "(workload tasks are ignored either way: tenants submit "
        "tasks over HTTP)",
    )
    # POST /run names its own period count.
    _add_runtime(serve_p, period_seconds=0.05, periods=False)
    serve_p.add_argument(
        "--collectors",
        type=_positive(int),
        default=1,
        help="collector shards to split the collection trees across",
    )
    serve_p.add_argument(
        "--strategy",
        choices=[s.value for s in AdaptationStrategy],
        default="adaptive",
        help="adaptation strategy for POST /adapt",
    )
    serve_p.add_argument("--host", default="127.0.0.1", help="interface to bind")
    serve_p.add_argument(
        "--port",
        type=_bounded(int, 0, 65535),
        default=0,
        help="TCP port (0 binds an ephemeral port)",
    )
    serve_p.add_argument(
        "--announce",
        metavar="PATH",
        default=None,
        help="write the bound {host, port} to this JSON file once listening",
    )
    serve_p.add_argument(
        "--max-seconds",
        type=_positive(float),
        default=None,
        help="stop after this many seconds (CI smoke jobs); default: serve forever",
    )
    serve_p.set_defaults(func=_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    wants_obs = (
        getattr(args, "trace", None) is not None
        or getattr(args, "metrics", None) is not None
    )
    if not wants_obs:
        return args.func(args)
    # Fresh ambient registry per invocation: two commands run in one
    # process (tests, notebooks) must not bleed counters into each
    # other's --metrics snapshot.  Tracing is enabled only when a
    # --trace path asks for it, keeping the no-flags path zero-cost.
    registry = MetricsRegistry()
    with use_registry(registry):
        if getattr(args, "trace", None) is not None:
            with trace.installed() as tracer:
                code = args.func(args)
        else:
            tracer = None
            code = args.func(args)
        _export_observability(args, registry, tracer)
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
