"""A YieldMonitor-like chip-manufacturing-test analytics application.

The paper's real-system experiments deploy *YieldMonitor* [18]: a
System S application that ingests chip test-line data and uses
statistical stream processing to predict per-chip yield, consisting of
over 200 processes across 200 BlueGene/P nodes with 30-50 monitorable
attributes per node.  This module synthesizes an application with that
published shape:

- ``n_lines`` test-line *sources* (bursty tuple rates), each feeding a
  parse -> filter -> per-test statistical-predictor pipeline;
- per-wafer *aggregate* operators fan the predictor outputs in;
- a final yield-model join + sink.

Operators are placed round-robin across the requested nodes; with the
default shape every node hosts enough operators that its attribute
count (4 metrics per operator + 6 OS gauges) lands in the paper's
30-50 range.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.core.attributes import NodeId
from repro.core.tasks import MonitoringTask
from repro.streams.app import OS_METRICS, StreamApp
from repro.streams.dataflow import DataflowGraph
from repro.streams.operators import Operator, OperatorKind

#: Statistical-predictor operators on each test line.
PREDICTORS_PER_LINE = 4


def make_yieldmonitor(
    n_nodes: int = 200,
    n_lines: int = 50,
    seed: Optional[int] = None,
) -> StreamApp:
    """Build and place the synthetic YieldMonitor application.

    With the defaults the graph holds ``50 * (2 + 4) + 50/5 + 2 = 312``
    operators over 200 nodes (>200 processes, as published) and every
    node exposes between 30 and 50 attributes.
    """
    if n_nodes <= 0 or n_lines <= 0:
        raise ValueError("application shape parameters must be positive")
    rng = random.Random(seed)
    graph = DataflowGraph()

    aggregates: List[Operator] = []
    for w in range(max(1, n_lines // 5)):
        aggregates.append(
            graph.add_operator(
                Operator(
                    f"wafer_agg{w:02d}",
                    OperatorKind.AGGREGATE,
                    selectivity=0.05,
                    service_rate=rng.uniform(3000, 6000),
                )
            )
        )

    for line in range(n_lines):
        source = graph.add_operator(
            Operator(
                f"line{line:03d}.src",
                OperatorKind.SOURCE,
                burst_calm=rng.uniform(80, 150),
                burst_peak=rng.uniform(600, 1500),
                service_rate=rng.uniform(2000, 4000),
            )
        )
        parse = graph.add_operator(
            Operator(
                f"line{line:03d}.parse",
                OperatorKind.FUNCTOR,
                selectivity=rng.uniform(0.9, 1.0),
                service_rate=rng.uniform(1500, 3000),
            )
        )
        graph.connect(source.op_id, parse.op_id)
        for p in range(PREDICTORS_PER_LINE):
            predictor = graph.add_operator(
                Operator(
                    f"line{line:03d}.pred{p}",
                    OperatorKind.FUNCTOR,
                    selectivity=rng.uniform(0.2, 0.6),
                    service_rate=rng.uniform(800, 2000),
                )
            )
            graph.connect(parse.op_id, predictor.op_id)
            graph.connect(predictor.op_id, aggregates[line % len(aggregates)].op_id)

    yield_model = graph.add_operator(
        Operator(
            "yield_model",
            OperatorKind.JOIN,
            selectivity=0.5,
            service_rate=8000,
        )
    )
    sink = graph.add_operator(
        Operator("yield_sink", OperatorKind.SINK, service_rate=10000)
    )
    for agg in aggregates:
        graph.connect(agg.op_id, yield_model.op_id)
    graph.connect(yield_model.op_id, sink.op_id)

    # Round-robin placement over all nodes; deterministic given the seed.
    op_ids = [op.op_id for op in graph]
    rng.shuffle(op_ids)
    placement: Dict[str, NodeId] = {
        op_id: i % n_nodes for i, op_id in enumerate(op_ids)
    }
    return StreamApp(graph, placement, seed=seed)


def yieldmonitor_tasks(
    app: StreamApp,
    count: int,
    seed: Optional[int] = None,
    nodes_per_task: Tuple[int, int] = (10, 60),
) -> List[MonitoringTask]:
    """Synthesize monitoring tasks against the application.

    Mirrors the workload mix the paper describes: dashboards collecting
    OS gauges from many nodes, diagnosis tasks collecting rate/queue
    metrics from a pipeline's operators, and provisioning tasks
    watching CPU across the deployment.
    """
    if count <= 0:
        raise ValueError(f"count must be > 0, got {count}")
    rng = random.Random(seed)
    nodes = app.nodes()
    tasks: List[MonitoringTask] = []
    attempts = 0
    while len(tasks) < count and attempts < count * 20:
        attempts += 1
        tid = f"ym{len(tasks):04d}"
        lo, hi = nodes_per_task
        target_nodes = rng.sample(nodes, min(rng.randint(lo, hi), len(nodes)))
        style = rng.random()
        if style < 0.4:
            # Dashboard: a couple of OS gauges on many nodes.
            attrs = rng.sample(OS_METRICS, rng.randint(1, 3))
            tasks.append(MonitoringTask(tid, attrs, target_nodes))
            continue
        # Diagnosis: operator metrics observed on those nodes.
        observable = set()
        for node in target_nodes:
            for op in app.operators_on(node):
                observable.update(op.metric_names())
        if not observable:
            continue
        metric_kind = rng.choice(["rate_in", "rate_out", "queue", "cpu"])
        attrs = sorted(a for a in observable if a.endswith(metric_kind))
        if not attrs:
            continue
        attrs = rng.sample(attrs, min(rng.randint(2, 8), len(attrs)))
        keep_nodes = [
            n
            for n in target_nodes
            if any(app.observes(n, a) for a in attrs)
        ]
        if keep_nodes:
            tasks.append(MonitoringTask(tid, attrs, keep_nodes))
    if len(tasks) < count:
        raise RuntimeError(f"could only synthesize {len(tasks)} of {count} tasks")
    return tasks
