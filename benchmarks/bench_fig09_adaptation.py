"""Fig. 9 -- adaptation schemes under increasing task-update frequency.

A dynamic environment is emulated per Section 7.1: each update batch
randomly selects 5% of the monitoring nodes and replaces 50% of their
tasks' attributes.  Within a fixed window of collection periods we
apply 1, 2, 4 or 8 such batches and compare four schemes:

- D-A (DIRECT-APPLY): patch the topology, no re-optimization;
- REBUILD: full REMO planning on every batch;
- NO-THROTTLE: restricted local search around reconstructed trees;
- ADAPTIVE: NO-THROTTLE plus cost-benefit throttling.

Four panels, as in the paper:

- 9a: planner CPU seconds per window (REBUILD >> NO-THROTTLE >=
  ADAPTIVE > D-A);
- 9b: adaptation messages as % of total messages (REBUILD highest,
  ADAPTIVE ~ D-A);
- 9c: total cost (adaptation + monitoring traffic) relative to D-A
  (ADAPTIVE stays below 100%; REBUILD crosses above as frequency
  grows);
- 9d: collected values relative to D-A (ADAPTIVE/NO-THROTTLE gain).
"""

import time

import pytest

from _common import emit_series, standard_cluster
from repro.analysis.report import Series
from repro.core.adaptation import AdaptationStrategy, AdaptiveMonitoringService
from repro.core.cost import CostModel
from repro.core.tasks import MonitoringTask
from repro.workloads.tasks import TaskSampler
from repro.workloads.updates import TaskUpdateStream

COST = CostModel(per_message=20.0, per_value=1.0)
FREQUENCIES = [1, 2, 4, 8]
WINDOW_PERIODS = 10.0
STRATEGIES = {
    "D-A": AdaptationStrategy.DIRECT_APPLY,
    "REBUILD": AdaptationStrategy.REBUILD,
    "NO-THROTTLE": AdaptationStrategy.NO_THROTTLE,
    "ADAPTIVE": AdaptationStrategy.ADAPTIVE,
}


def run_window(strategy, cluster, tasks, n_batches, seed):
    """Apply ``n_batches`` update batches within one window.

    Returns (cpu_seconds, adaptation_cost, monitoring_volume, collected).

    Reconfiguration control messages pay the same per-message overhead
    ``C`` as monitoring messages and *compete with monitoring data for
    node capacity* (Section 7.1: the more traffic a scheme generates,
    the more values are miss-collected).  ``collected`` is therefore
    measured by simulating the final plan with every node's budget
    shaved by its share of the window's adaptation traffic.
    """
    svc = AdaptiveMonitoringService(
        cluster, COST, strategy=strategy, candidate_budget=4, max_ops_per_batch=4
    )
    svc.initialize(tasks, now=0.0)
    stream = TaskUpdateStream(cluster, tasks, seed=seed)
    cpu = 0.0
    adaptation_msgs = 0
    node_adapt_cost: dict = {}
    spacing = WINDOW_PERIODS / n_batches
    previous_edges = svc.plan.edge_multiset()
    for i in range(n_batches):
        batch = stream.next_batch()
        started = time.perf_counter()
        report = svc.apply_changes(batch, now=(i + 1) * spacing)
        cpu += time.perf_counter() - started
        adaptation_msgs += report.adaptation_messages
        current = svc.plan.edge_multiset()
        for (node, parent), count in current.items():
            delta = abs(count - previous_edges.get((node, parent), 0))
            if delta:
                node_adapt_cost[node] = (
                    node_adapt_cost.get(node, 0.0) + COST.overhead_cost(delta)
                )
                if parent >= 0:
                    node_adapt_cost[parent] = (
                        node_adapt_cost.get(parent, 0.0) + COST.overhead_cost(delta)
                    )
        for (node, parent), count in previous_edges.items():
            if (node, parent) not in current:
                node_adapt_cost[node] = (
                    node_adapt_cost.get(node, 0.0) + COST.overhead_cost(count)
                )
                if parent >= 0:
                    node_adapt_cost[parent] = (
                        node_adapt_cost.get(parent, 0.0) + COST.overhead_cost(count)
                    )
        previous_edges = current
    final = svc.plan
    monitoring_msgs = final.total_message_cost() * WINDOW_PERIODS
    collected = _simulate_collected(final, cluster, node_adapt_cost)
    adaptation_cost = COST.overhead_cost(adaptation_msgs)
    return cpu, adaptation_cost, monitoring_msgs, collected


def _simulate_collected(plan, cluster, node_adapt_cost):
    """Fraction of requested pairs fresh per period, with per-node
    budgets reduced by adaptation traffic spread over the window."""
    from repro.cluster.node import Cluster, SimNode
    from repro.simulation import MonitoringSimulation

    shaved_nodes = []
    for node in cluster:
        shave = node_adapt_cost.get(node.node_id, 0.0) / WINDOW_PERIODS
        shaved_nodes.append(
            SimNode(
                node_id=node.node_id,
                capacity=max(node.capacity - shave, 1e-6),
                attributes=node.attributes,
            )
        )
    shaved = Cluster(shaved_nodes, central_capacity=cluster.central_capacity)
    report = MonitoringSimulation(plan, shaved, seed=7).run(int(WINDOW_PERIODS))
    return report.mean_fresh_coverage * plan.requested_pair_count()


@pytest.fixture(scope="module")
def fig9_data():
    cluster = standard_cluster(n_nodes=60, capacity=600.0, central=1500.0)
    sampled = TaskSampler(cluster, seed=71).sample_many(25, (2, 5), (15, 45), prefix="dyn-")
    # Decompose tasks to node granularity: the paper's update protocol
    # replaces 50% of the attributes monitored *on the selected nodes*,
    # not half of every task touching them.  Per-node tasks expand to
    # the identical de-duplicated pair set (planning is unaffected)
    # while confining each batch's churn to the selected nodes' pairs.
    tasks = []
    for task in sampled:
        for node in sorted(task.nodes):
            tasks.append(
                MonitoringTask(f"{task.task_id}@{node}", task.attributes, [node])
            )
    data = {name: [] for name in STRATEGIES}
    for freq in FREQUENCIES:
        for name, strategy in STRATEGIES.items():
            data[name].append(run_window(strategy, cluster, tasks, freq, seed=100 + freq))
    return data


def test_fig9a_planning_cpu(fig9_data, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    series = []
    for name in STRATEGIES:
        series.append(Series(name, [round(row[0], 4) for row in fig9_data[name]]))
    emit_series(
        "fig09", "Fig 9a: planning CPU seconds vs update batches/window",
        "batches", FREQUENCIES, series,
    )
    by_name = {s.name: s.values for s in series}
    # REBUILD is the most expensive planner at the highest frequency;
    # D-A the cheapest.
    assert by_name["REBUILD"][-1] >= by_name["ADAPTIVE"][-1]
    assert by_name["D-A"][-1] <= by_name["ADAPTIVE"][-1] + 1e-6


def test_fig9b_adaptation_cost_share(fig9_data, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    series = []
    for name in STRATEGIES:
        values = []
        for cpu, adapt, monitoring, collected in fig9_data[name]:
            values.append(round(100.0 * adapt / (adapt + monitoring), 4))
        series.append(Series(name, values))
    emit_series(
        "fig09", "Fig 9b: adaptation messages as % of total cost",
        "batches", FREQUENCIES, series,
    )
    by_name = {s.name: s.values for s in series}
    assert by_name["REBUILD"][-1] >= by_name["ADAPTIVE"][-1]
    assert by_name["REBUILD"][-1] >= by_name["D-A"][-1]


def test_fig9c_total_cost_vs_da(fig9_data, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    da_totals = [row[1] + row[2] for row in fig9_data["D-A"]]
    series = []
    for name in STRATEGIES:
        values = []
        for (row, da_total) in zip(fig9_data[name], da_totals):
            total = row[1] + row[2]
            values.append(round(100.0 * total / da_total, 2))
        series.append(Series(name, values))
    emit_series(
        "fig09", "Fig 9c: total cost as % of D-A", "batches", FREQUENCIES, series
    )
    by_name = {s.name: s.values for s in series}
    # ADAPTIVE never costs more than REBUILD at high frequency.
    assert by_name["ADAPTIVE"][-1] <= by_name["REBUILD"][-1]


def test_fig9d_collected_vs_da(fig9_data, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    da_collected = [row[3] for row in fig9_data["D-A"]]
    series = []
    for name in STRATEGIES:
        values = []
        for row, da in zip(fig9_data[name], da_collected):
            values.append(round(100.0 * row[3] / max(da, 1), 2))
        series.append(Series(name, values))
    emit_series(
        "fig09", "Fig 9d: collected values as % of D-A", "batches", FREQUENCIES, series
    )
    by_name = {s.name: s.values for s in series}
    # Topology optimization pays: ADAPTIVE collects at least as much as
    # D-A (100%) on average across frequencies.
    mean_adaptive = sum(by_name["ADAPTIVE"]) / len(FREQUENCIES)
    assert mean_adaptive >= 99.0
