"""Exact pins on simulator results.

A run of the discrete-event simulator is a function of the plan and
the seeds alone: not of the interpreter's hash randomization, and not
of how the engine stores what it carries.  Three scenarios pin every
per-period sample and every run counter exactly:

- node and link outages on a sampled plan, which is also run in fresh
  interpreters under three ``PYTHONHASHSEED`` values;
- a mildly overloaded tree root (values trimmed) and a severely
  overloaded one (whole messages dropped);
- a hop latency so long that deep trees deliver a period late.

Run as a script (``python tests/test_simulation_pins.py outage``) it
prints the scenario's outcome as JSON.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.core.attributes import pairs_for
from repro.core.cost import CostModel
from repro.core.forest import ForestBuilder
from repro.core.partition import Partition
from repro.runtime import AgentOutage
from repro.simulation import (
    FailureInjector,
    LinkOutage,
    MonitoringSimulation,
    SimulationConfig,
)
from repro.workloads.presets import Scenario


def outage_run():
    """40 nodes / 10 sampled tasks; the fourth participating node is
    down for periods 2..5, and one uplink of the first tree for 3..6."""
    scenario = Scenario(nodes=40, tasks=10, seed=1)
    plan = scenario.plan()
    members = sorted({node for result in plan.trees.values() for node in result.tree.nodes})
    first = min(plan.trees, key=sorted)
    tree = plan.trees[first].tree
    child = min(node for node in tree.nodes if tree.parent(node) is not None)
    injector = FailureInjector(
        link_outages=[LinkOutage(child, first, 3.0, 7.0)],
        node_outages=[AgentOutage(members[3], 2, 6)],
    )
    return MonitoringSimulation(
        plan, scenario.workload[0], config=SimulationConfig(seed=5), failures=injector
    ).run(10)


def outcome(stats) -> dict:
    return {
        "samples": [
            [s.period, s.mean_error, s.fresh_fraction, s.received_fraction]
            for s in stats.periods
        ],
        "counters": [
            stats.requested_pairs,
            stats.messages_sent,
            stats.messages_delivered,
            stats.messages_dropped_capacity,
            stats.messages_dropped_failure,
            stats.values_trimmed,
            stats.cost_units_spent,
        ],
    }


#: Samples are [period, mean_error, fresh_fraction, received_fraction];
#: counters are [requested_pairs, sent, delivered, dropped_capacity,
#: dropped_failure, values_trimmed, cost_units_spent].
OUTAGE = {
    "samples": [
        [0, 0.0, 1.0, 1.0],
        [1, 0.0, 1.0, 1.0],
        [2, 0.0037105845207183728, 0.8795811518324608, 1.0],
        [3, 0.009534206582604723, 0.8638743455497382, 1.0],
        [4, 0.0102007487417949, 0.8638743455497382, 1.0],
        [5, 0.012944341011694295, 0.8638743455497382, 1.0],
        [6, 0.002326024463970134, 0.9842931937172775, 1.0],
        [7, 0.0, 1.0, 1.0],
        [8, 0.0, 1.0, 1.0],
        [9, 0.0, 1.0, 1.0],
    ],
    "counters": [191, 760, 740, 0, 20, 0, 46476.0],
}

MILD = {
    "samples": [
        [0, 0.25, 0.75, 0.75],
        [1, 0.25, 0.75, 0.75],
        [2, 0.25, 0.75, 0.75],
        [3, 0.25, 0.75, 0.75],
        [4, 0.25, 0.75, 0.75],
    ],
    "counters": [8, 40, 40, 0, 0, 10, 360.0],
}

SEVERE = {
    "samples": [
        [0, 1.0, 0.0, 0.0],
        [1, 1.0, 0.0, 0.0],
        [2, 1.0, 0.0, 0.0],
        [3, 1.0, 0.0, 0.0],
        [4, 1.0, 0.0, 0.0],
    ],
    "counters": [8, 35, 25, 15, 0, 0, 225.0],
}

LATE = {
    "samples": [
        [0, 1.0, 0.0, 0.0],
        [1, 0.025583970934883477, 0.16666666666666666, 1.0],
        [2, 0.04797322345451074, 0.16666666666666666, 1.0],
        [3, 0.05692208282580467, 0.16666666666666666, 1.0],
        [4, 0.03702820617250919, 0.16666666666666666, 1.0],
        [5, 0.040560269355028676, 0.16666666666666666, 1.0],
        [6, 0.1824431717575894, 0.16666666666666666, 1.0],
        [7, 0.05671445589059839, 0.16666666666666666, 1.0],
        [8, 0.051293656860884405, 0.16666666666666666, 1.0],
        [9, 0.048606551952397235, 0.16666666666666666, 1.0],
    ],
    "counters": [6, 60, 60, 0, 0, 0, 540.0],
}


def _observe_in_fresh_interpreter(hash_seed: str) -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "outage"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout)


def test_outage_run_is_pinned():
    assert outcome(outage_run()) == OUTAGE


@pytest.mark.parametrize("hash_seed", ["0", "1", "2"])
def test_outage_run_ignores_the_hash_seed(hash_seed):
    assert _observe_in_fresh_interpreter(hash_seed) == OUTAGE


@pytest.mark.parametrize("delta, pinned", [(-2.0, MILD), (-1e9, SEVERE)])
def test_overloaded_root_is_pinned(delta, pinned):
    from tests.test_simulation_overload import overloaded_setup

    plan, cluster = overloaded_setup(root_budget_delta=delta)
    stats = MonitoringSimulation(plan, cluster, config=SimulationConfig(seed=1)).run(5)
    assert outcome(stats) == pinned


def test_late_delivery_is_pinned(small_cluster):
    plan = ForestBuilder(CostModel(2.0, 1.0)).build(
        Partition.singletons({"a"}), pairs_for(range(6), ["a"]), small_cluster
    )
    assert plan.trees[frozenset({"a"})].tree.height() == 3
    config = SimulationConfig(hop_latency=0.4, seed=1)
    stats = MonitoringSimulation(plan, small_cluster, config=config).run(10)
    assert outcome(stats) == LATE


if __name__ == "__main__":
    if sys.argv[1:] != ["outage"]:
        pytest.exit("usage: test_simulation_pins.py outage", returncode=2)
    print(json.dumps(outcome(outage_run())))
