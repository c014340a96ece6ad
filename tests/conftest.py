"""Shared fixtures for the REMO reproduction test suite."""

from __future__ import annotations

import random

import pytest

from repro.cluster.node import Cluster, SimNode
from repro.cluster.topology import default_attribute_pool, make_uniform_cluster
from repro.core.cost import CostModel
from repro.core.tasks import MonitoringTask, TaskManager


@pytest.fixture
def cost():
    """The default C=2, a=1 cost model."""
    return CostModel(per_message=2.0, per_value=1.0)


@pytest.fixture
def heavy_cost():
    """A high-overhead model (C/a = 10), the paper's realistic regime."""
    return CostModel(per_message=10.0, per_value=1.0)


@pytest.fixture
def small_cluster():
    """Six nodes, generous capacity, everyone observes a, b, c."""
    nodes = [
        SimNode(node_id=i, capacity=100.0, attributes=frozenset({"a", "b", "c"}))
        for i in range(6)
    ]
    return Cluster(nodes, central_capacity=500.0)


@pytest.fixture
def tight_cluster():
    """Twenty nodes with tight capacity: plans cannot collect everything."""
    nodes = [
        SimNode(node_id=i, capacity=14.0, attributes=frozenset({"a", "b", "c", "d"}))
        for i in range(20)
    ]
    return Cluster(nodes, central_capacity=60.0)


@pytest.fixture
def medium_cluster():
    """Forty nodes with random attribute subsets from a pool of 12."""
    return make_uniform_cluster(
        n_nodes=40,
        capacity=80.0,
        attrs_per_node=6,
        attribute_pool=default_attribute_pool(12),
        central_capacity=1500.0,
        seed=17,
    )


@pytest.fixture
def rng():
    return random.Random(1234)


def make_task(task_id="t", attrs=("a",), nodes=(0, 1), frequency=1.0):
    """Terse task constructor for tests."""
    return MonitoringTask(task_id, attrs, nodes, frequency=frequency)


def move_unchecked(tree, branch, target):
    """``tree.move_branch`` with its feasibility check skipped: the
    brute-force side of the probe oracles, and a way back to a state
    that was never feasible."""
    tree._move_feasible = lambda *_: True
    try:
        tree.move_branch(branch, target)
    finally:
        del tree._move_feasible


def manager_of(tasks):
    """A task manager holding ``tasks``."""
    manager = TaskManager()
    for task in tasks:
        manager.add_task(task)
    return manager


@pytest.fixture
def task_factory():
    return make_task
