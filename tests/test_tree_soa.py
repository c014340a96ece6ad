"""Struct-of-arrays tree state: slot recycling and maintained columns.

Scalar per-node state lives in flat ``array('d')`` columns
(``_cap_a``/``_send_a``/``_recv_a`` plus the maintained ``_tot_a``)
indexed by a dense slot id.  These tests pin the slot lifecycle and
that the bulk headroom scan over the columns agrees with the per-node
accessors.
"""

from __future__ import annotations

from repro.core.cost import CostModel
from repro.core.planner import RemoPlanner
from repro.trees import model as tree_model
from repro.workloads.presets import sampled_workload

COST = CostModel(per_message=20.0, per_value=1.0)


def _workload(n: int, seed: int = 1):
    cluster, _cost, tasks = sampled_workload(nodes=n, tasks=n, seed=seed)
    return cluster, tasks


class TestSlotColumns:
    def test_released_slots_are_poisoned_and_recycled(self):
        tree = tree_model.MonitoringTree(
            attributes={"a"},
            cost_model=COST,
            capacities={i: 100.0 for i in range(5)},
            central_capacity=500.0,
        )
        assert tree.add_node(0, None, {"a": 1.0})
        assert tree.add_node(1, 0, {"a": 1.0})
        slot1 = tree._slot[1]
        tree.remove_branch(1)
        assert tree._cap_a[slot1] == -float("inf")
        assert tree._node_of[slot1] == -1
        # 1e9 headroom can never pass against a poisoned slot.
        assert 1 not in tree.viable_parents(0.0)
        assert tree.add_node(2, 0, {"a": 1.0})
        assert tree._slot[2] == slot1  # LIFO recycling
        tree.validate()

    def test_maintained_columns_survive_restructuring(self):
        """Exercise move_branch + update_local, then let the recompute
        oracle cross-check the maintained total column."""
        cluster, tasks = _workload(30, seed=3)
        plan, _ = RemoPlanner(COST).plan_with_stats(tasks, cluster)
        tree = max((r.tree for r in plan.trees.values()), key=len)
        nodes = tree.nodes
        # A legal local update at the deepest node, then validate.
        leaf = max(nodes, key=tree.depth)
        demand = dict(tree.local_demand(leaf))
        if demand:
            attr, w = next(iter(demand.items()))
            demand[attr] = w  # no-op rewrite still walks the commit path
            assert tree.update_local(leaf, demand)
        tree.validate()

    def test_viable_parent_arrays_matches_per_node_accessors(self):
        cluster, tasks = _workload(40)
        plan, _ = RemoPlanner(COST).plan_with_stats(tasks, cluster)
        trees = [r.tree for r in plan.trees.values() if len(r.tree) >= 2]
        assert trees, "expected at least one populated tree"
        for tree in trees:
            for bar in (0.0, 5.0, 50.0):
                nodes, depths, avail = tree.viable_parent_arrays(bar)
                assert sorted(nodes) == sorted(tree.viable_parents(bar))
                assert set(nodes) == {
                    n for n in tree.nodes if tree.available(n) >= bar - 1e-9
                }
                for node, depth, av in zip(nodes, depths, avail):
                    assert depth == tree.depth(node)
                    assert av == tree.available(node)
