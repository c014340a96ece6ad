"""Struct-of-arrays tree state: slot recycling and maintained columns.

Scalar per-node state lives in flat ``array('d')`` columns
(``_cap_a``/``_send_a``/``_recv_a`` plus the maintained ``_tot_a``)
indexed by a dense slot id.  These tests pin the slot lifecycle and
that the bulk headroom scan over the columns agrees with the per-node
accessors -- and that on a funnel-free tree those columns are all
there is: no per-attribute table is read or written.
"""

from __future__ import annotations

from repro.checks import assert_plan_valid
from repro.core.adaptation import AdaptationStrategy, AdaptiveMonitoringService
from repro.core.cost import CostModel
from repro.core.planner import RemoPlanner
from repro.trees import model as tree_model
from repro.workloads.presets import sampled_workload
from repro.workloads.updates import TaskUpdateStream

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


class _Untouchable:
    """Stands in for a table a funnel-free tree must never consult."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("per-attribute state touched on a funnel-free tree")

    __getitem__ = __setitem__ = __delitem__ = __contains__ = __iter__ = _refuse
    __len__ = __bool__ = __eq__ = __getattr__ = _refuse


class TestFunnelFreeTreesKeepNoAttributeState:
    def test_planning_and_adaptation_never_touch_the_attribute_tables(self, monkeypatch):
        """A ``plan_search``-shaped plan and an adaptation run -- every
        attach, move, detach, local update and probe of both -- with the
        per-attribute tables booby-trapped and the per-attribute step
        and its delta dicts forbidden outright."""
        built = []
        plain_init = tree_model.MonitoringTree.__init__

        def trapped_init(tree, *args, **kwargs):
            plain_init(tree, *args, **kwargs)
            assert not tree.has_aggregation()
            tree._in = tree._in_count = tree._out = _Untouchable()
            built.append(tree)

        monkeypatch.setattr(tree_model.MonitoringTree, "__init__", trapped_init)
        monkeypatch.setattr(tree_model.MonitoringTree, "_refunnel", _Untouchable._refuse)
        monkeypatch.setattr(tree_model, "_diff_values", _Untouchable._refuse)

        cluster, cost, tasks = sampled_workload(nodes=48, tasks=12, capacity=200.0, seed=1)
        plan, stats = RemoPlanner(cost).plan_with_stats(tasks, cluster)
        assert stats.accepted_ops
        plan.validate({n.node_id: n.capacity for n in cluster}, cluster.central_capacity)

        service = AdaptiveMonitoringService(cluster, cost, AdaptationStrategy.ADAPTIVE)
        service.initialize(tasks)
        stream = TaskUpdateStream(cluster, tasks, node_fraction=0.05, attr_fraction=0.5, seed=11)
        for batch in range(3):
            service.apply_changes(stream.next_batch(), now=10.0 * (batch + 1))
        assert_plan_valid(service.plan, cluster)
        assert len(built) > 100
