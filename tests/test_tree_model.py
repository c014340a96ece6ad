"""Unit tests for the monitoring tree data structure.

These exercise the paper's Problem Statement 2 bookkeeping: y_i
(subtree value counts), send/recv costs under C + a*x, capacity
feasibility along the path to the collector, and branch moves.
"""

import math

import pytest

from repro.checks import assert_plan_valid
from repro.core.adaptation import AdaptationStrategy, AdaptiveMonitoringService
from repro.core.cost import AggregationKind, AggregationSpec, CostModel
from repro.core.planner import RemoPlanner
from repro.trees import model as tree_model
from repro.trees.model import MonitoringTree, TreeInvariantError
from repro.workloads.presets import sampled_workload
from repro.workloads.updates import TaskUpdateStream

COST = CostModel(per_message=2.0, per_value=1.0)


def make_tree(capacities=None, central=math.inf, attrs=("a",), aggregation=None):
    caps = capacities if capacities is not None else {i: 100.0 for i in range(10)}
    return MonitoringTree(
        attributes=attrs,
        cost_model=COST,
        capacities=caps,
        central_capacity=central,
        aggregation=aggregation,
    )


def chain_tree(n, capacities=None, central=math.inf):
    """0 <- 1 <- 2 ... (node 0 is root)."""
    tree = make_tree(capacities, central)
    tree.add_node(0, None, {"a": 1.0})
    for i in range(1, n):
        assert tree.add_node(i, i - 1, {"a": 1.0})
    return tree


class TestStructure:
    def test_first_node_is_root(self):
        tree = make_tree()
        tree.add_node(0, None, {"a": 1.0})
        assert tree.root == 0
        assert tree.depth(0) == 0
        assert tree.parent(0) is None

    def test_second_root_rejected(self):
        tree = make_tree()
        tree.add_node(0, None, {"a": 1.0})
        with pytest.raises(ValueError):
            tree.add_node(1, None, {"a": 1.0})

    def test_duplicate_node_rejected(self):
        tree = chain_tree(2)
        with pytest.raises(ValueError):
            tree.add_node(1, 0, {"a": 1.0})

    def test_unknown_parent_rejected(self):
        tree = make_tree()
        tree.add_node(0, None, {"a": 1.0})
        with pytest.raises(ValueError):
            tree.add_node(1, 99, {"a": 1.0})

    def test_foreign_attribute_rejected(self):
        tree = make_tree(attrs=("a",))
        with pytest.raises(ValueError):
            tree.add_node(0, None, {"z": 1.0})

    def test_depth_and_height(self):
        tree = chain_tree(4)
        assert [tree.depth(i) for i in range(4)] == [0, 1, 2, 3]
        assert tree.height() == 3

    def test_children_and_degree(self):
        tree = make_tree()
        tree.add_node(0, None, {"a": 1.0})
        tree.add_node(1, 0, {"a": 1.0})
        tree.add_node(2, 0, {"a": 1.0})
        assert tree.children(0) == {1, 2}
        assert tree.degree(0) == 2

    def test_subtree_nodes(self):
        tree = chain_tree(4)
        assert set(tree.subtree_nodes(1)) == {1, 2, 3}
        assert len(tree.subtree_nodes(0)) == 4

    def test_edges_include_central(self):
        tree = chain_tree(2)
        assert (0, -1) in tree.edges()
        assert (1, 0) in tree.edges()


class TestCostBookkeeping:
    def test_leaf_send_cost(self):
        tree = make_tree()
        tree.add_node(0, None, {"a": 1.0})
        assert tree.send_cost(0) == pytest.approx(COST.message_cost(1))

    def test_chain_y_values_accumulate(self):
        """y_i = x_i + sum of children's y (Problem 2, constraint 2)."""
        tree = chain_tree(3)
        assert tree.outgoing_values(2) == pytest.approx(1.0)
        assert tree.outgoing_values(1) == pytest.approx(2.0)
        assert tree.outgoing_values(0) == pytest.approx(3.0)

    def test_recv_is_sum_of_child_messages(self):
        tree = make_tree()
        tree.add_node(0, None, {"a": 1.0})
        tree.add_node(1, 0, {"a": 1.0})
        tree.add_node(2, 0, {"a": 1.0})
        assert tree.recv_cost(0) == pytest.approx(2 * COST.message_cost(1))

    def test_used_is_send_plus_recv(self):
        tree = chain_tree(3)
        assert tree.used(1) == pytest.approx(tree.send_cost(1) + tree.recv_cost(1))

    def test_central_used_is_root_message(self):
        tree = chain_tree(3)
        assert tree.central_used() == pytest.approx(COST.message_cost(3))

    def test_total_message_cost(self):
        tree = chain_tree(3)
        expected = sum(tree.send_cost(i) for i in range(3))
        assert tree.total_message_cost() == pytest.approx(expected)

    def test_pair_count(self):
        tree = make_tree(attrs=("a", "b"))
        tree.add_node(0, None, {"a": 1.0, "b": 1.0})
        tree.add_node(1, 0, {"a": 1.0})
        assert tree.pair_count() == 3


class TestCapacityEnforcement:
    def test_attach_rejected_when_parent_overflows(self):
        # Parent capacity 10: send (C + 2a) + one child (C + a) = 4 + 3 + growth...
        caps = {0: 8.0, 1: 100.0, 2: 100.0}
        tree = make_tree(caps)
        tree.add_node(0, None, {"a": 1.0})
        assert tree.add_node(1, 0, {"a": 1.0})  # 0: send 4 + recv 3 = 7 <= 8
        assert not tree.add_node(2, 0, {"a": 1.0})  # would make 0 use 11
        assert 2 not in tree

    def test_attach_rejected_when_ancestor_overflows(self):
        """Relay growth along the whole path is checked, not just the parent."""
        caps = {0: 7.5, 1: 100.0, 2: 100.0}
        tree = make_tree(caps)
        tree.add_node(0, None, {"a": 1.0})
        assert tree.add_node(1, 0, {"a": 1.0})
        # attaching to 1: root recv grows by a, send grows by a.
        assert not tree.add_node(2, 1, {"a": 1.0})

    def test_new_node_own_capacity_checked(self):
        caps = {0: 100.0, 1: 2.5}
        tree = make_tree(caps)
        tree.add_node(0, None, {"a": 1.0})
        assert not tree.add_node(1, 0, {"a": 1.0})  # 1's send cost 3 > 2.5

    def test_central_capacity_checked_for_root(self):
        tree = make_tree(central=2.5)
        assert not tree.add_node(0, None, {"a": 1.0})  # message cost 3 > 2.5

    def test_central_capacity_checked_on_growth(self):
        tree = make_tree(central=3.5)
        tree.add_node(0, None, {"a": 1.0})  # root message cost 3
        assert not tree.add_node(1, 0, {"a": 1.0})  # root message would cost 4

    def test_can_add_does_not_mutate(self):
        tree = chain_tree(2)
        before = tree.edges()
        assert tree.can_add_node(5, 0, {"a": 1.0})
        assert tree.edges() == before
        assert 5 not in tree


class TestBranchMoves:
    def test_move_branch_reparents_subtree(self):
        tree = make_tree()
        tree.add_node(0, None, {"a": 1.0})
        tree.add_node(1, 0, {"a": 1.0})
        tree.add_node(2, 0, {"a": 1.0})
        tree.add_node(3, 2, {"a": 1.0})
        assert tree.move_branch(2, 1)
        assert tree.parent(2) == 1
        assert tree.depth(3) == 3
        tree.validate()

    def test_move_preserves_costs_consistency(self):
        tree = make_tree()
        tree.add_node(0, None, {"a": 1.0})
        for i in (1, 2, 3):
            tree.add_node(i, 0, {"a": 1.0})
        tree.move_branch(3, 1)
        tree.validate()
        # Root lost one message's overhead C but still relays 4 values.
        assert tree.outgoing_values(0) == pytest.approx(4.0)
        assert tree.recv_cost(0) == pytest.approx(
            COST.message_cost(1) + COST.message_cost(2)
        )

    def test_move_into_own_subtree_rejected(self):
        tree = chain_tree(3)
        with pytest.raises(ValueError):
            tree.move_branch(1, 2)

    def test_move_root_rejected(self):
        tree = chain_tree(2)
        with pytest.raises(ValueError):
            tree.move_branch(0, 1)

    def test_failed_move_rolls_back(self):
        caps = {0: 100.0, 1: 3.2, 2: 100.0}
        tree = make_tree(caps)
        tree.add_node(0, None, {"a": 1.0})
        tree.add_node(1, 0, {"a": 1.0})
        tree.add_node(2, 0, {"a": 1.0})
        # Moving 2 under 1 would push 1 to send C+2a=4 > 3.2.
        assert not tree.move_branch(2, 1)
        assert tree.parent(2) == 0
        tree.validate()

    def test_can_move_branch_is_side_effect_free(self):
        tree = make_tree()
        tree.add_node(0, None, {"a": 1.0})
        tree.add_node(1, 0, {"a": 1.0})
        tree.add_node(2, 0, {"a": 1.0})
        edges = tree.edges()
        assert tree.can_move_branch(2, 1) in (True, False)
        assert tree.edges() == edges
        tree.validate()

    def test_remove_branch_returns_replayable_records(self):
        tree = make_tree()
        tree.add_node(0, None, {"a": 1.0})
        tree.add_node(1, 0, {"a": 1.0})
        tree.add_node(2, 1, {"a": 1.0})
        records = tree.remove_branch(1)
        assert [r[0] for r in records] == [1, 2]
        assert len(tree) == 1
        tree.validate()
        # Replay restores the branch.
        first = True
        for node, parent, demand, msgw in records:
            tree.add_node(node, 0 if first else parent, demand, msgw, check=False)
            first = False
        assert len(tree) == 3
        tree.validate()


class TestAggregationFunnels:
    def test_sum_tree_root_sends_one_value(self):
        agg = {"a": AggregationSpec(AggregationKind.SUM)}
        tree = make_tree(attrs=("a",), aggregation=agg)
        tree.add_node(0, None, {"a": 1.0})
        for i in range(1, 5):
            tree.add_node(i, 0, {"a": 1.0})
        assert tree.outgoing_values(0) == pytest.approx(1.0)
        tree.validate()

    def test_topk_caps_outgoing(self):
        agg = {"a": AggregationSpec(AggregationKind.TOP_K, k=2)}
        tree = make_tree(attrs=("a",), aggregation=agg)
        tree.add_node(0, None, {"a": 1.0})
        for i in range(1, 6):
            tree.add_node(i, 0, {"a": 1.0})
        assert tree.outgoing_values(0) == pytest.approx(2.0)
        tree.validate()

    def test_mixed_holistic_and_sum(self):
        agg = {"s": AggregationSpec(AggregationKind.SUM)}
        tree = make_tree(attrs=("s", "h"), aggregation=agg)
        tree.add_node(0, None, {"s": 1.0, "h": 1.0})
        tree.add_node(1, 0, {"s": 1.0, "h": 1.0})
        tree.add_node(2, 0, {"s": 1.0, "h": 1.0})
        # s funnels to 1, h stays holistic at 3.
        assert tree.outgoing_values(0) == pytest.approx(4.0)
        tree.validate()

    def test_aggregation_lets_bigger_trees_fit(self):
        caps = {i: 12.0 for i in range(20)}
        plain = make_tree(dict(caps), attrs=("a",))
        agg_tree = make_tree(
            dict(caps), attrs=("a",), aggregation={"a": AggregationSpec(AggregationKind.MAX)}
        )
        for tree in (plain, agg_tree):
            tree.add_node(0, None, {"a": 1.0})
            added = 1
            for i in range(1, 20):
                if tree.add_node(i, added - 1 if i >= len(tree) else 0, {"a": 1.0}):
                    added += 1
        assert len(agg_tree) > len(plain)


class TestFrequencyWeights:
    def test_fractional_weights_shrink_cost(self):
        tree = make_tree()
        tree.add_node(0, None, {"a": 0.5}, msg_weight=0.5)
        assert tree.send_cost(0) == pytest.approx(0.5 * COST.per_message + 0.5 * COST.per_value)

    def test_relay_message_weight_is_max_of_children(self):
        tree = make_tree()
        tree.add_node(0, None, {"a": 0.25}, msg_weight=0.25)
        tree.add_node(1, 0, {"a": 1.0}, msg_weight=1.0)
        assert tree.message_weight(0) == pytest.approx(1.0)
        tree.validate()


def tamper_fixture(aggregated):
    """Root 0 with children 1 and 2, 3 under 1, and node 4 that joined
    under 3 and left; on the aggregated variant ``s`` is a SUM funnel
    and ``h`` stays holistic."""
    agg = {"s": AggregationSpec(AggregationKind.SUM)} if aggregated else None
    tree = make_tree(attrs=("s", "h"), aggregation=agg)
    tree.add_node(0, None, {"s": 1.0, "h": 1.0})
    for node, parent in ((1, 0), (2, 0), (3, 1), (4, 3)):
        assert tree.add_node(node, parent, {"s": 1.0, "h": 1.0})
    tree.remove_branch(4)
    tree.validate()
    return tree


def _bump(table, key, by):
    table[key] += by


def _misfile_child(tree):
    # Node 3 listed under 2 while its parent pointer still names 1.
    tree._children[1].discard(3)
    tree._children[2].add(3)


#: One corruption per cache ``validate`` must hold against the truth.
TAMPERS = {
    "_send": lambda t: _bump(t._send, 3, 0.5),
    "_recv": lambda t: _bump(t._recv, 1, 0.5),
    "_total": lambda t: _bump(t._total, 1, 0.5),
    "_msgw": lambda t: _bump(t._msgw, 3, -0.5),
    "_msgw_count": lambda t: _bump(t._msgw_count, 0, 1),
    "_depth": lambda t: _bump(t._depth, 3, 1),
    "mirror": _misfile_child,
    "_cap": lambda t: _bump(t._cap, 2, -50.0),
    "_pair_count": lambda t: setattr(t, "_pair_count", t._pair_count + 1),
}

#: What only an aggregated tree caches, per attribute.
AGG_TAMPERS = {
    "_in": lambda t: _bump(t._in[1], "h", 0.5),
    "_in_count": lambda t: _bump(t._in_count[1], "s", 1),
    "_out": lambda t: _bump(t._out[1], "h", 0.5),
}


class TestValidation:
    @pytest.mark.parametrize(
        "aggregated, target",
        [pytest.param(False, name, id=f"plain-{name}") for name in TAMPERS]
        + [
            pytest.param(True, name, id=f"aggregated-{name}")
            for name in (*TAMPERS, *AGG_TAMPERS)
        ],
    )
    def test_validate_catches_every_tampered_cache(self, aggregated, target):
        tree = tamper_fixture(aggregated)
        {**TAMPERS, **AGG_TAMPERS}[target](tree)
        with pytest.raises(TreeInvariantError):
            tree.validate()

    def test_validate_catches_tampered_send(self):
        tree = chain_tree(3)
        tree._send[1] += 1.0
        with pytest.raises(TreeInvariantError):
            tree.validate()

    def test_validate_catches_capacity_violation(self):
        tree = chain_tree(3)
        tree.capacities = {i: 0.1 for i in range(10)}
        with pytest.raises(TreeInvariantError):
            tree.validate()

    def test_empty_tree_validates(self):
        make_tree().validate()


def planned_trees(n, seed):
    """The trees of a REMO plan for a sampled ``n``-node workload."""
    cluster, _cost, tasks = sampled_workload(nodes=n, tasks=n, seed=seed)
    plan, _ = RemoPlanner(CostModel(per_message=20.0, per_value=1.0)).plan_with_stats(
        tasks, cluster
    )
    return [r.tree for r in plan.trees.values()]


class TestPlannedTrees:
    def test_maintained_tables_survive_restructuring(self):
        """A branch move and a local update on a planned tree, then the
        recompute oracle cross-checks every maintained table."""
        tree = max(planned_trees(30, seed=3), key=len)
        leaf = max(tree.nodes, key=tree.depth)
        targets = sorted(set(tree.nodes) - {leaf, tree.parent(leaf)})
        assert any(tree.move_branch(leaf, target) for target in targets)
        tree.validate()
        assert tree.update_local(leaf, {})
        tree.validate()

    def test_viable_parent_arrays_matches_per_node_accessors(self):
        trees = [tree for tree in planned_trees(40, seed=1) if len(tree) >= 2]
        assert trees, "expected at least one populated tree"
        for tree in trees:
            for bar in (0.0, 5.0, 50.0):
                nodes, depths, avail = tree.viable_parent_arrays(bar)
                assert nodes == tree.viable_parents(bar)
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
