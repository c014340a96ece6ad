"""Unit tests for the adjusting procedure and its Section 5.1 optimizations."""

import math
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cost import CostModel
from repro.obs import names
from repro.obs.metrics import default_registry
from repro.trees.adaptive import AdaptiveTreeBuilder
from repro.trees.adjust import TreeAdjuster
from repro.trees.base import TreeBuildRequest
from repro.trees.model import MonitoringTree
from tests.conftest import move_unchecked

COST = CostModel(per_message=2.0, per_value=1.0)


def star_tree(n_children, capacity_root, capacity_leaf=100.0):
    caps = {0: capacity_root}
    caps.update({i: capacity_leaf for i in range(1, n_children + 1)})
    tree = MonitoringTree(("a",), COST, caps, central_capacity=math.inf)
    tree.add_node(0, None, {"a": 1.0})
    for i in range(1, n_children + 1):
        assert tree.add_node(i, 0, {"a": 1.0}), f"failed to attach {i}"
    return tree


@pytest.mark.parametrize(
    "branch_based,subtree_only",
    [(False, False), (True, False), (False, True), (True, True)],
)
class TestRelieve:
    def test_relieve_frees_overhead_at_congested_node(self, branch_based, subtree_only):
        # Root with 4 children at exactly its capacity; relieving must
        # reduce its branch count by one (freeing C).
        tree = star_tree(4, capacity_root=sum(COST.message_cost(1) for _ in range(4)) + COST.message_cost(5))
        used_before = tree.used(0)
        degree_before = tree.degree(0)
        adjuster = TreeAdjuster(branch_based=branch_based, subtree_only=subtree_only)
        relieved = adjuster.relieve(tree, [0], failed_cost=COST.message_cost(1))
        assert relieved
        assert tree.degree(0) == degree_before - 1
        assert tree.used(0) < used_before
        tree.validate()

    def test_relieve_preserves_node_set(self, branch_based, subtree_only):
        tree = star_tree(5, capacity_root=1000.0)
        nodes_before = set(tree.nodes)
        adjuster = TreeAdjuster(branch_based=branch_based, subtree_only=subtree_only)
        adjuster.relieve(tree, [0], failed_cost=3.0)
        assert set(tree.nodes) == nodes_before
        tree.validate()

    def test_relieve_fails_when_everyone_is_full(self, branch_based, subtree_only):
        # Leaves have just enough to send their own message, nothing more.
        tree = star_tree(3, capacity_root=1000.0, capacity_leaf=COST.message_cost(1))
        adjuster = TreeAdjuster(branch_based=branch_based, subtree_only=subtree_only)
        assert not adjuster.relieve(tree, [0], failed_cost=3.0)
        tree.validate()

    def test_relieve_ignores_nodes_not_in_tree(self, branch_based, subtree_only):
        tree = star_tree(3, capacity_root=1000.0)
        adjuster = TreeAdjuster(branch_based=branch_based, subtree_only=subtree_only)
        # Congested list holds an unknown node: nothing to do.
        result = adjuster.relieve(tree, [777], failed_cost=3.0)
        assert result in (True, False)
        tree.validate()


class TestOptimizationEquivalence:
    def test_all_variants_grow_comparable_trees(self):
        """Optimized adjusting must not cost more than ~2% coverage
        (the paper reports < 2% penalty)."""
        results = {}
        for branch_based, subtree_only in [(False, False), (True, True)]:
            builder = AdaptiveTreeBuilder(
                COST,
                adjuster=TreeAdjuster(branch_based=branch_based, subtree_only=subtree_only),
            )
            req = TreeBuildRequest(
                attributes=frozenset({"a"}),
                demands={i: {"a": 1.0} for i in range(60)},
                capacities={i: 16.0 for i in range(60)},
                central_capacity=500.0,
            )
            results[(branch_based, subtree_only)] = len(builder.build(req).tree)
        basic = results[(False, False)]
        optimized = results[(True, True)]
        assert optimized >= basic * 0.9

    def test_probe_count_lower_with_subtree_only(self):
        def probes(subtree_only):
            adjuster = TreeAdjuster(branch_based=True, subtree_only=subtree_only)
            builder = AdaptiveTreeBuilder(COST, adjuster=adjuster)
            req = TreeBuildRequest(
                attributes=frozenset({"a"}),
                demands={i: {"a": 1.0} for i in range(60)},
                capacities={i: 16.0 for i in range(60)},
                central_capacity=500.0,
            )
            builder.build(req)
            return adjuster.probe_count

        assert probes(True) <= probes(False)


class TestPhaseTiming:
    def test_a_build_reports_each_phase_once_and_they_add_up(self):
        """``adjustment`` used to be observed per ``relieve`` call and
        counted a second time inside ``tree_construction``."""

        def phases():
            registry = default_registry()
            return {
                phase: registry.histogram(names.PLANNER_PHASE_SECONDS, phase=phase)
                for phase in ("tree_construction", "adjustment")
            }

        before = {phase: (h.count, h.sum) for phase, h in phases().items()}
        builder = AdaptiveTreeBuilder(COST)
        req = TreeBuildRequest(
            attributes=frozenset({"a"}),
            demands={i: {"a": 1.0} for i in range(60)},
            capacities={i: 16.0 for i in range(60)},
            central_capacity=500.0,
        )
        started = time.perf_counter()
        builder.build(req)
        elapsed = time.perf_counter() - started
        spent = {
            phase: (h.count - before[phase][0], h.sum - before[phase][1])
            for phase, h in phases().items()
        }
        assert spent["tree_construction"][0] == 1
        assert spent["adjustment"][0] == 1
        assert spent["adjustment"][1] == pytest.approx(builder.adjuster.seconds)
        assert 0.0 < spent["adjustment"][1] < elapsed
        assert 0.0 < spent["tree_construction"][1]
        assert spent["tree_construction"][1] + spent["adjustment"][1] <= elapsed


class TestBasicReattachRollback:
    def test_rollback_restores_original_shape(self):
        # Root at capacity; leaves too tight to host anything, so the
        # per-node reattach must fail and restore the branch.
        tree = star_tree(3, capacity_root=1000.0, capacity_leaf=COST.message_cost(1))
        edges_before = tree.edges()
        adjuster = TreeAdjuster(branch_based=False, subtree_only=False)
        assert not adjuster.relieve(tree, [0], failed_cost=3.0)
        assert tree.edges() == edges_before
        tree.validate()


class TestRelieveOrderIndependence:
    """``relieve`` must not depend on the order (or container type) its
    congested nodes arrive in: equal-depth ties break on node id."""

    # Ids 1 and 9 collide in a small CPython set, so {1, 9} and {9, 1}
    # iterate in insertion order -- a depth-only sort key keeps that
    # order and relieves whichever node the caller listed first.
    A, B = 1, 9

    def _two_hub_tree(self):
        caps = {n: 1000.0 for n in (0, self.A, self.B, 20, 21, 30, 31)}
        tree = MonitoringTree(("a",), COST, caps, central_capacity=math.inf)
        tree.add_node(0, None, {"a": 1.0})
        for hub, leaves in ((self.A, (20, 21)), (self.B, (30, 31))):
            assert tree.add_node(hub, 0, {"a": 1.0})
            for leaf in leaves:
                assert tree.add_node(leaf, hub, {"a": 1.0})
        return tree

    def test_same_edges_for_every_order_and_container(self):
        a, b = self.A, self.B
        outcomes = []
        for congested in ([a, b], [b, a], {a, b}, {b, a}, (b, a), [b, a, b, 777]):
            tree = self._two_hub_tree()
            assert TreeAdjuster().relieve(tree, congested, failed_cost=COST.message_cost(1))
            tree.validate()
            outcomes.append(tree.edges())
        assert all(edges == outcomes[0] for edges in outcomes)
        # The lower id among the equal-depth hubs is the one relieved.
        assert tree.degree(a) == 1 and tree.degree(b) == 2

    def test_shuffled_membership_on_a_built_tree(self):
        import random

        request = TreeBuildRequest(
            attributes=frozenset({"a", "b"}),
            demands={n: {"a": 1.0, "b": 1.0} for n in range(40)},
            capacities={n: 30.0 for n in range(40)},
            central_capacity=60.0,
        )
        cost = CostModel(per_message=4.0, per_value=1.0)
        reference = None
        for seed in range(6):
            tree = AdaptiveTreeBuilder(cost).build(request).tree
            congested = tree.nodes
            random.Random(seed).shuffle(congested)
            TreeAdjuster().relieve(tree, congested if seed % 2 else set(congested), 6.0)
            tree.validate()
            if reference is None:
                reference = tree.edges()
            assert tree.edges() == reference


class TestPrunedBranchOrderIndependence:
    """Equal-send siblings of a congested node are pruned in node-id
    order, whatever order they joined in."""

    # 1 and 9 collide in a small CPython set, which then iterates them
    # in insertion order; a send-cost-only sort key keeps that order.
    A, B = 1, 9

    def _root_with_two_leaves(self, joined):
        tree = MonitoringTree(("a",), COST, {n: 1000.0 for n in (0, *joined)})
        tree.add_node(0, None, {"a": 1.0})
        for leaf in joined:
            assert tree.add_node(leaf, 0, {"a": 1.0})
        assert tree.send_cost(self.A) == tree.send_cost(self.B)
        return tree

    @pytest.mark.parametrize("branch_based", [True, False])
    def test_same_move_for_every_join_order(self, branch_based):
        outcomes = []
        for joined in ((self.A, self.B), (self.B, self.A)):
            tree = self._root_with_two_leaves(joined)
            adjuster = TreeAdjuster(branch_based=branch_based)
            assert adjuster.relieve(tree, [0], failed_cost=COST.message_cost(1))
            tree.validate()
            outcomes.append(tree.edges())
        assert outcomes[0] == outcomes[1]
        # The lower id is the branch pruned and re-attached.
        assert (self.A, self.B) in outcomes[0]


#: Dyadic throughout, so every cost and capacity comparison is exact.
HALVES = st.integers(min_value=2, max_value=80).map(lambda k: k / 2)
WEIGHTS = st.sampled_from((0.25, 0.5, 1.0))
MSG_WEIGHTS = st.sampled_from((0.5, 1.0))
DEMANDS = st.sampled_from((("a",), ("b",), ("a", "b"))).flatmap(
    lambda attrs: st.fixed_dictionaries({a: WEIGHTS for a in attrs})
)


@st.composite
def funnel_free_trees(draw):
    """A randomly grown funnel-free tree and a prepared newcomer whose
    own slice and central slice sit near what it needs, so that both
    refusals the gate answers are common."""
    cost = CostModel(
        per_message=draw(st.sampled_from((1.0, 2.0, 4.0))),
        per_value=draw(st.sampled_from((0.5, 1.0, 2.0))),
    )
    n = draw(st.integers(min_value=2, max_value=8))
    capacities = {node: draw(HALVES) for node in range(n)}
    tree = MonitoringTree(("a", "b"), cost, capacities)
    for node in range(n):
        parent = draw(st.sampled_from(tree.nodes)) if len(tree) else None
        # A refused attach just leaves the node out.
        tree.add_node(node, parent, draw(DEMANDS), draw(MSG_WEIGHTS))
    demand, msg_weight = draw(DEMANDS), draw(MSG_WEIGHTS)
    slack = st.integers(min_value=-2, max_value=12).map(lambda k: k / 2)
    own_send = cost.weighted_message_cost(msg_weight, sum(demand.values()))
    capacities[n] = own_send + draw(slack)
    tree.central_capacity = tree.central_used() + max(0.0, draw(slack))
    return tree, tree.prepare_leaf(n, demand, msg_weight)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(funnel_free_trees())
def test_out_of_reach_leaves_stay_out_of_reach_after_any_branch_move(case):
    """The gate's soundness: when ``out_of_reach`` says no restructuring
    can admit the leaf, no member can host it, and none can after any
    feasible single branch move either."""
    tree, leaf = case
    if len(tree) == 0 or not tree.out_of_reach(leaf):
        return
    members = tree.nodes

    def hosts():
        return [p for p in members if tree.leaf_fits(leaf, p)]

    assert hosts() == []
    for branch in members:
        old_parent = tree.parent(branch)
        if old_parent is None:
            continue
        inside = set(tree.subtree_nodes(branch))
        for target in members:
            if target in inside or target == old_parent or not tree.move_branch(branch, target):
                continue
            assert hosts() == [], (branch, target)
            move_unchecked(tree, branch, old_parent)


class TestOutOfReachGate:
    def _star(self, root_capacity, central=math.inf, newcomer_capacity=100.0):
        caps = {0: root_capacity, 1: 100.0, 2: 100.0, 3: newcomer_capacity}
        tree = MonitoringTree(("a",), COST, caps, central_capacity=central)
        tree.add_node(0, None, {"a": 1.0})
        for leaf in (1, 2):
            assert tree.add_node(leaf, 0, {"a": 1.0})
        request = TreeBuildRequest(
            attributes=frozenset({"a"}),
            demands={n: {"a": 1.0} for n in caps},
            capacities=caps,
            central_capacity=central,
        )
        return tree, request

    def test_a_root_capacity_refusal_is_relieved_and_the_node_joins(self):
        # The root uses 5 + 6 of 12.5; node 3 needs 13 there at best.  Moving
        # leaf 1 under leaf 2 takes one message's C off the root's
        # receive side, and then node 3 fits below it.
        tree, request = self._star(root_capacity=12.5)
        leaf = tree.prepare_leaf(3, {"a": 1.0}, 1.0)
        assert tree.refuses(leaf) and not tree.out_of_reach(leaf)
        builder = AdaptiveTreeBuilder(COST)
        assert builder._insert(tree, request, 3)
        assert 3 in tree and tree.parent(1) == 2
        tree.validate()

    @pytest.mark.parametrize(
        "central,newcomer_capacity",
        [(math.inf, 2.5), (5.5, 100.0)],
        ids=["own-slice", "central-slice"],
    )
    def test_an_out_of_reach_node_is_excluded_without_adjusting(self, central, newcomer_capacity):
        tree, request = self._star(1000.0, central, newcomer_capacity)
        assert tree.out_of_reach(tree.prepare_leaf(3, {"a": 1.0}, 1.0))
        calls = []

        class Recording(AdaptiveTreeBuilder):
            def on_saturated(self, *args):
                calls.append(args)
                return super().on_saturated(*args)

        edges = tree.edges()
        assert not Recording(COST)._insert(tree, request, 3)
        assert calls == [] and tree.edges() == edges


class _ShuffledCongestion(AdaptiveTreeBuilder):
    """Hands the adjuster the same congested membership, reordered."""

    def on_saturated(self, tree, leaf, failed_parents):
        return super().on_saturated(tree, leaf, sorted(failed_parents, reverse=True))


def test_plan_fingerprint_ignores_congested_order():
    # sampled_workload(150, 150, capacity=200, seed=7) is the first input
    # on which the old depth-only tie-break built different trees for
    # different orderings of the same congested membership.
    from repro.core.planner import RemoPlanner
    from repro.workloads.presets import sampled_workload

    cluster, cost, tasks = sampled_workload(nodes=150, tasks=150, capacity=200.0, seed=7)
    default = RemoPlanner(cost).plan(tasks, cluster)
    reordered = RemoPlanner(cost, tree_builder=_ShuffledCongestion(cost)).plan(tasks, cluster)
    assert reordered.fingerprint() == default.fingerprint()
