"""Property tests: incremental tree maintenance matches recomputation.

The tree model maintains incoming/outgoing values, message weights, and
send/receive costs *delta by delta* -- attach, detach, move, and local
update each propagate only their change along the ancestor path, with
early termination once nothing downstream can differ.  These tests
drive random mutation sequences through a :class:`MonitoringTree` and,
after every operation, compare the cached state against the from-scratch
oracle in :mod:`repro.checks.recompute` and the tree's own
``validate()`` invariants.  Any bookkeeping drift -- a stale ``_in``
residue, a miscounted message-weight contributor, an early exit taken
too eagerly -- surfaces here.
"""

from __future__ import annotations

import copy

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checks import assert_tree_matches_recompute
from repro.core.cost import AggregationKind, AggregationSpec, CostModel
from repro.trees.adaptive import AdaptiveTreeBuilder
from repro.trees.base import TreeBuildRequest
from repro.trees.model import _CHILD_ATTACHED, EPSILON, MonitoringTree

ATTRS = ("cpu", "mem", "net", "disk", "io")

#: Funnel mix exercised by the aggregation-aware runs: a saturating
#: funnel, a TOP_K cap, and one holistic attribute (identity).
AGG_MAP = {
    "cpu": AggregationSpec(kind=AggregationKind.SUM),
    "mem": AggregationSpec(kind=AggregationKind.TOP_K, k=2),
}


@st.composite
def mutation_runs(draw):
    """A random (cost, capacities, aggregation, op-script) quadruple."""
    rnd = draw(st.randoms(use_true_random=False))
    per_message = draw(st.floats(min_value=0.5, max_value=20.0))
    per_value = draw(st.floats(min_value=0.1, max_value=3.0))
    cost = CostModel(per_message=per_message, per_value=per_value)

    n_nodes = draw(st.integers(min_value=3, max_value=14))
    # Tight capacities exercise the rejection/early-exit paths; loose
    # ones let deep structures form so long delta walks happen.
    tight = draw(st.booleans())
    capacities = {
        node: (
            draw(st.floats(min_value=40.0, max_value=160.0)) if tight else 1e9
        )
        for node in range(n_nodes)
    }
    central = draw(st.floats(min_value=50.0, max_value=500.0)) if tight else 1e9
    aggregation = AGG_MAP if draw(st.booleans()) else None
    n_ops = draw(st.integers(min_value=5, max_value=30))
    return rnd, cost, capacities, central, aggregation, n_ops


def _random_demand(rnd):
    attrs = rnd.sample(ATTRS, rnd.randint(1, len(ATTRS)))
    return {a: rnd.uniform(0.1, 3.0) for a in attrs}


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(mutation_runs())
def test_incremental_state_matches_recompute_oracle(run):
    rnd, cost, capacities, central, aggregation, n_ops = run
    tree = MonitoringTree(
        attributes=ATTRS,
        cost_model=cost,
        capacities=capacities,
        central_capacity=central,
        aggregation=aggregation,
    )
    next_node = 0
    for _ in range(n_ops):
        members = tree.nodes
        op = rnd.choice(("add", "add", "add", "update", "move", "remove"))
        if op == "add" or not members:
            if next_node >= len(capacities):
                continue
            parent = rnd.choice(members) if members else None
            tree.add_node(
                next_node, parent, _random_demand(rnd), rnd.uniform(0.5, 2.0)
            )
            next_node += 1
        elif op == "update":
            node = rnd.choice(members)
            # Occasionally clear the demand entirely (pure relay).
            demand = {} if rnd.random() < 0.2 else _random_demand(rnd)
            tree.update_local(node, demand, rnd.uniform(0.5, 2.0))
        elif op == "move" and len(members) >= 3:
            branch = rnd.choice([n for n in members if tree.parent(n) is not None])
            in_branch = set(tree.subtree_nodes(branch))
            hosts = [n for n in members if n not in in_branch]
            if hosts:
                tree.move_branch(branch, rnd.choice(hosts))
        elif op == "remove" and len(members) >= 2:
            branch = rnd.choice([n for n in members if tree.parent(n) is not None])
            tree.remove_branch(branch)
        # Whether the operation committed or was refused on capacity
        # grounds, the cached state must match a from-scratch pass.
        if len(tree) > 0:
            assert_tree_matches_recompute(tree)
            tree.validate()


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(mutation_runs())
def test_readonly_probes_leave_no_trace(run):
    """can_add_node / can_move_branch simulations must not mutate."""
    rnd, cost, capacities, central, aggregation, n_ops = run
    tree = MonitoringTree(
        attributes=ATTRS,
        cost_model=cost,
        capacities=capacities,
        central_capacity=central,
        aggregation=aggregation,
    )
    next_node = 0
    for _ in range(n_ops):
        members = tree.nodes
        if not members or (rnd.random() < 0.6 and next_node < len(capacities)):
            parent = rnd.choice(members) if members else None
            tree.add_node(
                next_node, parent, _random_demand(rnd), rnd.uniform(0.5, 2.0)
            )
            next_node += 1
            continue
        # Fire read-only probes, including infeasible ones, then check
        # the overlay simulation left the real tables untouched.
        if next_node < len(capacities):
            tree.can_add_node(next_node, rnd.choice(members), _random_demand(rnd))
        movable = [n for n in members if tree.parent(n) is not None]
        if movable:
            branch = rnd.choice(movable)
            target = rnd.choice(members)
            if branch != target:
                tree.can_move_branch(branch, target)
        assert_tree_matches_recompute(tree)
        tree.validate()


# ----------------------------------------------------------------------
# The funnel-free scalar probe against the general walk
# ----------------------------------------------------------------------
# Dyadic weights, costs and capacities keep every sum exact in binary
# floating point, so the two walks must agree *exactly*, knife edges
# included (the general walk re-derives the payload attribute by
# attribute; with arbitrary floats the two can differ in the last bit).
_DYADIC_WEIGHTS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
_DYADIC_MSGW = (0.25, 0.5, 1.0, 1.0, 1.0)


@st.composite
def funnel_free_trees(draw):
    """A random funnel-free tree with fractional value weights and
    non-unit message weights, plus the rng that built it."""
    rnd = draw(st.randoms(use_true_random=False))
    cost = CostModel(
        per_message=draw(st.sampled_from((0.5, 1.0, 2.0, 4.0, 8.0))),
        per_value=draw(st.sampled_from((0.25, 0.5, 1.0, 2.0))),
    )
    n_nodes = draw(st.integers(min_value=4, max_value=16))
    capacities = {
        node: draw(st.integers(min_value=8, max_value=160)) / 4.0 for node in range(n_nodes + 1)
    }
    central = draw(st.integers(min_value=40, max_value=400)) / 4.0
    tree = MonitoringTree(ATTRS, cost, capacities, central_capacity=central)
    for node in range(n_nodes):
        members = tree.nodes
        tree.add_node(
            node,
            rnd.choice(members) if members else None,
            _dyadic_demand(rnd),
            rnd.choice(_DYADIC_MSGW),
        )
    return rnd, tree, n_nodes


def _dyadic_demand(rnd):
    attrs = rnd.sample(ATTRS, rnd.randint(1, len(ATTRS)))
    return {a: rnd.choice(_DYADIC_WEIGHTS) for a in attrs}


def _general_attach_probe(tree, start, content, send):
    """The attach probe as ``_propagate_delta(check=True)`` answers it."""
    ok = tree._propagate_delta(
        start,
        None,
        {a: (0.0, w) for a, w in content.values.items()},
        0.0,
        content.msg_weight,
        0.0,
        send,
        _CHILD_ATTACHED,
        check=True,
    )
    return (ok, *tree.last_attach_failure())


def _scalar_attach_probe(tree, start, content, total, send):
    ok = tree._attach_fits(start, content, total, send)
    return (ok, *tree.last_attach_failure())


def _overloaded(tree):
    """Ground truth: does any member or the collector exceed its slice?"""
    return tree.central_used() > tree.central_capacity + EPSILON or any(
        tree.used(n) > tree.capacities[n] + EPSILON for n in tree.nodes
    )


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(funnel_free_trees())
def test_scalar_probe_agrees_with_general_walk(built):
    rnd, tree, new_node = built
    if len(tree) == 0:
        return
    assert not tree.has_aggregation()
    # Attaches: a fresh leaf (sometimes a pure relay) under every member.
    for _ in range(3):
        demand = {} if rnd.random() < 0.15 else _dyadic_demand(rnd)
        leaf = tree.prepare_leaf(new_node, demand, rnd.choice(_DYADIC_MSGW))
        for parent in tree.nodes:
            scalar = _scalar_attach_probe(tree, parent, leaf.content, leaf.total, leaf.send)
            assert scalar == _general_attach_probe(tree, parent, leaf.content, leaf.send)
            # ... and both agree with actually doing it.
            trial = copy.deepcopy(tree)
            trial.add_node(new_node, parent, demand, leaf.content.msg_weight, check=False)
            own = leaf.send > tree.capacities[new_node] + EPSILON
            assert tree.leaf_fits(leaf, parent) == (not own and not _overloaded(trial))
    # Moves: the pessimistic pass of every (branch, target) pair, and the
    # whole probe against the committed move.
    for branch in tree.nodes:
        if tree.parent(branch) is None:
            continue
        inside = set(tree.subtree_nodes(branch))
        content = tree._out[branch]
        total = tree.outgoing_values(branch)
        send = tree.send_cost(branch)
        for target in tree.nodes:
            if target in inside or target == tree.parent(branch):
                continue
            scalar = _scalar_attach_probe(tree, target, content, total, send)
            assert scalar == _general_attach_probe(tree, target, content, send)
            trial = copy.deepcopy(tree)
            trial.move_branch(branch, target, check=False)
            assert tree.can_move_branch(branch, target) == (not _overloaded(trial))
    assert_tree_matches_recompute(tree)
    tree.validate()


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(mutation_runs())
def test_root_refusal_implies_no_member_can_host(run):
    """Arbitrary floats here: the refusal must stay sound under the
    probes' own rounding, not only on exactly representable inputs."""
    rnd, cost, capacities, central, _aggregation, n_ops = run
    tree = MonitoringTree(ATTRS, cost, capacities, central_capacity=central)
    next_node = 0
    for _ in range(n_ops):
        if next_node >= len(capacities):
            break
        members = tree.nodes
        demand, msgw = _random_demand(rnd), rnd.uniform(0.5, 2.0)
        leaf = tree.prepare_leaf(next_node, demand, msgw)
        if members and tree.refuses(leaf):
            for parent in members:
                assert not tree.can_add_node(next_node, parent, demand, msgw)
        else:
            tree.add_node(next_node, rnd.choice(members) if members else None, demand, msgw)
        next_node += 1


class _NoShortcut(AdaptiveTreeBuilder):
    """The insertion loop with the root-refusal short-circuit disabled
    (only the leaf's own slice can refuse): every candidate is ranked
    and probed before the adjuster runs."""

    def _insert(self, tree, request, node):
        tree.refuses = lambda leaf: leaf.send > request.capacities[leaf.node] + EPSILON
        return super()._insert(tree, request, node)


@st.composite
def saturating_requests(draw):
    n_nodes = draw(st.integers(min_value=6, max_value=40))
    attrs = ATTRS[: draw(st.integers(min_value=1, max_value=len(ATTRS)))]
    rnd = draw(st.randoms(use_true_random=False))
    demands = {
        n: {a: rnd.choice((0.5, 1.0, 1.0)) for a in rnd.sample(attrs, rnd.randint(1, len(attrs)))}
        for n in range(n_nodes)
    }
    request = TreeBuildRequest(
        attributes=frozenset(attrs),
        demands=demands,
        capacities={n: draw(st.floats(min_value=6.0, max_value=60.0)) for n in range(n_nodes)},
        central_capacity=draw(st.floats(min_value=10.0, max_value=80.0)),
        msg_weights=(
            {n: rnd.choice((0.5, 1.0)) for n in range(n_nodes)} if draw(st.booleans()) else None
        ),
    )
    cost = CostModel(
        per_message=draw(st.floats(min_value=1.0, max_value=8.0)),
        per_value=draw(st.floats(min_value=0.25, max_value=2.0)),
    )
    return cost, request


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(saturating_requests())
def test_refused_then_relieved_inserts_match_unshortcut_build(case):
    cost, request = case
    fast = AdaptiveTreeBuilder(cost).build(request)
    slow = _NoShortcut(cost).build(request)
    assert fast.excluded == slow.excluded
    assert fast.tree.edges() == slow.tree.edges()
    if len(fast.tree) > 0:
        assert_tree_matches_recompute(fast.tree)
        fast.tree.validate()
