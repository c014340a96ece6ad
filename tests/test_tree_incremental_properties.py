"""Property tests: incremental tree maintenance matches recomputation.

The tree model maintains incoming/outgoing values, message weights, and
send/receive costs *delta by delta* -- attach, detach, move, and local
update each propagate only their change along the ancestor path, with
early termination once nothing downstream can differ.  These tests
drive random mutation sequences through a :class:`MonitoringTree` and,
after every operation, hold the cached state against the from-scratch
oracle :func:`repro.trees.recompute.recompute_tree` through the tree's
own ``validate()``.  Any bookkeeping drift -- a stale total, a
miscounted message-weight contributor, an early exit taken too
eagerly -- surfaces here.
"""

from __future__ import annotations

import copy

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cost import AggregationKind, AggregationSpec, CostModel
from repro.trees.adaptive import AdaptiveTreeBuilder
from repro.trees.base import TreeBuildRequest
from repro.trees.model import EPSILON, MonitoringTree
from tests.conftest import move_unchecked

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
            tree.update_local(node, demand)
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
        tree.validate()


# ----------------------------------------------------------------------
# The scalar walk of a funnel-free tree against the per-attribute walk
# ----------------------------------------------------------------------
# A funnel-free tree keeps no per-attribute state and walks three
# scalars; a tree with any funnel keeps the tables and re-funnels every
# changed attribute at every hop.  The oracle is a *twin*: the same
# tree given a funnel on an attribute no node ever demands, so it takes
# the per-attribute step with identity funnels on everything it
# carries.  Dyadic weights, costs and capacities keep every sum exact
# in binary floating point, so the twins must agree *exactly*, knife
# edges included (the per-attribute walk re-derives the payload
# attribute by attribute; with arbitrary floats the two can differ in
# the last bit).
_DYADIC_WEIGHTS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
_DYADIC_MSGW = (0.25, 0.5, 1.0, 1.0, 1.0)
_GHOST = "ghost"


@st.composite
def twin_runs(draw):
    """Dyadic cost model and slices for a pair of twins, an op count
    and the rng that scripts the ops."""
    rnd = draw(st.randoms(use_true_random=False))
    cost = CostModel(
        per_message=draw(st.sampled_from((0.5, 1.0, 2.0, 4.0, 8.0))),
        per_value=draw(st.sampled_from((0.25, 0.5, 1.0, 2.0))),
    )
    n_nodes = draw(st.integers(min_value=4, max_value=16))
    capacities = {
        node: draw(st.integers(min_value=8, max_value=160)) / 4.0 for node in range(n_nodes)
    }
    central = draw(st.integers(min_value=40, max_value=400)) / 4.0
    return rnd, cost, capacities, central, draw(st.integers(min_value=8, max_value=40))


def _dyadic_demand(rnd):
    attrs = rnd.sample(ATTRS, rnd.randint(1, len(ATTRS)))
    return {a: rnd.choice(_DYADIC_WEIGHTS) for a in attrs}


def _overloaded(tree):
    """Ground truth: does any member or the collector exceed its slice?"""
    return tree.central_used() > tree.central_capacity + EPSILON or any(
        tree.used(n) > tree.capacities[n] + EPSILON for n in tree.nodes
    )


def _would_overload(tree, mutate):
    trial = copy.deepcopy(tree)
    mutate(trial)
    return _overloaded(trial)


def _state(tree):
    return {
        n: (
            tree.parent(n),
            tree.send_cost(n),
            tree.recv_cost(n),
            tree.outgoing_values(n),
            tree.message_weight(n),
        )
        for n in tree.nodes
    }


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(twin_runs())
def test_scalar_probe_agrees_with_general_walk(run):
    rnd, cost, capacities, central, n_ops = run
    scalar = MonitoringTree(ATTRS, cost, capacities, central_capacity=central)
    general = MonitoringTree(
        ATTRS + (_GHOST,),
        cost,
        capacities,
        central_capacity=central,
        aggregation={_GHOST: AggregationSpec(kind=AggregationKind.SUM)},
    )
    assert not scalar.has_aggregation() and general.has_aggregation()
    twins = (scalar, general)

    def both(call):
        """One operation on both twins: same answer, and where a
        feasibility walk ran, the same failing node and flag."""
        first, second = call(scalar), call(general)
        assert first == second
        assert scalar.last_attach_failure() == general.last_attach_failure()
        return first

    next_node = 0
    for _ in range(n_ops):
        members = scalar.nodes
        movable = [n for n in members if scalar.parent(n) is not None]
        op = rnd.choice(("add", "add", "add", "update", "move", "move", "remove"))
        checked = rnd.random() < 0.7
        if op == "add" or not members:
            if next_node >= len(capacities):
                continue
            node, parent = next_node, rnd.choice(members) if members else None
            # Sometimes a pure relay: no values, only a message weight.
            demand = {} if rnd.random() < 0.15 else _dyadic_demand(rnd)
            msgw = rnd.choice(_DYADIC_MSGW)
            fits = both(lambda t: t.leaf_fits(t.prepare_leaf(node, demand, msgw), parent))
            # The probe agrees with actually doing it.
            assert fits == (
                cost.weighted_message_cost(msgw, sum(demand.values()))
                <= capacities[node] + EPSILON
                and not _would_overload(
                    scalar, lambda t: t.add_node(node, parent, demand, msgw, check=False)
                )
            )
            if checked:
                assert both(lambda t: t.add_node(node, parent, demand, msgw)) == fits
            elif fits:
                both(lambda t: t.add_node(node, parent, demand, msgw, check=False))
            next_node += fits
        elif op == "update":
            node = rnd.choice(members)
            before = scalar.local_demand(node)
            demand = {} if rnd.random() < 0.2 else _dyadic_demand(rnd)
            both(lambda t: t.update_local(node, demand, check=checked))
            if _overloaded(scalar):
                # Only an unchecked update can get here; undo it the
                # same way (DIRECT-APPLY strips pairs unchecked too).
                assert not checked
                both(lambda t: t.update_local(node, before, check=False))
        elif op == "move" and movable:
            branch = rnd.choice(movable)
            inside = set(scalar.subtree_nodes(branch))
            hosts = [n for n in members if n not in inside]
            target = rnd.choice(hosts)
            fits = both(lambda t: t.can_move_branch(branch, target))
            assert fits == (
                not _would_overload(scalar, lambda t: move_unchecked(t, branch, target))
            )
            assert both(lambda t: t.move_branch(branch, target)) == fits
        elif op == "remove" and movable:
            branch = rnd.choice(movable)
            both(lambda t: t.remove_branch(branch))
        assert _state(scalar) == _state(general)
        for tree in twins:
            if len(tree) > 0:
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
                assert not tree.leaf_fits(leaf, parent)
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
        fast.tree.validate()
