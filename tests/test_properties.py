"""Property-based tests (hypothesis) on core invariants.

These pin down the structural guarantees everything else rests on:
partitions always remain disjoint covers under merge/split walks,
trees never violate capacity no matter the insertion sequence, funnel
functions are monotone and bounded, the task manager's refcounts never
go negative, and plans never claim pairs they were not asked for.
"""


from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.topology import make_uniform_cluster
from repro.core.cost import AggregationKind, AggregationSpec, CostModel
from repro.core.partition import Partition
from repro.core.tasks import MonitoringTask, MultiTenantTaskManager, TaskManager
from repro.obs.metrics import MetricsRegistry
from repro.serve import ControlPlane
from repro.trees.adaptive import AdaptiveTreeBuilder
from repro.trees.base import TreeBuildRequest
from repro.trees.chain import ChainTreeBuilder
from repro.trees.model import MonitoringTree
from repro.trees.star import StarTreeBuilder

ATTRS = ["a", "b", "c", "d", "e", "f"]

settings.register_profile(
    "repro",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


# ---------------------------------------------------------------------------
# Partition invariants
# ---------------------------------------------------------------------------
@st.composite
def partitions(draw):
    attrs = draw(st.sets(st.sampled_from(ATTRS), min_size=2, max_size=6))
    # Random grouping: assign each attribute a bucket.
    buckets = {}
    for attr in sorted(attrs):
        buckets.setdefault(draw(st.integers(0, len(attrs) - 1)), set()).add(attr)
    return Partition(buckets.values())


@given(partitions(), st.randoms(use_true_random=False))
def test_random_walks_preserve_partition_laws(partition, rnd):
    """Any sequence of merges/splits keeps a disjoint cover of the universe."""
    universe = partition.universe
    current = partition
    for _ in range(8):
        ops = list(current.merge_ops()) + list(current.split_ops())
        if not ops:
            break
        op = rnd.choice(ops)
        current = current.apply(op)
        assert current.universe == universe
        seen = set()
        for s in current.sets:
            assert s, "no empty sets"
            assert not (seen & s), "sets stay disjoint"
            seen |= s


@given(partitions())
def test_merge_then_split_can_restore(partition):
    """Splitting a fresh 2-element merge restores an equivalent partition."""
    singles = [s for s in partition.sets if len(s) == 1]
    if len(singles) < 2:
        return
    left, right = singles[0], singles[1]
    merged = partition.merge(left, right)
    attr = next(iter(left))
    restored = merged.split(left | right, attr)
    assert restored == partition


# ---------------------------------------------------------------------------
# Funnel properties
# ---------------------------------------------------------------------------
@given(
    st.sampled_from(list(AggregationKind)),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=10_000),
)
def test_funnels_bounded_and_monotone(kind, k, incoming):
    spec = AggregationSpec(kind, k=k)
    out = spec.funnel(incoming)
    assert 0 <= out <= incoming
    assert spec.funnel(incoming + 1) >= out


# ---------------------------------------------------------------------------
# Cost model properties
# ---------------------------------------------------------------------------
@given(
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=0.01, max_value=100.0),
    st.integers(min_value=0, max_value=1000),
)
def test_message_cost_affine(c, a, x):
    model = CostModel(c, a)
    assert model.message_cost(x) == c + a * x
    assert model.message_cost(x + 1) > model.message_cost(x)


# ---------------------------------------------------------------------------
# Task manager refcount invariants
# ---------------------------------------------------------------------------
@st.composite
def task_scripts(draw):
    """A random sequence of add/remove/modify operations."""
    n_ops = draw(st.integers(1, 12))
    script = []
    live = set()
    for i in range(n_ops):
        if live and draw(st.booleans()):
            tid = draw(st.sampled_from(sorted(live)))
            if draw(st.booleans()):
                script.append(("remove", tid, None, None))
                live.discard(tid)
            else:
                attrs = draw(st.sets(st.sampled_from(ATTRS), min_size=1, max_size=3))
                nodes = draw(st.sets(st.integers(0, 5), min_size=1, max_size=4))
                script.append(("modify", tid, attrs, nodes))
        else:
            tid = f"t{i}"
            attrs = draw(st.sets(st.sampled_from(ATTRS), min_size=1, max_size=3))
            nodes = draw(st.sets(st.integers(0, 5), min_size=1, max_size=4))
            script.append(("add", tid, attrs, nodes))
            live.add(tid)
    return script


def _union(tasks):
    pairs = set()
    for task in tasks:
        pairs |= task.pairs()
    return pairs


@given(task_scripts())
def test_task_manager_pairs_always_equal_union(script):
    manager = TaskManager()
    for op, tid, attrs, nodes in script:
        before = _union(manager)
        if op == "add":
            delta = manager.add_task(MonitoringTask(tid, attrs, nodes))
        elif op == "remove":
            delta = manager.remove_task(tid)
        else:
            delta = manager.modify_task(MonitoringTask(tid, attrs, nodes))
        expected = _union(manager)
        assert manager.pairs() == expected
        # Each op's delta is exactly the change in the union.
        assert delta.added == expected - before
        assert delta.removed == before - expected


TENANTS = ["t0", "t1", "t2"]


@st.composite
def tenant_scripts(draw):
    """Add/modify/remove ops over a few tenants on a small pair space,
    so the same pair is often held by several tenants at once."""
    script = []
    live = set()
    for i in range(draw(st.integers(1, 16))):
        attrs = draw(st.sets(st.sampled_from(ATTRS[:3]), min_size=1, max_size=2))
        nodes = draw(st.sets(st.integers(0, 3), min_size=1, max_size=3))
        if live and draw(st.booleans()):
            tenant, tid = draw(st.sampled_from(sorted(live)))
            if draw(st.booleans()):
                script.append(("remove", tenant, tid, None, None))
                live.discard((tenant, tid))
            else:
                script.append(("modify", tenant, tid, attrs, nodes))
        else:
            tenant = draw(st.sampled_from(TENANTS))
            # Ids repeat across tenants: namespaces are per tenant.
            tid = f"t{i % 3}"
            if (tenant, tid) in live:
                tid = f"u{i}"
            script.append(("add", tenant, tid, attrs, nodes))
            live.add((tenant, tid))
    return script


def _tenant_union(manager):
    return _union(task for tenant in manager.tenants() for task in manager.tasks(tenant))


@given(tenant_scripts())
def test_multi_tenant_delta_is_union_difference_per_op(script):
    manager = MultiTenantTaskManager()
    for op, tenant, tid, attrs, nodes in script:
        before = _tenant_union(manager)
        if op == "add":
            delta = manager.add_task(tenant, MonitoringTask(tid, attrs, nodes))
        elif op == "remove":
            delta = manager.remove_task(tenant, tid)
        else:
            delta = manager.modify_task(tenant, MonitoringTask(tid, attrs, nodes))
        after = _tenant_union(manager)
        assert delta.added == after - before
        assert delta.removed == before - after
        assert manager.pairs() == after
        assert manager.pair_count() == len(after)


@settings(max_examples=15)
@given(tenant_scripts(), st.integers(1, 4))
def test_controlplane_service_pairs_match_tenants_after_adapt(script, adapt_every):
    cluster = make_uniform_cluster(
        n_nodes=4, capacity=100.0, attrs_per_node=2, attribute_pool=ATTRS[:3], seed=1
    )
    cp = ControlPlane(cluster, CostModel(per_message=2.0), metrics=MetricsRegistry())
    for index, (op, tenant, tid, attrs, nodes) in enumerate(script, start=1):
        if op == "add":
            cp.submit_task(tenant, MonitoringTask(tid, attrs, nodes))
        elif op == "remove":
            cp.delete_task(tenant, tid)
        else:
            cp.update_task(tenant, MonitoringTask(tid, attrs, nodes))
        if index % adapt_every == 0 or index == len(script):
            cp.adapt()
            assert cp.service.tasks.pairs() == cp.tenants.pairs()


# ---------------------------------------------------------------------------
# Tree construction invariants
# ---------------------------------------------------------------------------
@st.composite
def build_requests(draw):
    n = draw(st.integers(min_value=2, max_value=25))
    capacity = draw(st.floats(min_value=6.0, max_value=200.0))
    attrs = draw(st.sets(st.sampled_from(ATTRS), min_size=1, max_size=3))
    demands = {}
    for i in range(n):
        node_attrs = draw(
            st.sets(st.sampled_from(sorted(attrs)), min_size=1, max_size=len(attrs))
        )
        demands[i] = {a: 1.0 for a in node_attrs}
    central = draw(st.floats(min_value=10.0, max_value=2000.0))
    return TreeBuildRequest(
        attributes=frozenset(attrs),
        demands=demands,
        capacities={i: capacity for i in range(n)},
        central_capacity=central,
    )


@given(build_requests(), st.sampled_from([StarTreeBuilder, ChainTreeBuilder, AdaptiveTreeBuilder]))
def test_builders_always_produce_valid_trees(request, builder_cls):
    cost = CostModel(2.0, 1.0)
    result = builder_cls(cost).build(request)
    result.tree.validate()
    included = set(result.tree.nodes)
    excluded = set(result.excluded)
    candidates = {i for i, d in request.demands.items() if d}
    assert included | excluded == candidates
    assert not (included & excluded)


@given(build_requests())
def test_adaptive_dominates_star(request):
    """The construct/adjust iteration never collects fewer pairs than
    pure STAR (it starts from STAR and only improves)."""
    cost = CostModel(2.0, 1.0)
    star = StarTreeBuilder(cost).build(request)
    adaptive = AdaptiveTreeBuilder(cost).build(request)
    assert adaptive.tree.pair_count() >= star.tree.pair_count()


@given(st.data())
def test_branch_moves_keep_tree_valid(data):
    """Random feasible attach/move sequences never corrupt bookkeeping."""
    cost = CostModel(2.0, 1.0)
    caps = {i: 60.0 for i in range(12)}
    tree = MonitoringTree(("a",), cost, caps, central_capacity=500.0)
    tree.add_node(0, None, {"a": 1.0})
    for i in range(1, 12):
        parent = data.draw(st.sampled_from(tree.nodes), label="parent")
        tree.add_node(i, parent, {"a": 1.0})
    for _ in range(6):
        nodes = [n for n in tree.nodes if tree.parent(n) is not None]
        if not nodes:
            break
        branch = data.draw(st.sampled_from(nodes), label="branch")
        subtree = set(tree.subtree_nodes(branch))
        targets = [n for n in tree.nodes if n not in subtree and n != tree.parent(branch)]
        if not targets:
            continue
        target = data.draw(st.sampled_from(targets), label="target")
        tree.move_branch(branch, target)
        tree.validate()
