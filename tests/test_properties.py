"""Property-based tests (hypothesis) on core invariants.

These pin down the structural guarantees everything else rests on:
partitions always remain disjoint covers under merge/split walks,
trees never violate capacity no matter the insertion sequence, funnel
functions are monotone and bounded, the task manager's refcounts never
go negative, and plans never claim pairs they were not asked for.
"""


from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cost import AggregationKind, AggregationSpec, CostModel
from repro.core.partition import Partition
from repro.core.tasks import MonitoringTask, TaskManager
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


@given(task_scripts())
def test_task_manager_pairs_always_equal_union(script):
    manager = TaskManager()
    for op, tid, attrs, nodes in script:
        if op == "add":
            manager.add_task(MonitoringTask(tid, attrs, nodes))
        elif op == "remove":
            manager.remove_task(tid)
        else:
            manager.modify_task(MonitoringTask(tid, attrs, nodes))
        expected = set()
        for task in manager:
            expected |= task.pairs()
        assert manager.pairs() == expected


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
