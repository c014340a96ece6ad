"""Memoized candidate evaluation: cache transparency and bounds.

The planner threads a :class:`TreeMemo` through candidate evaluation
so unchanged partition sets reuse tree-construction results instead of
rebuilding.  The contract under test: memoization must be *invisible*
in the output (bit-identical plans with the memo on, off, or shrunk to
a single entry), bounded in size, and consistent with the tree
recompute oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.topology import default_attribute_pool, make_uniform_cluster
from repro.core.cost import CostModel
from repro.core.forest import TreeMemo
from repro.core.planner import RemoPlanner

COST = CostModel(per_message=4.0, per_value=1.0)


def _workload(n_nodes: int, seed: int):
    cluster = make_uniform_cluster(
        n_nodes=n_nodes,
        capacity=80.0,
        attrs_per_node=6,
        attribute_pool=default_attribute_pool(8),
        central_capacity=400.0,
        seed=seed,
    )
    from repro.workloads.tasks import TaskSampler

    tasks = TaskSampler(cluster, seed=seed + 1).sample_many(
        6, (2, 4), (3, max(4, n_nodes // 2))
    )
    return cluster, tasks


class TestTreeMemoUnit:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            TreeMemo(0)
        with pytest.raises(ValueError):
            TreeMemo(-3)

    def test_size_bound_holds_under_pressure(self):
        memo = TreeMemo(max_entries=2)
        for i in range(10):
            memo.put(("k", i), i)
            assert len(memo._entries) <= 2
        # Newest entries survive; the rest were evicted oldest-first.
        assert memo.get(("k", 9)) == 9
        assert memo.get(("k", 8)) == 8
        assert memo.get(("k", 0)) is None

    def test_lru_recency_protects_hit_entries(self):
        memo = TreeMemo(max_entries=2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # refresh "a"
        memo.put("c", 3)  # evicts "b", the least recently used
        assert memo.get("a") == 1
        assert memo.get("b") is None
        assert memo.get("c") == 3

    def test_hit_miss_counters(self):
        memo = TreeMemo(max_entries=4)
        assert memo.get("x") is None
        memo.put("x", 1)
        assert memo.get("x") == 1
        assert (memo.hits, memo.misses) == (1, 1)


class TestMemoTransparency:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n_nodes=st.integers(min_value=8, max_value=20),
        seed=st.integers(min_value=0, max_value=40),
    )
    def test_cached_and_cold_plans_identical(self, n_nodes, seed):
        """Property: the memo never changes the plan, only its cost."""
        cluster, tasks = _workload(n_nodes, seed)
        cached, _ = RemoPlanner(COST).plan_with_stats(tasks, cluster)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(RemoPlanner, "MEMO_SIZE", 0)
            cold, _ = RemoPlanner(COST).plan_with_stats(tasks, cluster)
        assert cached.fingerprint() == cold.fingerprint()

    def test_tiny_memo_identical_to_default(self, monkeypatch):
        """Eviction churn (capacity 1) must not alter results either."""
        cluster, tasks = _workload(16, 7)
        default, _ = RemoPlanner(COST).plan_with_stats(tasks, cluster)
        monkeypatch.setattr(RemoPlanner, "MEMO_SIZE", 1)
        tiny, _ = RemoPlanner(COST).plan_with_stats(tasks, cluster)
        assert tiny.fingerprint() == default.fingerprint()

    def test_memo_counters_flow_into_stats(self):
        cluster, tasks = _workload(16, 3)
        _, stats = RemoPlanner(COST).plan_with_stats(tasks, cluster)
        assert stats.memo_misses > 0  # every build is at least a miss
        assert stats.memo_hits >= 0

    def test_memoized_trees_pass_recompute_oracle(self):
        """Ledger-keyed invalidation: every tree in a memoized plan must
        agree with a full bottom-up recompute of its cached state."""
        cluster, tasks = _workload(18, 11)
        plan, stats = RemoPlanner(COST).plan_with_stats(tasks, cluster)
        assert stats.memo_misses > 0
        for result in plan.trees.values():
            result.tree.validate()
        plan.validate(
            {n.node_id: n.capacity for n in cluster}, cluster.central_capacity
        )
