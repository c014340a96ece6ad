"""Unit tests for the guided-search gain estimator."""

import pytest

from repro.core.attributes import pairs_for
from repro.core.cost import CostModel
from repro.core.gain import GainContext, estimate_gain, rank_candidates
from repro.core.partition import MergeOp, SplitOp


def ctx_for(pairs, cost=None, uncollected=None):
    return GainContext.from_pairs(pairs, cost or CostModel(2.0, 1.0), uncollected)


class TestContext:
    def test_node_masks(self):
        ctx = ctx_for(pairs_for([0, 2], ["a"]))
        assert ctx.node_masks["a"] == 0b101

    def test_set_mask_unions_attributes(self):
        ctx = ctx_for(pairs_for([0], ["a"]) | pairs_for([1], ["b"]))
        assert ctx.set_mask(frozenset({"a", "b"})) == 0b11


class TestMergeGain:
    def test_shared_nodes_drive_gain(self):
        """Merge gain: 2*C per shared node (send + recv folded) plus C
        freed at the collector (two root messages become one)."""
        cost = CostModel(per_message=5.0, per_value=1.0)
        ctx = ctx_for(pairs_for(range(4), ["a", "b"]), cost=cost)
        op = MergeOp(frozenset({"a"}), frozenset({"b"}))
        assert estimate_gain(op, ctx) == pytest.approx(2 * 5.0 * 4 + 5.0)

    def test_disjoint_sets_are_hopeless(self):
        ctx = ctx_for(pairs_for([0, 1], ["a"]) | pairs_for([2, 3], ["b"]))
        op = MergeOp(frozenset({"a"}), frozenset({"b"}))
        assert estimate_gain(op, ctx) == float("-inf")

    def test_uses_collected_masks_when_available(self):
        """An empty (saturated-away) tree frees nothing: its merges must
        rank below merges of two live trees."""
        pairs = pairs_for(range(6), ["a", "b", "c"])
        full = 0b111111
        collected = {
            frozenset({"a"}): full,
            frozenset({"b"}): full,
            frozenset({"c"}): 0,  # tree collapsed: no members
        }
        ctx = ctx_for(pairs)
        ctx.collected_masks = collected
        live_merge = estimate_gain(MergeOp(frozenset({"a"}), frozenset({"b"})), ctx)
        dead_merge = estimate_gain(MergeOp(frozenset({"b"}), frozenset({"c"})), ctx)
        assert live_merge > dead_merge

    def test_recovery_credit_for_uncollected_pairs(self):
        """Merging a live tree with a starving one can recover pairs."""
        pairs = pairs_for(range(6), ["a", "b"])
        ctx = ctx_for(pairs, uncollected={frozenset({"b"}): 4})
        base = estimate_gain(
            MergeOp(frozenset({"a"}), frozenset({"b"})),
            ctx_for(pairs, uncollected={}),
        )
        with_recovery = estimate_gain(MergeOp(frozenset({"a"}), frozenset({"b"})), ctx)
        assert with_recovery > base

    def test_more_overlap_more_gain(self):
        few = ctx_for(pairs_for([0], ["a", "b"]) | pairs_for([1, 2], ["a"]))
        many = ctx_for(pairs_for([0, 1, 2], ["a", "b"]))
        op = MergeOp(frozenset({"a"}), frozenset({"b"}))
        assert estimate_gain(op, many) > estimate_gain(op, few)


class TestSplitGain:
    def test_saturated_tree_split_is_positive(self):
        pairs = pairs_for(range(8), ["a", "b"])
        ctx = ctx_for(pairs, uncollected={frozenset({"a", "b"}): 40})
        op = SplitOp(frozenset({"a", "b"}), "a")
        assert estimate_gain(op, ctx) > 0

    def test_healthy_tree_split_is_negative(self):
        pairs = pairs_for(range(8), ["a", "b"])
        ctx = ctx_for(pairs, uncollected={})
        op = SplitOp(frozenset({"a", "b"}), "a")
        assert estimate_gain(op, ctx) < 0


class TestRanking:
    def test_rank_orders_descending(self):
        pairs = pairs_for(range(6), ["a", "b"]) | pairs_for([0], ["c"])
        ctx = ctx_for(pairs)
        ops = [
            MergeOp(frozenset({"a"}), frozenset({"b"})),  # 6 shared nodes
            MergeOp(frozenset({"a"}), frozenset({"c"})),  # 1 shared node
        ]
        ranked = rank_candidates(ops, ctx)
        assert ranked[0][1].left | ranked[0][1].right == frozenset({"a", "b"})
        assert ranked[0][0] >= ranked[1][0]

    def test_budget_truncates(self):
        pairs = pairs_for(range(3), ["a", "b", "c"])
        ctx = ctx_for(pairs)
        part_ops = [
            MergeOp(frozenset({"a"}), frozenset({"b"})),
            MergeOp(frozenset({"a"}), frozenset({"c"})),
            MergeOp(frozenset({"b"}), frozenset({"c"})),
        ]
        assert len(rank_candidates(part_ops, ctx, budget=2)) == 2

    def test_hopeless_candidates_dropped(self):
        pairs = pairs_for([0], ["a"]) | pairs_for([1], ["b"])
        ctx = ctx_for(pairs)
        ranked = rank_candidates([MergeOp(frozenset({"a"}), frozenset({"b"}))], ctx)
        assert ranked == []

    def test_unknown_op_type_rejected(self):
        with pytest.raises(TypeError):
            estimate_gain(object(), ctx_for(pairs_for([0], ["a"])))
