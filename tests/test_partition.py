"""Unit tests for attribute-set partitions and merge/split operations."""

import pytest

from repro.core.partition import MergeOp, Partition, SplitOp


class TestConstruction:
    def test_singletons(self):
        part = Partition.singletons(["a", "b", "c"])
        assert len(part) == 3
        assert all(len(s) == 1 for s in part)

    def test_one_set(self):
        part = Partition.one_set(["a", "b", "c"])
        assert len(part) == 1
        assert part.universe == {"a", "b", "c"}

    def test_rejects_empty_sets(self):
        with pytest.raises(ValueError):
            Partition([set()])

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Partition([{"a", "b"}, {"b", "c"}])

    def test_rejects_empty_partition(self):
        with pytest.raises(ValueError):
            Partition([])

    def test_rejects_empty_universe(self):
        with pytest.raises(ValueError):
            Partition.singletons([])

    def test_equality_is_canonical(self):
        assert Partition([{"a"}, {"b", "c"}]) == Partition([{"c", "b"}, {"a"}])
        assert hash(Partition([{"a"}, {"b"}])) == hash(Partition([{"b"}, {"a"}]))


class TestOperations:
    def test_merge_unions_two_sets(self):
        part = Partition([{"a"}, {"b"}, {"c"}])
        merged = part.merge(frozenset({"a"}), frozenset({"b"}))
        assert frozenset({"a", "b"}) in merged
        assert len(merged) == 2
        assert merged.universe == part.universe

    def test_merge_requires_member_sets(self):
        part = Partition([{"a"}, {"b"}])
        with pytest.raises(ValueError):
            part.merge(frozenset({"a"}), frozenset({"z"}))

    def test_merge_same_set_rejected(self):
        part = Partition([{"a"}, {"b"}])
        with pytest.raises(ValueError):
            part.merge(frozenset({"a"}), frozenset({"a"}))

    def test_split_carves_singleton(self):
        part = Partition([{"a", "b", "c"}])
        split = part.split(frozenset({"a", "b", "c"}), "b")
        assert frozenset({"b"}) in split
        assert frozenset({"a", "c"}) in split
        assert split.universe == part.universe

    def test_split_singleton_rejected(self):
        part = Partition([{"a"}, {"b"}])
        with pytest.raises(ValueError):
            part.split(frozenset({"a"}), "a")

    def test_split_missing_attribute_rejected(self):
        part = Partition([{"a", "b"}])
        with pytest.raises(ValueError):
            part.split(frozenset({"a", "b"}), "z")

    def test_apply_dispatches(self):
        part = Partition([{"a"}, {"b"}])
        merged = part.apply(MergeOp(frozenset({"a"}), frozenset({"b"})))
        assert len(merged) == 1
        back = merged.apply(SplitOp(frozenset({"a", "b"}), "a"))
        assert back == part


class TestNeighborhood:
    def test_neighbor_count_for_singletons(self):
        """k singletons: k*(k-1)/2 merges, no splits."""
        part = Partition.singletons(["a", "b", "c", "d"])
        ops = list(part.merge_ops())
        assert len(ops) == 6
        assert list(part.split_ops()) == []

    def test_split_count_for_one_set(self):
        part = Partition.one_set(["a", "b", "c"])
        assert len(list(part.split_ops())) == 3
        assert list(part.merge_ops()) == []

    def test_neighbors_are_valid_partitions(self):
        part = Partition([{"a", "b"}, {"c"}, {"d"}])
        for op in [*part.merge_ops(), *part.split_ops()]:
            assert part.apply(op).universe == part.universe

    def test_restrict_to_filters_merges(self):
        part = Partition([{"a"}, {"b"}, {"c"}])
        anchor = {frozenset({"a"})}
        ops = list(part.merge_ops(restrict_to=anchor))
        assert len(ops) == 2
        assert all(op.left == frozenset({"a"}) or op.right == frozenset({"a"}) for op in ops)

    def test_forbidden_pairs_block_merge(self):
        """The SSDP constraint: an attribute and its alias never co-habit."""
        part = Partition([{"a"}, {"a#r1"}, {"b"}])
        forbidden = {frozenset({"a", "a#r1"})}
        ops = list(part.merge_ops(forbidden_pairs=forbidden))
        merged_sets = [op.left | op.right for op in ops]
        assert frozenset({"a", "a#r1"}) not in merged_sets
        assert len(ops) == 2

    def test_restrict_to_filters_splits(self):
        part = Partition([{"a", "b"}, {"c", "d"}])
        ops = list(part.split_ops(restrict_to={frozenset({"a", "b"})}))
        assert {op.attribute for op in ops} == {"a", "b"}
