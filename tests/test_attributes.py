"""Unit tests for node-attribute pair primitives."""

import pytest

from repro.core.attributes import NodeAttributePair, pairs_for


class TestNodeAttributePair:
    def test_fields(self):
        pair = NodeAttributePair(3, "cpu")
        assert pair.node == 3
        assert pair.attribute == "cpu"

    def test_hashable_and_equal(self):
        assert NodeAttributePair(1, "a") == NodeAttributePair(1, "a")
        assert len({NodeAttributePair(1, "a"), NodeAttributePair(1, "a")}) == 1

    def test_distinct_nodes_differ(self):
        assert NodeAttributePair(1, "a") != NodeAttributePair(2, "a")

    def test_ordering_is_total(self):
        pairs = [NodeAttributePair(2, "a"), NodeAttributePair(1, "b"), NodeAttributePair(1, "a")]
        ordered = sorted(pairs)
        assert ordered[0] == NodeAttributePair(1, "a")
        assert ordered[-1] == NodeAttributePair(2, "a")

    def test_immutable(self):
        pair = NodeAttributePair(0, "a")
        with pytest.raises(AttributeError):
            pair.node = 5


class TestHelpers:
    def test_pairs_for_is_cross_product(self):
        pairs = pairs_for([1, 2], ["a", "b"])
        assert len(pairs) == 4
        assert NodeAttributePair(2, "b") in pairs

    def test_pairs_for_empty_nodes(self):
        assert pairs_for([], ["a"]) == set()
