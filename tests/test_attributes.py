"""Unit tests for node-attribute pair primitives."""

import pickle

import pytest

from repro.core.attributes import NodeAttributePair, pairs_for
from repro.core.tasks import MonitoringTask


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
        with pytest.raises(AttributeError):
            pair.attribute = "b"


class TestValueSemantics:
    """What plans, fingerprints and deploy rely on, pinned to the value."""

    def test_hash_is_the_field_tuple_hash(self):
        # Set iteration order follows the hash: the same hash keeps
        # every set of pairs, and so every plan, in the same order.
        for node, attribute in ((3, "cpu"), (0, ""), (-7, "op12.rate")):
            pair = NodeAttributePair(node, attribute)
            assert hash(pair) == hash((pair.node, pair.attribute))

    def test_sort_order_is_node_then_attribute(self):
        pairs = [
            NodeAttributePair(2, "a"),
            NodeAttributePair(10, "a"),
            NodeAttributePair(1, "mem"),
            NodeAttributePair(1, "cpu"),
        ]
        assert sorted(pairs) == [
            NodeAttributePair(1, "cpu"),
            NodeAttributePair(1, "mem"),
            NodeAttributePair(2, "a"),
            NodeAttributePair(10, "a"),
        ]

    def test_str_and_repr(self):
        pair = NodeAttributePair(3, "cpu")
        assert str(pair) == "3:cpu"
        assert repr(pair) == "NodeAttributePair(node=3, attribute='cpu')"

    def test_pickle_round_trip(self):
        pair = NodeAttributePair(3, "cpu")
        restored = pickle.loads(pickle.dumps(pair))
        assert restored == pair
        assert type(restored) is NodeAttributePair
        assert hash(restored) == hash(pair)

    def test_task_pairs_are_expanded_once(self):
        task = MonitoringTask("t", ["cpu", "mem"], [1, 2])
        first = task.pairs()
        assert isinstance(first, frozenset)
        assert task.pairs() is first
        assert first == pairs_for([1, 2], ["cpu", "mem"])


class TestHelpers:
    def test_pairs_for_is_cross_product(self):
        pairs = pairs_for([1, 2], ["a", "b"])
        assert len(pairs) == 4
        assert NodeAttributePair(2, "b") in pairs

    def test_pairs_for_empty_nodes(self):
        assert pairs_for([], ["a"]) == set()
