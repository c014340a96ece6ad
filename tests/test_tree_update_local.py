"""Tests for in-place local-demand mutation (DIRECT-APPLY's tree patching)."""

import math

import pytest

from repro.core.cost import CostModel
from repro.trees.model import MonitoringTree

COST = CostModel(per_message=2.0, per_value=1.0)


def tree_with_chain(caps=None, attrs=("a", "b")):
    capacities = caps if caps is not None else {i: 100.0 for i in range(6)}
    tree = MonitoringTree(attrs, COST, capacities, central_capacity=math.inf)
    tree.add_node(0, None, {"a": 1.0})
    tree.add_node(1, 0, {"a": 1.0})
    tree.add_node(2, 1, {"a": 1.0})
    return tree


class TestUpdateLocal:
    def test_add_attribute_updates_costs_upstream(self):
        tree = tree_with_chain()
        before_root = tree.outgoing_values(0)
        assert tree.update_local(2, {"a": 1.0, "b": 1.0})
        assert tree.outgoing_values(2) == pytest.approx(2.0)
        assert tree.outgoing_values(0) == pytest.approx(before_root + 1.0)
        tree.validate()

    def test_remove_attribute_shrinks_costs(self):
        tree = tree_with_chain()
        tree.update_local(2, {"a": 1.0, "b": 1.0})
        send_before = tree.send_cost(0)
        assert tree.update_local(2, {"a": 1.0})
        assert tree.send_cost(0) < send_before
        tree.validate()

    def test_empty_demand_leaves_relay(self):
        tree = tree_with_chain()
        assert tree.update_local(1, {})
        assert tree.local_demand(1) == {}
        # Node 1 still relays node 2's value.
        assert tree.outgoing_values(1) == pytest.approx(1.0)
        assert tree.pair_count() == 2
        tree.validate()

    def test_infeasible_growth_reverts(self):
        # Root capacity exactly fits the current chain.
        tree = tree_with_chain()
        used = tree.used(0)
        tree.capacities = {0: used + 0.5, 1: 100.0, 2: 100.0}
        before = tree.local_demand(2)
        assert not tree.update_local(2, {"a": 1.0, "b": 1.0})
        assert tree.local_demand(2) == before
        tree.validate()

    def test_noop_update_succeeds(self):
        tree = tree_with_chain()
        assert tree.update_local(2, {"a": 1.0})
        tree.validate()

    def test_unknown_node_rejected(self):
        tree = tree_with_chain()
        with pytest.raises(ValueError):
            tree.update_local(99, {"a": 1.0})

    def test_foreign_attribute_rejected(self):
        tree = tree_with_chain()
        with pytest.raises(ValueError):
            tree.update_local(2, {"zzz": 1.0})

    def test_negative_weight_rejected(self):
        tree = tree_with_chain()
        with pytest.raises(ValueError):
            tree.update_local(2, {"a": -1.0})

    def test_pair_count_tracks_updates(self):
        tree = tree_with_chain()
        assert tree.pair_count() == 3
        tree.update_local(2, {"a": 1.0, "b": 1.0})
        assert tree.pair_count() == 4
        tree.update_local(2, {})
        assert tree.pair_count() == 2

    def test_message_weight_update(self):
        """An update replaces the values a node sends, not how often it
        sends: the weight it joined with stays."""
        tree = tree_with_chain()
        tree.add_node(3, 2, {"a": 1.0}, 0.5)
        assert tree.update_local(3, {"a": 0.5, "b": 0.5})
        assert tree.message_weight(3) == pytest.approx(0.5)
        # Upstream still sends at full rate (its own weight is 1.0).
        assert tree.message_weight(0) == pytest.approx(1.0)
        tree.validate()

    def test_check_false_applies_unconditionally(self):
        tree = tree_with_chain()
        tree.capacities = {0: 0.1, 1: 0.1, 2: 0.1}
        assert tree.update_local(2, {"a": 1.0, "b": 1.0}, check=False)
        assert tree.local_demand(2) == {"a": 1.0, "b": 1.0}
