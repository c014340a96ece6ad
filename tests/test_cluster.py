"""Unit tests for the cluster substrate."""

import pytest

from repro.cluster.node import Cluster, SimNode
from repro.cluster.topology import (
    default_attribute_pool,
    make_heterogeneous_cluster,
    make_uniform_cluster,
)


class TestSimNode:
    def test_observes(self):
        node = SimNode(0, 10.0, frozenset({"cpu"}))
        assert node.observes("cpu")
        assert not node.observes("mem")

    def test_rejects_negative_id(self):
        with pytest.raises(ValueError):
            SimNode(-1, 10.0)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            SimNode(0, 0.0)


class TestCluster:
    def test_lookup_and_len(self):
        cluster = Cluster([SimNode(0, 5.0), SimNode(1, 6.0)], central_capacity=10.0)
        assert len(cluster) == 2
        assert cluster.node(1).capacity == 6.0
        assert cluster.capacity(0) == 5.0
        assert 0 in cluster and 7 not in cluster

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Cluster([SimNode(0, 5.0), SimNode(0, 6.0)], central_capacity=10.0)

    def test_nonpositive_central_rejected(self):
        with pytest.raises(ValueError):
            Cluster([SimNode(0, 5.0)], central_capacity=0.0)

    def test_observable_pairs(self):
        cluster = Cluster(
            [SimNode(0, 5.0, frozenset({"a", "b"})), SimNode(1, 5.0, frozenset({"a"}))],
            central_capacity=10.0,
        )
        assert len(cluster.observable_pairs()) == 3


class TestGenerators:
    def test_default_pool_names(self):
        pool = default_attribute_pool(12)
        assert len(pool) == 12
        assert len(set(pool)) == 12

    def test_uniform_cluster_shape(self):
        cluster = make_uniform_cluster(10, capacity=50.0, attrs_per_node=4, seed=1)
        assert len(cluster) == 10
        for node in cluster:
            assert node.capacity == 50.0
            assert len(node.attributes) == 4

    def test_uniform_cluster_deterministic_by_seed(self):
        c1 = make_uniform_cluster(10, 50.0, seed=5)
        c2 = make_uniform_cluster(10, 50.0, seed=5)
        for n1, n2 in zip(c1, c2):
            assert n1.attributes == n2.attributes

    def test_uniform_rejects_oversized_attr_request(self):
        with pytest.raises(ValueError):
            make_uniform_cluster(4, 10.0, attrs_per_node=5, attribute_pool=["a", "b"])

    def test_heterogeneous_capacities_in_range(self):
        cluster = make_heterogeneous_cluster(
            20, capacity_low=10.0, capacity_high=40.0, seed=3
        )
        for node in cluster:
            assert 10.0 <= node.capacity <= 40.0

    def test_heterogeneous_rejects_bad_range(self):
        with pytest.raises(ValueError):
            make_heterogeneous_cluster(5, capacity_low=10.0, capacity_high=5.0)

    def test_default_central_capacity_scales(self):
        cluster = make_uniform_cluster(5, capacity=100.0, seed=1)
        assert cluster.central_capacity == pytest.approx(400.0)
