"""Unit tests for the cost model and funnel functions."""

import pytest

from repro.core.cost import AggregationKind, AggregationSpec, CostModel


class TestCostModel:
    def test_message_cost_linear_in_values(self):
        model = CostModel(per_message=2.0, per_value=0.5)
        assert model.message_cost(0) == pytest.approx(2.0)
        assert model.message_cost(10) == pytest.approx(7.0)

    def test_star_root_cost_linear_in_message_count(self):
        """The Fig. 2 observation: root cost scales with #messages."""
        model = CostModel(per_message=2.0, per_value=1.0)
        costs = [model.star_root_cost(n) for n in (16, 32, 64)]
        assert costs[1] == pytest.approx(2 * costs[0])
        assert costs[2] == pytest.approx(4 * costs[0])

    def test_star_root_cost_grows_slowly_with_payload(self):
        """One big message is far cheaper than many small ones."""
        model = CostModel(per_message=2.0, per_value=0.01)
        many_small = model.star_root_cost(256)
        one_big = model.message_cost(256)
        assert one_big < many_small / 50

    def test_rejects_negative_per_message(self):
        with pytest.raises(ValueError):
            CostModel(per_message=-1.0)

    def test_rejects_nonpositive_per_value(self):
        with pytest.raises(ValueError):
            CostModel(per_value=0.0)

    def test_rejects_negative_values_in_message(self):
        with pytest.raises(ValueError):
            CostModel().message_cost(-1)

    def test_rejects_negative_children(self):
        with pytest.raises(ValueError):
            CostModel().star_root_cost(-1)


class TestFunnels:
    def test_holistic_forwards_everything(self):
        assert AggregationSpec(AggregationKind.HOLISTIC).funnel(37) == 37

    def test_sum_collapses_to_one(self):
        assert AggregationSpec(AggregationKind.SUM).funnel(100) == 1

    def test_max_min_avg_count_collapse(self):
        for kind in (AggregationKind.MAX, AggregationKind.MIN, AggregationKind.AVG, AggregationKind.COUNT):
            assert AggregationSpec(kind).funnel(42) == 1

    def test_zero_incoming_always_zero(self):
        for kind in AggregationKind:
            assert AggregationSpec(kind, k=5).funnel(0) == 0

    def test_top_k_caps_at_k(self):
        spec = AggregationSpec(AggregationKind.TOP_K, k=10)
        assert spec.funnel(4) == 4
        assert spec.funnel(10) == 10
        assert spec.funnel(400) == 10

    def test_distinct_uses_holistic_upper_bound(self):
        assert AggregationSpec(AggregationKind.DISTINCT).funnel(25) == 25

    def test_top_k_rejects_bad_k(self):
        with pytest.raises(ValueError):
            AggregationSpec(AggregationKind.TOP_K, k=0).funnel(3)

    def test_rejects_negative_incoming(self):
        with pytest.raises(ValueError):
            AggregationSpec(AggregationKind.SUM).funnel(-1)
