"""Unit tests for ground-truth metric generators."""

import random

import pytest

from repro.cluster.metrics import (
    AR1Metric,
    BurstyMetric,
    ConstantNoiseMetric,
    MetricRegistry,
    RandomWalkMetric,
)
from repro.core.attributes import NodeAttributePair, pairs_for
from repro.streams.app import StreamApp, StreamMetricRegistry
from tests.test_streams import small_graph


class TestGenerators:
    def test_random_walk_stays_in_bounds(self):
        gen = RandomWalkMetric(initial=50.0, step=10.0)
        rng = random.Random(1)
        for _ in range(500):
            value = gen.advance(rng)
            assert 0.0 <= value <= 100.0

    def test_random_walk_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            RandomWalkMetric(step=0.0)

    def test_ar1_reverts_to_mean(self):
        gen = AR1Metric(mean=50.0, phi=0.5, sigma=0.0)
        gen.current = 100.0
        rng = random.Random(1)
        for _ in range(50):
            gen.advance(rng)
        assert gen.current == pytest.approx(50.0, abs=0.1)

    def test_ar1_rejects_bad_phi(self):
        with pytest.raises(ValueError):
            AR1Metric(phi=1.0)

    def test_bursty_visits_both_regimes(self):
        gen = BurstyMetric(calm_level=10.0, burst_level=1000.0)
        rng = random.Random(2)
        values = [gen.advance(rng) for _ in range(500)]
        assert min(values) < 50.0
        assert max(values) > 500.0

    def test_constant_noise_hovers(self):
        gen = ConstantNoiseMetric(level=20.0, sigma=0.1)
        rng = random.Random(3)
        values = [gen.advance(rng) for _ in range(200)]
        assert 19.0 < sum(values) / len(values) < 21.0


class TestRegistry:
    def test_one_generator_per_pair(self):
        pairs = pairs_for(range(4), ["a", "b"])
        registry = MetricRegistry(pairs, seed=1)
        assert len(registry) == 8
        for pair in pairs:
            assert pair in registry
            assert isinstance(registry.value(pair), float)

    def test_advance_changes_values_over_time(self):
        pairs = pairs_for(range(4), ["a"])
        registry = MetricRegistry(pairs, seed=1)
        before = {p: registry.value(p) for p in pairs}
        for _ in range(20):
            registry.advance_all()
        after = {p: registry.value(p) for p in pairs}
        assert any(abs(before[p] - after[p]) > 1e-9 for p in pairs)

    def test_deterministic_with_seed(self):
        pairs = sorted(pairs_for(range(3), ["a"]))
        r1 = MetricRegistry(pairs, seed=9)
        r2 = MetricRegistry(pairs, seed=9)
        for _ in range(10):
            r1.advance_all()
            r2.advance_all()
        for pair in pairs:
            assert r1.value(pair) == pytest.approx(r2.value(pair))

    def test_ensure_registers_lazily(self):
        registry = MetricRegistry([], seed=1)
        pair = NodeAttributePair(0, "late")
        assert pair not in registry
        registry.ensure(pair)
        assert pair in registry
        registry.ensure(pair)  # idempotent
        assert len(registry) == 1


def metric_replica():
    pairs = sorted(pairs_for(range(3), ["a", "b"]))
    return MetricRegistry(pairs, seed=4), pairs


def stream_replica():
    app = StreamApp(small_graph(), {"src": 0, "parse": 0, "agg": 1, "sink": 1}, seed=7)
    registry = StreamMetricRegistry(app)
    return registry, sorted(registry.pairs())


REPLICAS = {"metric": metric_replica, "stream": stream_replica}


def values(registry, pairs):
    return [registry.value(pair) for pair in pairs]


@pytest.mark.parametrize("make", REPLICAS.values(), ids=list(REPLICAS))
class TestAdvanceTo:
    """A replica without the clock (a deploy worker's) is brought to a
    period by the tick it reads; the clock's own registry, advanced once
    per period before the tick, is not moved by it."""

    def test_reaching_a_period_equals_advancing_once_more(self, make):
        fresh, pairs = make()
        for period in (0, 3):
            replica, _ = make()
            clocked, _ = make()
            replica.advance_to(period)
            for _ in range(period + 1):
                clocked.advance_all()
            assert values(replica, pairs) == values(clocked, pairs)
            assert values(replica, pairs) != values(fresh, pairs)

    def test_repeating_the_call_is_a_no_op(self, make):
        replica, pairs = make()
        replica.advance_to(2)
        held = values(replica, pairs)
        replica.advance_to(2)
        replica.advance_to(1)
        assert values(replica, pairs) == held

    def test_a_registry_the_clock_advanced_does_not_move(self, make):
        registry, pairs = make()
        for period in range(3):
            registry.advance_all()  # the clock, before its tick
            held = values(registry, pairs)
            registry.advance_to(period)  # each agent, on that tick
            assert values(registry, pairs) == held
