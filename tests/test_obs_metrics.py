"""Tests for the metrics registry and the sketching histogram."""

import random
import tracemalloc

import pytest

from repro.obs import metrics as metrics_module
from repro.obs.export import prometheus_text
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    default_registry,
    format_series,
    labels_key,
    use_registry,
)


class TestLabels:
    def test_labels_key_sorts_and_stringifies(self):
        assert labels_key({"b": 2, "a": "x"}) == (("a", "x"), ("b", "2"))

    @pytest.mark.parametrize(
        "labels", [{}, {"node": 3}, {"reason": "corrupt"}, {"tree": "t0", "node": 3}]
    )
    def test_labels_key_fast_paths_match_the_sorted_form(self, labels):
        # The zero- and one-label shortcuts must return the identical
        # canonical tuple the general (generator + sort) form would.
        assert labels_key(labels) == tuple(sorted((k, str(v)) for k, v in labels.items()))

    def test_series_names_identical_across_views(self):
        # counters(), the Prometheus export and dump/absorb all key on
        # labels_key: pin the byte-exact series names for 0, 1 and 2
        # labels so a change to the key shows up in every view.
        reg = MetricsRegistry()
        reg.incr("frames")
        reg.incr("frames", 2, endpoint="127.0.0.1:9")
        reg.incr("frames", 3, tree="t0", node=3)
        reg.observe("lat", 0.5, node=3)
        expected = {
            "frames": 1.0,
            'frames{endpoint="127.0.0.1:9"}': 2.0,
            'frames{node="3",tree="t0"}': 3.0,
        }
        assert reg.counters() == expected
        assert list(reg.histograms()) == ['lat{node="3"}']
        text = prometheus_text(reg)
        for series in expected:
            assert f"\n{series} " in "\n" + text
        merged = MetricsRegistry()
        merged.absorb(reg.dump())
        assert merged.counters() == expected
        assert prometheus_text(merged) == text
        assert merged.dump() == reg.dump()

    def test_format_series_bare_and_labeled(self):
        assert format_series("up", ()) == "up"
        assert (
            format_series("up", (("node", "3"), ("tree", "t0")))
            == 'up{node="3",tree="t0"}'
        )


class TestRegistryCounters:
    def test_incr_and_total(self):
        reg = MetricsRegistry()
        reg.incr("messages_sent")
        reg.incr("messages_sent", 2, node=1)
        reg.incr("messages_sent", 3, node=2)
        assert reg.counter("messages_sent") == 1.0
        assert reg.counter("messages_sent", node=1) == 2.0
        assert reg.counter_total("messages_sent") == 6.0

    def test_counter_totals_collapse_labels(self):
        reg = MetricsRegistry()
        reg.incr("a", 1, node=1)
        reg.incr("a", 2, node=2)
        reg.incr("b", 5)
        assert reg.counter_totals() == {"a": 3.0, "b": 5.0}

    def test_counters_keyed_by_formatted_series(self):
        reg = MetricsRegistry()
        reg.incr("a", 1, node=1)
        assert reg.counters() == {'a{node="1"}': 1.0}

    def test_gauges(self):
        reg = MetricsRegistry()
        reg.set_gauge("depth", 4.0, tree="t1")
        reg.set_gauge("depth", 2.0, tree="t1")
        assert reg.gauge("depth", tree="t1") == 2.0
        assert reg.gauge("missing") == 0.0

    def test_histogram_get_or_create(self):
        reg = MetricsRegistry()
        h1 = reg.histogram("lat", node=1)
        h2 = reg.histogram("lat", node=1)
        assert h1 is h2
        reg.observe("lat", 3.5, node=1)
        assert h1.count == 1

    def test_series_enumeration_and_clear(self):
        reg = MetricsRegistry()
        reg.incr("c")
        reg.set_gauge("g", 1.0)
        reg.observe("h", 2.0)
        kinds = [kind for kind, _key in reg.series()]
        assert kinds == ["counter", "gauge", "histogram"]
        reg.clear()
        assert list(reg.series()) == []

    def test_as_dict_shape(self):
        reg = MetricsRegistry()
        reg.incr("c", 2)
        reg.observe("h", 1.0)
        snap = reg.as_dict()
        assert snap["counters"] == {"c": 2.0}
        assert set(snap["histograms"]["h"]) == {"count", "mean", "p50", "p95", "max"}


class TestAmbientRegistry:
    def test_use_registry_scopes_and_restores(self):
        outer = default_registry()
        scoped = MetricsRegistry()
        with use_registry(scoped) as active:
            assert active is scoped
            assert default_registry() is scoped
            default_registry().incr("inside")
        assert default_registry() is outer
        assert scoped.counter_total("inside") == 1.0
        assert outer.counter_total("inside") == 0.0


class TestHistogramExact:
    def test_summary_on_known_values(self):
        h = Histogram()
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        assert h.count == 4
        assert h.sum == 10.0
        assert h.mean == 2.5
        assert h.min == 1.0
        assert h.max == 4.0
        assert h.quantile(0.5) == 2.5
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 4.0
        assert h.is_exact

    def test_empty_histogram(self):
        h = Histogram()
        assert h.count == 0
        assert h.mean == 0.0
        assert h.quantile(0.5) == 0.0
        assert len(h) == 0

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)



@pytest.fixture
def small_sketch(monkeypatch):
    """Histograms that sketch past 100 observations into 50 slots."""
    monkeypatch.setattr(Histogram, "SKETCH_THRESHOLD", 100)
    monkeypatch.setattr(Histogram, "RESERVOIR_SIZE", 50)


class TestHistogramSketch:
    @pytest.mark.usefixtures("small_sketch")
    def test_switches_past_threshold_and_bounds_memory(self):
        h = Histogram()
        for i in range(100):
            h.observe(float(i))
        assert h.is_exact
        h.observe(100.0)
        assert not h.is_exact
        for i in range(10_000):
            h.observe(float(i))
        assert len(h._values) == 50
        assert h.count == 10_101

    @pytest.mark.usefixtures("small_sketch")
    def test_exact_moments_survive_sketching(self):
        h = Histogram()
        values = [float(i) for i in range(1000)]
        for v in values:
            h.observe(v)
        assert h.count == 1000
        assert h.sum == sum(values)
        assert h.min == 0.0
        assert h.max == 999.0

    def test_quantile_accuracy_uniform(self):
        # ~20k uniform draws: reservoir quantiles should land within a
        # few percent of the true quantiles.
        rng = random.Random(7)
        h = Histogram()  # defaults: threshold 4096, reservoir 1024
        for _ in range(20_000):
            h.observe(rng.uniform(0.0, 100.0))
        assert not h.is_exact
        assert abs(h.quantile(0.5) - 50.0) < 5.0
        assert abs(h.quantile(0.95) - 95.0) < 5.0

    def test_quantile_accuracy_skewed(self):
        rng = random.Random(11)
        h = Histogram()
        for _ in range(20_000):
            h.observe(rng.expovariate(1.0))
        # True exponential(1) median is ln 2 ~ 0.693.
        assert abs(h.quantile(0.5) - 0.693) < 0.15

    @pytest.mark.usefixtures("small_sketch")
    def test_reproducible_across_instances(self):
        def fill():
            h = Histogram()
            for i in range(5000):
                h.observe(float(i % 997))
            return h

        a, b = fill(), fill()
        assert a.quantile(0.5) == b.quantile(0.5)
        assert a.quantile(0.95) == b.quantile(0.95)


class TestSkipCountReservoir:
    """Algorithm L: one draw per replacement, not per observation."""

    def test_every_stream_decile_is_kept_at_k_over_n(self):
        # Each trial's reservoir is a uniform sample of the stream: every
        # tenth of it -- before the switch, at it, and long after --
        # survives at the rate k/n, over many seeds.
        n, k, trials = 10_000, Histogram.RESERVOIR_SIZE, 60
        kept = [0] * 10
        for seed in range(trials):
            h = Histogram()
            h._rng = random.Random(seed)
            for i in range(n):
                h.observe(float(i))
            assert len(h._values) == k
            for v in h._values:
                kept[int(v) * 10 // n] += 1
        for decile, count in enumerate(kept):
            rate = count / (trials * n / 10)
            assert abs(rate - k / n) <= 0.05 * k / n, (decile, rate)

    @pytest.mark.usefixtures("small_sketch")
    @pytest.mark.parametrize("before", [0, 37, 100, 400])
    @pytest.mark.parametrize("times", [1, 7, 63, 64, 65, 1000])
    def test_times_equals_that_many_single_observations(self, before, times):
        weighted, single = Histogram(), Histogram()
        for h in (weighted, single):
            for i in range(before):
                h.observe(float(i % 5) + 0.5)
        weighted.observe(2.25, times=times)
        for _ in range(times):
            single.observe(2.25)
        for attr in ("count", "sum", "min", "max", "is_exact"):
            assert getattr(weighted, attr) == getattr(single, attr), attr
        if single.is_exact:
            assert weighted.dump() == single.dump()
        else:
            assert len(weighted._values) == len(single._values) == Histogram.RESERVOIR_SIZE

    def test_a_huge_times_allocates_no_list_of_that_length(self):
        tracemalloc.start()
        try:
            h = Histogram()
            h.observe(3.0, times=10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # a 10**7-long list would take 80 MB
        assert (h.count, h.sum, h.min, h.max) == (10**7, 3e7, 3.0, 3.0)
        assert h._values == [3.0] * Histogram.RESERVOIR_SIZE

    def test_the_sample_stays_uniform_after_absorbing_into_and_out_of_a_sketch(self):
        # 20 000 zeros (sketched) absorb 20 000 ones (sketched), then go
        # on observing 40 000 twos: the reservoir must hold them in the
        # proportions of the 80 000 observations, 1 : 1 : 2.
        zeros, ones = Histogram(), Histogram()
        zeros.observe(0.0, times=20_000)
        ones.observe(1.0, times=20_000)
        zeros.absorb(ones.dump())
        assert not zeros.is_exact
        for _ in range(40_000):
            zeros.observe(2.0)
        shares = [zeros._values.count(v) / len(zeros._values) for v in (0.0, 1.0, 2.0)]
        assert shares == pytest.approx([0.25, 0.25, 0.5], abs=0.05)
        # And an exact histogram that absorbs a sketch keeps sampling.
        exact = Histogram()
        exact.observe(5.0)
        exact.absorb(zeros.dump())
        exact.observe(7.0, times=80_001)
        assert exact.count == 160_002
        assert exact._values.count(7.0) / len(exact._values) == pytest.approx(0.5, abs=0.05)

    def test_summary_reads_both_quantiles_from_one_sort(self, monkeypatch):
        h = Histogram()
        for v in [4.0, 1.0, 3.0, 2.0]:
            h.observe(v)
        expected = {"count": 4.0, "mean": 2.5, "p50": h.quantile(0.5),
                    "p95": h.quantile(0.95), "max": 4.0}
        sorts = []

        def counted(values):
            sorts.append(len(values))
            return sorted(values)

        monkeypatch.setattr(metrics_module, "sorted", counted, raising=False)
        assert h.summary() == expected
        assert sorts == [4]
        assert (expected["p50"], expected["p95"]) == (2.5, pytest.approx(3.85))


class TestDumpAbsorb:
    """Cross-process merge edge cases (`repro deploy` / `repro serve`)."""

    def test_empty_registry_dump_and_absorb_roundtrip(self):
        empty = MetricsRegistry()
        dump = empty.dump()
        assert dump == {"counters": [], "gauges": [], "histograms": []}
        target = MetricsRegistry()
        target.absorb(dump)
        assert target.counters() == {}
        assert target.gauges() == {}
        assert target.histograms() == {}

    def test_absorb_empty_dump_leaves_target_untouched(self):
        target = MetricsRegistry()
        target.incr("ops", 3.0, op="add")
        target.set_gauge("depth", 2.0)
        target.observe("lat", 1.5)
        target.absorb(MetricsRegistry().dump())
        assert target.counters() == {'ops{op="add"}': 3.0}
        assert target.gauges() == {"depth": 2.0}
        assert target.histograms()["lat"].count == 1

    def test_absorb_empty_histogram_dump_is_a_noop(self):
        h = Histogram()
        h.observe(5.0)
        h.absorb(Histogram().dump())
        assert h.count == 1
        assert h.min == 5.0 and h.max == 5.0
        assert h.is_exact

    def test_absorb_into_nonempty_merges_by_label_set(self):
        # Matching label sets aggregate; distinct label sets stay
        # distinguishable as their own series.
        target = MetricsRegistry()
        target.incr("msgs", 2.0, node=1)
        target.incr("msgs", 5.0, node=2)
        target.set_gauge("period", 3.0, node=1)
        source = MetricsRegistry()
        source.incr("msgs", 10.0, node=1)
        source.incr("msgs", 1.0, node=3)
        source.set_gauge("period", 7.0, node=1)
        source.set_gauge("period", 4.0, node=3)
        target.absorb(source.dump())
        assert target.counters() == {
            'msgs{node="1"}': 12.0,
            'msgs{node="2"}': 5.0,
            'msgs{node="3"}': 1.0,
        }
        # Gauges: incoming value wins on collision, new series appear.
        assert target.gauges() == {
            'period{node="1"}': 7.0,
            'period{node="3"}': 4.0,
        }

    @pytest.mark.usefixtures("small_sketch")
    def test_histogram_merge_stays_exact_under_threshold(self):
        a = Histogram()
        b = Histogram()
        for i in range(40):
            a.observe(float(i))
        for i in range(40, 100):
            b.observe(float(i))
        a.absorb(b.dump())
        # 40 + 60 = 100 retained values: exactly at the threshold, so
        # the merge keeps every observation and quantiles stay exact.
        assert a.is_exact
        assert a.count == 100
        assert a.quantile(0.5) == pytest.approx(49.5)

    @pytest.mark.usefixtures("small_sketch")
    def test_histogram_merge_crosses_threshold_into_reservoir(self):
        a = Histogram()
        b = Histogram()
        for i in range(60):
            a.observe(float(i))
        for i in range(60):
            b.observe(float(i + 60))
        assert a.is_exact and b.is_exact
        a.absorb(b.dump())
        # 60 + 60 = 120 > threshold: the merge downsamples into the
        # reservoir.  Moments stay exact; quantiles become estimates.
        assert not a.is_exact
        assert a.count == 120
        assert len(a._values) == 50
        assert a.sum == sum(range(120))
        assert a.min == 0.0 and a.max == 119.0

    def test_merge_weights_a_sketch_by_the_observations_it_stands_for(self):
        # 20 000 zeros kept as 1 024 sketch values, 2 000 hundreds kept
        # exactly: the merge must come out 91% zeros, as one histogram
        # observing all 22 000 values would.
        zeros, hundreds = Histogram(), Histogram()
        for _ in range(20_000):
            zeros.observe(0.0)
        for _ in range(2_000):
            hundreds.observe(100.0)
        assert not zeros.is_exact and hundreds.is_exact
        direct = Histogram()
        for v in [0.0] * 20_000 + [100.0] * 2_000:
            direct.observe(v)
        merged = Histogram()
        merged.absorb(zeros.dump())
        merged.absorb(hundreds.dump())
        assert merged.count == 22_000
        assert len(merged._values) == Histogram.RESERVOIR_SIZE
        for q in (0.5, 0.75, 0.9):
            assert merged.quantile(q) == direct.quantile(q) == 0.0
        assert sum(v == 100.0 for v in merged._values) == round(1024 * 2_000 / 22_000)

    @pytest.mark.usefixtures("small_sketch")
    def test_absorbing_a_sketched_dump_forces_sketching(self):
        a = Histogram()
        a.observe(1.0)
        b = Histogram()
        for i in range(200):
            b.observe(float(i))
        assert not b.is_exact
        a.absorb(b.dump())
        # One exact value + a sketched dump can never be exact again,
        # even though the retained values fit under the threshold.
        assert not a.is_exact
        assert a.count == 201

    def test_registry_absorb_creates_missing_histogram_series(self):
        source = MetricsRegistry()
        for i in range(10):
            source.observe("lat", float(i), lane="serve")
        target = MetricsRegistry()
        target.absorb(source.dump())
        merged = target.histograms()['lat{lane="serve"}']
        assert merged.count == 10
        assert merged.quantile(0.5) == pytest.approx(4.5)
