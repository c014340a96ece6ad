"""Tests for span tracing and the three exporters."""

import asyncio
import json
import time

import pytest

from repro.obs import trace
from repro.obs.export import (
    check_prometheus_text,
    chrome_trace_events,
    parse_prometheus_text,
    prometheus_text,
    read_jsonl_spans,
    span_from_dict,
    span_to_dict,
    write_chrome_trace,
    write_jsonl_spans,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer


class TestDisabledPath:
    def test_span_is_shared_noop(self):
        assert trace.active_tracer() is None
        a = trace.span("x")
        b = trace.span("y", lane="z", attr=1)
        assert a is b  # one shared handle, no allocation per call
        with a as handle:
            handle.set(k="v")
        assert a.elapsed == 0.0

    def test_timer_still_measures(self):
        with trace.timer("t") as t:
            sum(range(1000))
        assert t.elapsed > 0.0

    def test_event_and_ingest_are_noops(self):
        trace.event("nothing", k=1)
        trace.ingest([Span(name="s", start=0.0, duration=1.0)])


class TestRecording:
    def test_span_records_name_attrs_lane(self):
        with trace.installed() as tracer:
            with trace.span("work", lane="engine", size=3) as sp:
                sp.set(verdict="ok")
        spans = tracer.spans()
        assert len(spans) == 1
        span = spans[0]
        assert span.name == "work"
        assert span.lane == "engine"
        assert span.attrs == {"size": 3, "verdict": "ok"}
        assert span.duration > 0.0
        assert span.kind == "span"

    def test_nesting_records_parent_ids(self):
        with trace.installed() as tracer:
            with trace.span("outer"):
                with trace.span("inner"):
                    pass
        inner, outer = tracer.spans()  # inner closes first
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_event_links_to_enclosing_span(self):
        with trace.installed() as tracer:
            with trace.span("outer"):
                trace.event("decision", verdict="apply")
        event, outer = tracer.spans()
        assert event.kind == "instant"
        assert event.duration == 0.0
        assert event.parent_id == outer.span_id

    def test_span_since_opens_at_a_noted_clock_under_the_entry_context(self):
        assert trace.span_since("off", 0.0) is trace.span("off")  # the shared no-op
        ctx = trace.new_root_context()
        with trace.installed() as tracer:
            opened = time.perf_counter()
            sum(range(1000))
            with trace.attach(ctx):
                with trace.span_since("wave", opened, lane="node-1", tree="t0") as wave:
                    trace.event("inside")
                    stamped = wave.context()
        event, span = tracer.spans()
        assert (span.name, span.lane, span.attrs) == ("wave", "node-1", {"tree": "t0"})
        assert span.start == opened
        assert span.duration == pytest.approx(wave.elapsed) and span.duration > 0.0
        assert span.trace_id == ctx.trace_id and span.parent_id is None
        assert event.parent_id == span.span_id
        assert stamped == trace.TraceContext(ctx.trace_id, span.span_id)

    def test_installed_restores_previous(self):
        with trace.installed() as first:
            with trace.installed() as second:
                assert trace.active_tracer() is second
            assert trace.active_tracer() is first
        assert trace.active_tracer() is None

    def test_asyncio_tasks_have_independent_parents(self):
        async def worker(name):
            with trace.span(name):
                await asyncio.sleep(0)
                trace.event(f"{name}.mark")

        async def main():
            await asyncio.gather(worker("a"), worker("b"))

        with trace.installed() as tracer:
            asyncio.run(main())
        by_name = {s.name: s for s in tracer.spans()}
        # Each task's event is parented to its own span, not its
        # sibling's -- the contextvar is task-scoped.
        assert by_name["a.mark"].parent_id == by_name["a"].span_id
        assert by_name["b.mark"].parent_id == by_name["b"].span_id

    def test_worker_roundtrip_via_ingest(self):
        with trace.installed() as worker:
            with trace.span("worker-side"):
                pass
        with trace.installed() as tracer:
            trace.ingest(worker.spans())  # what a worker would send back
            assert [s.name for s in tracer.spans()] == ["worker-side"]


class TestJsonlRoundTrip:
    def test_span_dict_round_trip(self):
        span = Span(
            name="n",
            start=1.5,
            duration=0.25,
            attrs={"rank": 3},
            pid=10,
            tid=20,
            span_id=7,
            parent_id=6,
            kind="span",
            lane="planner",
        )
        assert span_from_dict(span_to_dict(span)) == span

    def test_file_round_trip(self, tmp_path):
        with trace.installed() as tracer:
            with trace.span("a", lane="x", k=1):
                pass
            trace.event("b")
        path = tmp_path / "spans.jsonl"
        write_jsonl_spans(tracer.spans(), str(path))
        assert read_jsonl_spans(str(path)) == tracer.spans()


class TestChromeTrace:
    def _sample_spans(self):
        with trace.installed() as tracer:
            for _ in range(3):
                with trace.span("tick", lane="engine"):
                    with trace.span("wave", lane="node-1"):
                        pass
            trace.event("accept", lane="planner")
        return tracer

    def test_written_file_is_valid_json(self, tmp_path):
        tracer = self._sample_spans()
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer.spans(), str(path), epoch=tracer.epoch)
        payload = json.loads(path.read_text())
        assert isinstance(payload["traceEvents"], list)
        assert payload["traceEvents"]

    def test_events_have_required_fields(self):
        tracer = self._sample_spans()
        events = chrome_trace_events(tracer.spans(), epoch=tracer.epoch)
        for event in events:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
            if event["ph"] != "M":
                assert event["ts"] >= 0.0

    def test_ts_monotonic_per_thread(self):
        tracer = self._sample_spans()
        events = chrome_trace_events(tracer.spans(), epoch=tracer.epoch)
        last = {}
        for event in events:
            if event["ph"] == "M":
                continue
            key = (event["pid"], event["tid"])
            assert event["ts"] >= last.get(key, 0.0)
            last[key] = event["ts"]

    def test_lanes_become_named_threads(self):
        tracer = self._sample_spans()
        events = chrome_trace_events(tracer.spans(), epoch=tracer.epoch)
        names = {
            e["args"]["name"] for e in events if e["ph"] == "M"
        }
        assert names == {"engine", "node-1", "planner"}
        # Distinct lanes map to distinct tids.
        tids = {e["tid"] for e in events if e["ph"] == "M"}
        assert len(tids) == 3


class TestPrometheus:
    def _registry(self):
        reg = MetricsRegistry()
        reg.incr("messages_sent", 3, node=1)
        reg.incr("messages_sent", 2, node=2)
        reg.set_gauge("coverage", 0.97)
        for v in [1.0, 2.0, 3.0]:
            reg.observe("latency_s", v)
        return reg

    def test_exposition_is_well_formed(self):
        text = prometheus_text(self._registry())
        assert check_prometheus_text(text) == []

    def test_type_comments_present(self):
        text = prometheus_text(self._registry())
        assert "# TYPE messages_sent counter" in text
        assert "# TYPE coverage gauge" in text
        assert "# TYPE latency_s summary" in text

    def test_parse_round_trip(self):
        text = prometheus_text(self._registry())
        samples = parse_prometheus_text(text)
        assert samples['messages_sent{node="1"}'] == 3.0
        assert samples['messages_sent{node="2"}'] == 2.0
        assert samples["coverage"] == 0.97
        assert samples["latency_s_count"] == 3.0
        assert samples["latency_s_sum"] == 6.0
        assert samples['latency_s{quantile="0.5"}'] == 2.0

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("this is not a sample line")

    def test_checker_flags_malformed_lines(self):
        problems = check_prometheus_text("ok_metric 1.0\nbroken{ 2.0\n")
        assert len(problems) == 1
        assert "line 2" in problems[0]

    def test_empty_registry_exports_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""


class TestTracerBasics:
    def test_ids_are_unique(self):
        tracer = Tracer()
        assert tracer.next_id() != tracer.next_id()


class TestBoundedTracer:
    def test_record_keeps_last_and_counts_drops(self, monkeypatch):
        from repro.obs import names
        from repro.obs.metrics import use_registry

        registry = MetricsRegistry()
        monkeypatch.setattr(Tracer, "MAX_SPANS", 2)
        tracer = Tracer()
        with use_registry(registry):
            for i in range(5):
                tracer.record(Span(name=f"s{i}", start=float(i), duration=0.1))
        assert [s.name for s in tracer.spans()] == ["s3", "s4"]
        assert tracer.dropped == 3
        assert registry.counter(names.TRACE_SPANS_DROPPED) == 3

    def test_ingest_respects_cap(self, monkeypatch):
        from repro.obs import names
        from repro.obs.metrics import use_registry

        registry = MetricsRegistry()
        monkeypatch.setattr(Tracer, "MAX_SPANS", 3)
        tracer = Tracer()
        tracer.record(Span(name="own", start=0.0, duration=0.1))
        with use_registry(registry):
            tracer.ingest(
                Span(name=f"w{i}", start=float(i), duration=0.1) for i in range(4)
            )
        assert [s.name for s in tracer.spans()] == ["w1", "w2", "w3"]
        assert tracer.dropped == 2
        assert registry.counter(names.TRACE_SPANS_DROPPED) == 2


class TestTraceContext:
    def test_traceparent_round_trip(self):
        ctx = trace.new_root_context()
        assert ctx.span_id == 0
        parsed = trace.parse_traceparent(trace.format_traceparent(ctx))
        assert parsed == ctx

    @pytest.mark.parametrize(
        "value",
        [
            "",
            "junk",
            "00-short-0000000000000001-01",
            "00-" + "0" * 32 + "-0000000000000001-01",  # all-zero trace id
            "00-" + "g" * 32 + "-0000000000000001-01",  # non-hex
            "00-" + "a" * 32 + "-xyz-01",
            "00-+" + "a" * 31 + "-0000000000000000-01",  # signed trace id
            "00-" + "a" * 32 + "-" + "\u0661" * 16 + "-01",  # Arabic-Indic digits
            "+0-" + "a" * 32 + "-0000000000000001-01",  # signed version
            "00-" + "a" * 32 + "-0000000000000001-zz",  # non-hex flags
        ],
    )
    def test_malformed_traceparent_returns_none(self, value):
        assert trace.parse_traceparent(value) is None

    def test_attach_sets_current_context(self):
        assert trace.current_context() is None
        ctx = trace.new_root_context()
        with trace.attach(ctx):
            assert trace.current_context() == ctx
        assert trace.current_context() is None

    def test_attach_none_is_noop(self):
        with trace.attach(None):
            assert trace.current_context() is None

    def test_spans_join_the_attached_trace(self):
        ctx = trace.new_root_context()
        with trace.installed() as tracer:
            with trace.attach(ctx):
                with trace.span("outer") as outer:
                    child_ctx = outer.context()
                    with trace.span("inner"):
                        pass
                    trace.event("mark")
        spans = {s.name: s for s in tracer.spans()}
        assert spans["outer"].trace_id == ctx.trace_id
        assert spans["outer"].parent_id is None
        assert child_ctx is not None and child_ctx.trace_id == ctx.trace_id
        assert spans["inner"].trace_id == ctx.trace_id
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["mark"].trace_id == ctx.trace_id

    def test_trace_id_survives_jsonl_round_trip(self, tmp_path):
        ctx = trace.new_root_context()
        with trace.installed() as tracer:
            with trace.attach(ctx):
                with trace.span("x"):
                    pass
        path = tmp_path / "spans.jsonl"
        write_jsonl_spans(tracer.spans(), str(path))
        (loaded,) = read_jsonl_spans(str(path))
        assert loaded.trace_id == ctx.trace_id

    def test_tasks_inherit_context_at_spawn_time(self):
        # asyncio tasks snapshot contextvars at creation: attaching
        # around ensure_future is how tick handlers hand the period's
        # trace to their wave tasks.
        ctx = trace.new_root_context()

        async def wave(tracer):
            with trace.span("wave"):
                await asyncio.sleep(0)

        async def scenario():
            with trace.installed() as tracer:
                with trace.attach(ctx):
                    task = asyncio.ensure_future(wave(tracer))
                await task
                return tracer.spans()

        (span,) = asyncio.run(scenario())
        assert span.trace_id == ctx.trace_id
