"""Tests for structured logging and the flight recorder (`repro.obs.log`)."""

import io
import json

import pytest

from repro.obs import log, names, trace


@pytest.fixture(autouse=True)
def clean_ring():
    log.clear()
    yield
    log.clear()
    log.uninstall_sink()
    log.set_console(None)


class TestEmit:
    def test_event_shape(self):
        event = log.emit(
            names.LOG_SERVE_READY, lane=names.LANE_SERVE, port=8080, host="x"
        )
        assert event["event"] == names.LOG_SERVE_READY
        assert event["lane"] == names.LANE_SERVE
        assert event["severity"] == "info"
        assert event["fields"] == {"port": 8080, "host": "x"}
        assert isinstance(event["pid"], int)
        assert "trace_id" not in event  # no ambient trace context

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            log.emit(names.LOG_SERVE_READY, severity="fatal")

    def test_trace_correlation(self):
        ctx = trace.new_root_context()
        with trace.attach(ctx):
            event = log.emit(names.LOG_SERVE_READY)
        assert event["trace_id"] == ctx.trace_id
        assert event["span_id"] == ctx.span_id

    def test_ring_is_bounded(self):
        for i in range(log.DEFAULT_RING_EVENTS + 50):
            log.emit(names.LOG_SERVE_READY, i=i)
        events = log.recent()
        assert len(events) == log.DEFAULT_RING_EVENTS
        # Oldest entries were evicted; the tail survives.
        assert events[-1]["fields"] == {"i": log.DEFAULT_RING_EVENTS + 49}

    def test_sink_writes_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with log.sink(str(path)):
            log.emit(names.LOG_SERVE_READY, port=1)
            log.emit(names.LOG_SERVE_STOPPED)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["event"] for e in lines] == [
            names.LOG_SERVE_READY,
            names.LOG_SERVE_STOPPED,
        ]

    def test_console_echo(self):
        stream = io.StringIO()
        log.set_console(stream)
        log.emit(names.LOG_SERVE_READY, severity="warning", port=9)
        assert stream.getvalue() == f"[warning] {names.LOG_SERVE_READY} port=9\n"


class TestFlightRecorder:
    def test_record_includes_ring_and_span_tail(self):
        with trace.installed():
            with trace.span(names.SPAN_RUNTIME_PERIOD, lane=names.LANE_ENGINE):
                pass
            log.emit(names.LOG_DEPLOY_WORKER_START, role="worker-0")
            record = log.flight_record("test crash")
        assert record["flight_record"] == 1
        assert record["reason"] == "test crash"
        assert [e["event"] for e in record["events"]] == [
            names.LOG_DEPLOY_WORKER_START
        ]
        assert [s["name"] for s in record["spans"]] == [names.SPAN_RUNTIME_PERIOD]

    def test_span_tail_is_bounded(self, monkeypatch):
        monkeypatch.setattr(log, "FLIGHT_SPANS", 3)
        with trace.installed() as tracer:
            for _ in range(10):
                with trace.span(names.SPAN_RUNTIME_PERIOD):
                    pass
            record = log.flight_record("x")
            assert len(tracer.spans()) == 10
        assert len(record["spans"]) == 3

    def test_span_tail_is_the_last_spans_past_the_tracer_cap(self, monkeypatch):
        monkeypatch.setattr(trace.Tracer, "MAX_SPANS", 200)
        with trace.installed() as tracer:
            for i in range(1000):
                with trace.span(names.SPAN_RUNTIME_PERIOD, index=i):
                    pass
            record = log.flight_record("x")
            kept = [s.attrs["index"] for s in tracer.spans()]
            assert kept == list(range(800, 1000)) and tracer.dropped == 800
        indices = [s["attrs"]["index"] for s in record["spans"]]
        assert indices == list(range(1000 - log.FLIGHT_SPANS, 1000))

    def test_dump_writes_artifact_and_logs_itself(self, tmp_path):
        path = tmp_path / "flight.json"
        log.emit(names.LOG_DEPLOY_WORKER_CRASH, severity="error", role="w")
        assert log.dump_flight(str(path), reason="boom") == str(path)
        record = json.loads(path.read_text())
        events = [e["event"] for e in record["events"]]
        assert events == [names.LOG_DEPLOY_WORKER_CRASH, names.LOG_FLIGHT_DUMP]
        assert record["reason"] == "boom"
