"""Unified telemetry for the REMO reproduction.

One cross-cutting layer shared by planning, simulation, and the live
runtime (see DESIGN.md, "Telemetry architecture"):

- :mod:`repro.obs.metrics` -- the process-wide
  :class:`MetricsRegistry` of labeled counters, gauges, and
  histograms; :class:`~repro.runtime.metrics.RuntimeMetrics` and
  :class:`~repro.core.planner.PlanningStats` are snapshots of it;
- :mod:`repro.obs.trace` -- lightweight span tracing
  (``with trace.span("partition.merge_iteration", candidates=k):``)
  with asyncio-task and forked-worker context propagation, plus
  :class:`~repro.obs.trace.TraceContext` for cross-process trace
  identity (runtime envelopes, ``traceparent`` HTTP headers);
- :mod:`repro.obs.log` -- structured JSONL events with lane/severity/
  trace correlation and the bounded flight-recorder ring dumped on
  crashes;
- :mod:`repro.obs.export` -- pluggable exporters: JSONL event log,
  Prometheus text-format snapshot, and Chrome trace-event JSON for
  ``about:tracing`` / Perfetto.

Wired through the CLI as ``--trace PATH`` / ``--metrics PATH`` on
``plan``/``simulate``/``adapt``/``run``/``deploy``/``serve`` plus the
``repro trace`` render subcommand.
"""

from repro.obs import log, trace
from repro.obs.export import (
    check_prometheus_text,
    parse_prometheus_text,
    prometheus_text,
    read_jsonl_spans,
    write_chrome_trace,
    write_jsonl_spans,
    write_prometheus,
)
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    default_registry,
    set_default_registry,
    use_registry,
)
from repro.obs.trace import Span, TraceContext, Tracer

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "Span",
    "TraceContext",
    "Tracer",
    "check_prometheus_text",
    "default_registry",
    "log",
    "parse_prometheus_text",
    "prometheus_text",
    "read_jsonl_spans",
    "set_default_registry",
    "trace",
    "use_registry",
    "write_chrome_trace",
    "write_jsonl_spans",
    "write_prometheus",
]
