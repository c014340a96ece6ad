"""Bait: metric names not in the manifest (REMO431)."""

from repro.obs import names


def record(metrics):
    metrics.incr("definitely_not_declared")
    metrics.observe(names.SPAN_AGENT_WAVE, 1.0)  # a span name is not a metric
    metrics.bind_counter("bound_but_not_declared")
