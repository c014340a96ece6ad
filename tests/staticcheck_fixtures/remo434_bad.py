"""Bait: span handle used outside a with statement (REMO434)."""

from repro.obs import names, trace


def work():
    handle = trace.span(names.SPAN_AGENT_WAVE)
    late = trace.span_since(names.SPAN_AGENT_WAVE, 0.0)
    return handle, late
