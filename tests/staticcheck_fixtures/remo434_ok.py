"""Clean: spans as with-contexts; events are fire-and-forget."""

from repro.obs import names, trace


def work():
    with trace.timer(names.SPAN_AGENT_WAVE) as t:
        trace.event(names.EVENT_PLANNER_ACCEPT)
    with trace.span_since(names.SPAN_AGENT_WAVE, 0.0):
        pass
    return t
