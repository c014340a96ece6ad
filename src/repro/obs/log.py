"""Structured logging with trace correlation, plus a flight recorder.

Ad-hoc ``print`` diagnostics do not survive multi-process deploys: a
worker's stdout is interleaved with its siblings', carries no trace
identity, and vanishes when the process is SIGKILLed.  This module
replaces them with structured events:

- :func:`emit` records one event -- a manifest-declared name
  (``obs/names.py`` ``LOG_*`` constants), a lane, a severity,
  free-form fields, and the ambient
  :class:`~repro.obs.trace.TraceContext` so log lines correlate with
  spans in the merged trace;
- every event always lands in a bounded in-process ring buffer (the
  **flight recorder**), so the last moments before a crash are
  recoverable even when no sink was configured;
- optionally, :func:`install_sink` tees events to a JSONL file
  (one object per line) for post-run analysis, and :func:`console`
  echoes human-readable lines to a stream for interactive use.

:func:`dump_flight` snapshots the ring plus the last spans handed to
the installed tracer to a JSON artifact.  ``repro deploy`` triggers it on
worker crash, on chaos-kill restart (from the supervisor -- a
SIGKILLed child cannot dump its own), and on REMO check failure; the
artifact path is referenced from the merged deploy report.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from contextlib import contextmanager
from typing import Deque, Dict, IO, Iterator, List, Optional

from . import names
from .trace import active_tracer, current_context

#: Events retained in the per-process flight-recorder ring.
DEFAULT_RING_EVENTS = 256

#: Spans a flight dump captures: the last ones handed to the installed
#: tracer, whether its keep-first storage kept them or not.
FLIGHT_SPANS = 128

SEVERITIES = ("debug", "info", "warning", "error")

_RING: Deque[Dict[str, object]] = deque(maxlen=DEFAULT_RING_EVENTS)
_SINK: Optional[IO[str]] = None
_CONSOLE: Optional[IO[str]] = None


def emit(
    name: str,
    lane: Optional[str] = None,
    severity: str = "info",
    **fields: object,
) -> Dict[str, object]:
    """Record one structured event; returns the event dict.

    Always lands in the flight-recorder ring; additionally written as
    one JSONL line when a sink is installed, and echoed human-readably
    when a console stream is set.
    """
    if severity not in SEVERITIES:
        raise ValueError(f"unknown severity {severity!r}, expected {SEVERITIES}")
    event: Dict[str, object] = {
        "event": name,
        "wall": time.time(),
        "monotonic": time.perf_counter(),
        "pid": os.getpid(),
        "severity": severity,
    }
    if lane is not None:
        event["lane"] = lane
    ctx = current_context()
    if ctx is not None:
        event["trace_id"] = ctx.trace_id
        event["span_id"] = ctx.span_id
    if fields:
        event["fields"] = fields
    _RING.append(event)
    if _SINK is not None:
        _SINK.write(json.dumps(event, sort_keys=True, default=str) + "\n")
        _SINK.flush()
    if _CONSOLE is not None:
        detail = " ".join(f"{k}={v}" for k, v in sorted(fields.items()))
        _CONSOLE.write(f"[{severity}] {name}{' ' + detail if detail else ''}\n")
        _CONSOLE.flush()
    return event


def recent() -> List[Dict[str, object]]:
    """The flight-recorder ring, oldest first (copies, safe to mutate)."""
    return [dict(event) for event in _RING]


def clear() -> None:
    """Empty the ring (test isolation)."""
    _RING.clear()


def install_sink(path: str) -> None:
    """Tee subsequent events to ``path`` as JSONL (append mode)."""
    global _SINK
    uninstall_sink()
    _SINK = open(path, "a", encoding="utf-8")


def uninstall_sink() -> None:
    global _SINK
    if _SINK is not None:
        _SINK.close()
        _SINK = None


@contextmanager
def sink(path: str) -> Iterator[None]:
    """Scope a JSONL sink: install on entry, close on exit."""
    install_sink(path)
    try:
        yield
    finally:
        uninstall_sink()


def set_console(stream: Optional[IO[str]]) -> None:
    """Echo events human-readably to ``stream`` (``None`` disables)."""
    global _CONSOLE
    _CONSOLE = stream


def flight_record(reason: str) -> Dict[str, object]:
    """Snapshot the ring plus the tracer's span tail for a crash dump."""
    from .export import span_to_dict  # local: export imports nothing back

    tracer = active_tracer()
    spans: List[Dict[str, object]] = []
    if tracer is not None:
        spans = [span_to_dict(s) for s in tracer.recent]
    return {
        "flight_record": 1,
        "reason": reason,
        "pid": os.getpid(),
        "wall": time.time(),
        "events": recent(),
        "spans": spans,
    }


def dump_flight(path: str, reason: str) -> str:
    """Write a flight record to ``path`` (atomic rename); returns path."""
    record = flight_record(reason)
    emit(names.LOG_FLIGHT_DUMP, severity="warning", reason=reason, path=path)
    record["events"] = recent()  # include the dump event itself
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    os.replace(tmp, path)
    return path
