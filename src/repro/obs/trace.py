"""Lightweight span tracing for the planner, simulator, and runtime.

A :class:`Span` is one timed region -- the planner evaluating a ranked
candidate, a node agent's per-period wave, the collector scoring a
period -- carrying a name, wall-clock start/duration (from
``time.perf_counter``), free-form attributes, and enough identity
(pid, thread, optional *lane*) for the Chrome trace-event exporter to
draw one row per logical actor in Perfetto.

Tracing is off by default and costs one ``None`` check per
instrumentation site: ``span(...)`` returns a shared no-op context
manager until a :class:`Tracer` is installed (:func:`install` /
:func:`installed`).

Context propagation:

- **asyncio**: the current span lives in a ``contextvars.ContextVar``,
  which asyncio snapshots per task -- concurrent agent tasks each see
  their own span stack;
- **across processes**: a :class:`TraceContext` (128-bit trace id plus
  the sender's span id) travels on runtime envelopes and in W3C
  ``traceparent`` HTTP headers.  :func:`attach` adopts a received
  context so locally recorded spans join the remote trace, with their
  ``parent_id`` pointing at the remote span.  Span ids are minted from
  a per-process random base so ids stay unique after merging
  per-worker span artifacts into one trace.

``timer(...)`` is the span helper for code that needs the elapsed time
itself (``PlanningStats.elapsed_seconds``,
``AdaptationReport.planning_seconds``): it always measures, and
additionally records a span when tracing is enabled -- one helper in
place of the hand-rolled ``time.perf_counter()`` pairs it replaced.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Union

#: Parent span id for the calling context (asyncio-task scoped).
_CURRENT_SPAN: ContextVar[Optional[int]] = ContextVar("repro_obs_span", default=None)

#: Trace id for the calling context; spans recorded while set carry it.
_CURRENT_TRACE: ContextVar[Optional[str]] = ContextVar(
    "repro_obs_trace", default=None
)


@dataclass(frozen=True)
class TraceContext:
    """W3C-traceparent-style context: 128-bit trace id + parent span id.

    ``trace_id`` is 32 lowercase hex characters; ``span_id`` is the
    integer id of the span that was current when the context was
    captured (0 means "root of the trace, no parent span").
    """

    trace_id: str
    span_id: int = 0


def new_trace_id() -> str:
    """A fresh random 128-bit trace id (32 lowercase hex chars)."""
    return os.urandom(16).hex()


def new_root_context() -> TraceContext:
    """Mint a context starting a brand-new trace (no parent span)."""
    return TraceContext(trace_id=new_trace_id(), span_id=0)


def format_traceparent(ctx: TraceContext) -> str:
    """Render a context as a W3C ``traceparent`` header value."""
    return f"00-{ctx.trace_id}-{ctx.span_id & 0xFFFFFFFFFFFFFFFF:016x}-01"


def parse_traceparent(value: str) -> Optional[TraceContext]:
    """Parse a ``traceparent`` header; ``None`` on anything malformed."""
    parts = value.strip().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_hex, _flags = parts
    if len(version) != 2 or len(trace_id) != 32 or len(span_hex) != 16:
        return None
    try:
        int(version, 16)
        int(trace_id, 16)
        span_id = int(span_hex, 16)
    except ValueError:
        return None
    if trace_id == "0" * 32:
        return None
    return TraceContext(trace_id=trace_id.lower(), span_id=span_id)


def current_context() -> Optional[TraceContext]:
    """The context a child process/request should inherit, or ``None``.

    Captures the ambient trace id plus the *current* span id, so a
    context taken inside ``with span(...)`` links remote children to
    that span.
    """
    trace_id = _CURRENT_TRACE.get()
    if trace_id is None:
        return None
    return TraceContext(trace_id=trace_id, span_id=_CURRENT_SPAN.get() or 0)


@contextmanager
def attach(ctx: Optional[TraceContext]) -> Iterator[None]:
    """Adopt a received context: spans recorded inside join its trace.

    ``attach(None)`` is a cheap no-op so call sites can pass an
    envelope's (possibly absent) context unconditionally.
    """
    if ctx is None:
        yield
        return
    trace_token = _CURRENT_TRACE.set(ctx.trace_id)
    span_token = _CURRENT_SPAN.set(ctx.span_id or None)
    try:
        yield
    finally:
        _CURRENT_SPAN.reset(span_token)
        _CURRENT_TRACE.reset(trace_token)


@dataclass
class Span:
    """One finished timed region (or instant event, ``duration == 0``)."""

    name: str
    start: float  # time.perf_counter() at entry, seconds
    duration: float  # seconds; 0.0 for instant events
    attrs: Dict[str, object] = field(default_factory=dict)
    pid: int = 0
    tid: int = 0
    span_id: int = 0
    parent_id: Optional[int] = None
    kind: str = "span"  # "span" | "instant"
    lane: Optional[str] = None  # logical actor row for trace viewers
    trace_id: Optional[str] = None  # 32-hex distributed trace id


def _span_id_base() -> int:
    """A per-process random base keeping span ids unique across workers.

    32 random bits shifted left 32: each process can mint ~4 billion
    sequential ids before touching another base's range, and two
    processes collide only on a 2^-32 birthday event -- good enough for
    a deploy's handful of workers whose spans get merged into one
    Chrome trace.
    """
    return int.from_bytes(os.urandom(4), "big") << 32


class Tracer:
    """Collects finished spans; one per process (workers inherit a copy).

    Storage is bounded by ``MAX_SPANS``: once full, incoming spans are
    dropped (keep-first, so a trace's early structure survives) and
    counted both locally (:attr:`dropped`) and on the ambient metrics
    registry as ``trace_spans_dropped``.  :attr:`recent` holds the last
    ``log.FLIGHT_SPANS`` spans handed over, kept or dropped, for the
    flight recorder.
    """

    #: Soak runs must not OOM the tracer.
    MAX_SPANS = 100_000

    def __init__(self) -> None:
        from .log import FLIGHT_SPANS  # local: log imports this module

        self._spans: List[Span] = []
        self.recent: Deque[Span] = deque(maxlen=FLIGHT_SPANS)
        self._ids = itertools.count(_span_id_base() + 1)
        #: Spans discarded because the cap was hit.
        self.dropped = 0
        #: perf_counter at creation: exporters rebase timestamps on it.
        self.epoch = time.perf_counter()

    def next_id(self) -> int:
        return next(self._ids)

    def record(self, span: Span) -> None:
        self.recent.append(span)
        if len(self._spans) >= self.MAX_SPANS:
            self._drop(1)
            return
        self._spans.append(span)

    def _drop(self, count: int) -> None:
        self.dropped += count
        from .metrics import default_registry
        from . import names

        default_registry().incr(names.TRACE_SPANS_DROPPED, count)

    def ingest(self, spans: Iterable[Span]) -> None:
        """Merge spans recorded by another process (cap applies)."""
        room = self.MAX_SPANS - len(self._spans)
        incoming = list(spans)
        self.recent.extend(incoming)
        if len(incoming) > room:
            kept, lost = incoming[:room], len(incoming) - room
            self._spans.extend(kept)
            self._drop(lost)
        else:
            self._spans.extend(incoming)

    def spans(self) -> List[Span]:
        return list(self._spans)

    def drain(self) -> List[Span]:
        drained, self._spans = self._spans, []
        return drained

    def __len__(self) -> int:
        return len(self._spans)


#: The installed tracer; ``None`` keeps every span() call a no-op.
_TRACER: Optional[Tracer] = None


def active_tracer() -> Optional[Tracer]:
    return _TRACER


def install() -> Tracer:
    """Enable tracing process-wide with a fresh tracer; returns it."""
    global _TRACER
    _TRACER = Tracer()
    return _TRACER


@contextmanager
def installed() -> Iterator[Tracer]:
    """Scope a fresh tracer: install on entry, restore the previous on exit."""
    global _TRACER
    previous = _TRACER
    active = install()
    try:
        yield active
    finally:
        _TRACER = previous


class _NullSpan:
    """Shared no-op handle returned while tracing is disabled."""

    __slots__ = ()

    elapsed = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **attrs: object) -> None:
        return None

    def context(self) -> Optional[TraceContext]:
        return current_context()


_NULL_SPAN = _NullSpan()


class _PlainTimer:
    """timer() fallback while tracing is disabled: measures, records nothing."""

    __slots__ = ("elapsed", "_start")

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self) -> "_PlainTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.elapsed = time.perf_counter() - self._start
        return None

    def set(self, **attrs: object) -> None:
        return None

    def context(self) -> Optional[TraceContext]:
        return current_context()


class _LiveSpan:
    """Context manager recording one span into the installed tracer."""

    __slots__ = ("elapsed", "_tracer", "_name", "_attrs", "_lane", "_since", "_start",
                 "_span_id", "_parent_id", "_trace_id", "_token")

    def __init__(
        self,
        tracer: Tracer,
        name: str,
        attrs: Dict[str, object],
        lane: Optional[str],
        since: Optional[float] = None,
    ) -> None:
        self.elapsed = 0.0
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._lane = lane
        self._since = since

    def __enter__(self) -> "_LiveSpan":
        self._parent_id = _CURRENT_SPAN.get()
        self._trace_id = _CURRENT_TRACE.get()
        self._span_id = self._tracer.next_id()
        self._token = _CURRENT_SPAN.set(self._span_id)
        since = self._since
        self._start = time.perf_counter() if since is None else since
        return self

    def __exit__(self, *exc: object) -> None:
        end = time.perf_counter()
        self.elapsed = end - self._start
        _CURRENT_SPAN.reset(self._token)
        self._tracer.record(
            Span(
                name=self._name,
                start=self._start,
                duration=self.elapsed,
                attrs=self._attrs,
                pid=os.getpid(),
                tid=threading.get_ident(),
                span_id=self._span_id,
                parent_id=self._parent_id,
                kind="span",
                lane=self._lane,
                trace_id=self._trace_id,
            )
        )
        return None

    def set(self, **attrs: object) -> None:
        """Attach attributes discovered mid-span (e.g. a verdict)."""
        self._attrs.update(attrs)

    def context(self) -> Optional[TraceContext]:
        """A context pointing at *this* span, for stamping on envelopes."""
        if self._trace_id is None:
            return None
        return TraceContext(trace_id=self._trace_id, span_id=self._span_id)


#: What instrumentation sites receive: a context manager exposing
#: ``elapsed`` (seconds, after exit) and ``set(**attrs)``.
SpanHandle = Union["_NullSpan", "_PlainTimer", "_LiveSpan"]


def span(name: str, lane: Optional[str] = None, **attrs: object) -> SpanHandle:
    """A timed region; a shared no-op unless a tracer is installed.

    ``lane`` names the logical actor row (``node-3``, ``collector``,
    ``engine``) for the Chrome trace exporter; it is not an attribute.
    """
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return _LiveSpan(tracer, name, attrs, lane)


def span_since(
    name: str, start: float, lane: Optional[str] = None, **attrs: object
) -> SpanHandle:
    """A :func:`span` that opened at ``start`` (a ``time.perf_counter``
    reading taken earlier) and closes on exit.

    For a region whose two ends fall in different reactions of one
    event-driven actor, where no ``with`` block can span them: note the
    clock at the first, enter this at the second.  Parent and trace id
    come from the context at entry, as for :func:`span`.
    """
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return _LiveSpan(tracer, name, attrs, lane, since=start)


def timer(name: str, lane: Optional[str] = None, **attrs: object) -> SpanHandle:
    """Like :func:`span`, but the handle's ``elapsed`` is always measured."""
    tracer = _TRACER
    if tracer is None:
        return _PlainTimer()
    return _LiveSpan(tracer, name, attrs, lane)


def event(name: str, lane: Optional[str] = None, **attrs: object) -> None:
    """Record an instant event (a decision, not a duration)."""
    tracer = _TRACER
    if tracer is None:
        return
    tracer.record(
        Span(
            name=name,
            start=time.perf_counter(),
            duration=0.0,
            attrs=dict(attrs),
            pid=os.getpid(),
            tid=threading.get_ident(),
            span_id=tracer.next_id(),
            parent_id=_CURRENT_SPAN.get(),
            kind="instant",
            lane=lane,
            trace_id=_CURRENT_TRACE.get(),
        )
    )


def ingest(spans: Iterable[Span]) -> None:
    """Merge another process's spans into the tracer (no-op when disabled)."""
    tracer = _TRACER
    if tracer is not None:
        tracer.ingest(spans)
