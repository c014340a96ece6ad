"""In-memory spans for the traced run, recorded from benchmark files only.

A :class:`Recorder` keeps one record per call at a layer boundary --
name, start, end, the span that caused it, and a trace id shared by
everything belonging to one plan, period or request -- and writes them
out when the run ends.  A layer's *self time* is its span's duration
minus the part its child spans cover.

Two kinds of wrapper exist because the layers differ by four orders of
magnitude in call rate:

- :meth:`Recorder.wrap_span` records a full span (builders, forest
  builds, ranking, adaptation, control-plane calls);
- :meth:`Recorder.wrap_leaf` only counts and sums (the tree model's
  probes and mutations run hundreds of thousands of times per plan;
  one span each would cost more than the call).  Leaf time is still
  charged to the enclosing span as child time, so self times add up.

Nesting uses a plain stack: every wrapped function is synchronous and
runs to completion inside one event-loop callback, so spans opened by
one asyncio task never interleave with another's.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span record layout: name, start, end, parent index, trace id, child seconds.
_NAME, _START, _END, _PARENT, _TRACE, _CHILD = range(6)


class Recorder:
    """Spans plus leaf aggregates for one traced run."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        #: Leaf aggregates: name -> [calls, seconds, truthy results].
        self.leaves: Dict[str, List[float]] = {}
        self._in_leaf = False
        #: Trace id stamped on spans opened with no enclosing span.
        self.trace_id: Any = None

    # -- spans ---------------------------------------------------------
    def open(self, name: str, trace_id: Any = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if trace_id is None:
            trace_id = self.spans[parent][_TRACE] if parent >= 0 else self.trace_id
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent, trace_id, 0.0])
        self._stack.append(index)
        return index

    def close(self, index: int) -> float:
        """End span ``index``; returns its duration in seconds."""
        record = self.spans[index]
        record[_END] = perf_counter()
        self._stack.pop()
        duration = record[_END] - record[_START]
        if record[_PARENT] >= 0:
            self.spans[record[_PARENT]][_CHILD] += duration
        return duration

    def add(self, name: str, start: float, end: float, trace_id: Any = None) -> None:
        """Record a finished span measured elsewhere (asyncio boundaries)."""
        self.spans.append([name, start, end, -1, trace_id, 0.0])

    def wrap_span(
        self,
        name: str,
        fn: Callable[..., Any],
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` recorded as one span per call."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def wrap_leaf(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` counted and summed under ``name``, no span kept.

        A leaf called from inside another leaf (the model's mutators
        probe internally) is not timed again: the outer call owns the
        whole interval.
        """
        stats = self.leaves.setdefault(name, [0, 0.0, 0])

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                self._in_leaf = False
                stats[0] += 1
                stats[1] += elapsed
                if self._stack:
                    self.spans[self._stack[-1]][_CHILD] += elapsed
            if result is True:
                stats[2] += 1
            return result

        return wrapper

    # -- reading -------------------------------------------------------
    def calls(self, name: str) -> int:
        return sum(1 for record in self.spans if record[_NAME] == name)

    def total_seconds(self, name: str) -> float:
        return sum(r[_END] - r[_START] for r in self.spans if r[_NAME] == name)

    def self_seconds(self, name: str) -> float:
        return sum(
            r[_END] - r[_START] - r[_CHILD] for r in self.spans if r[_NAME] == name
        )

    def durations(self, name: str) -> List[float]:
        return [r[_END] - r[_START] for r in self.spans if r[_NAME] == name]

    def leaf(self, name: str) -> Tuple[int, float, int]:
        calls, seconds, truthy = self.leaves.get(name, (0, 0.0, 0))
        return int(calls), float(seconds), int(truthy)

    # -- output --------------------------------------------------------
    def dump(self, path: str, **header: Any) -> None:
        """Write every span and leaf aggregate to ``path`` as JSON."""
        payload = dict(header)
        payload["span_fields"] = ["name", "start", "end", "parent", "trace_id"]
        payload["spans"] = [
            [r[_NAME], r[_START], r[_END], r[_PARENT], r[_TRACE]] for r in self.spans
        ]
        payload["leaves"] = {
            name: {"calls": int(s[0]), "seconds": s[1], "truthy": int(s[2])}
            for name, s in sorted(self.leaves.items())
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")


class Patcher:
    """Attribute patches that can all be undone."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
