"""REMO43x: observability consistency against the name manifest.

Dashboards and exporters key on metric, span, and lane *strings*.  A
typo at one ``incr`` site does not fail any test -- it silently forks a
second time series.  The contract these rules enforce: every name used
at an instrumentation site is declared in ``repro/obs/names.py`` (the
manifest the analysis context statically extracts -- parsed, never
imported).

- REMO431: metric-registry calls (``incr``/``observe``/``counter``/...)
  must use a declared metric name;
- REMO432: ``trace.span``/``span_since``/``timer``/``event`` must use
  a declared span/event name;
- REMO433: ``lane=`` must be a declared lane, a declared-prefix
  f-string, or a manifest lane helper (``names.node_lane(...)``);
- REMO434: ``trace.span``/``span_since``/``timer`` return context
  managers that record on *exit* -- calling one outside a ``with``
  header produces a span that never closes;
- REMO435: ``log.emit`` must use a declared structured-log event name
  (the manifest's ``LOG_EVENTS`` set) -- ad-hoc event strings fragment
  the flight-recorder ring and every JSONL log pipeline keyed on them.

Dynamic names (a lowercase variable forwarded through a shim) are
deliberately skipped: the rules check what is statically checkable and
stay silent otherwise.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.staticcheck.astutil import call_name, is_upper_constant_ref, keyword_arg
from repro.staticcheck.context import AnalysisContext, ModuleUnderAnalysis
from repro.staticcheck.diagnostics import LintDiagnostic
from repro.staticcheck.registry import Rule, rule

#: Registry methods whose first positional argument is a metric name.
METRIC_CALL_NAMES = {
    "incr",
    "set_gauge",
    "observe",
    "counter",
    "bind_counter",
    "gauge",
    "histogram",
    "bump",
}

#: ``trace.<attr>`` entry points whose first argument is a span name.
TRACE_CALL_NAMES = {"span", "span_since", "timer", "event"}

#: The manifest itself declares the names; its own literals are exempt.
MANIFEST_SUFFIX = "repro/obs/names.py"


def _is_manifest(module: ModuleUnderAnalysis) -> bool:
    return module.path.as_posix().endswith(MANIFEST_SUFFIX)


def _is_trace_call(node: ast.Call) -> Optional[str]:
    """The entry point's name (``"span"``, ``"timer"``, ...) when
    ``node`` is a ``trace.<attr>(...)`` call, else ``None``."""
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in TRACE_CALL_NAMES
        and isinstance(func.value, ast.Name)
        and func.value.id == "trace"
    ):
        return func.attr
    return None


def _is_log_emit(node: ast.Call) -> bool:
    """True for ``log.emit(...)`` -- the structured-logging entry point."""
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "emit"
        and isinstance(func.value, ast.Name)
        and func.value.id == "log"
    )


def _declared_name(node: ast.expr, ctx: AnalysisContext) -> Optional[str]:
    """The manifest-resolved string for a name argument.

    A string literal resolves to itself; an UPPER_CASE constant ref
    resolves through the manifest's symbol table.  Anything else
    (a lowercase variable, a call) returns ``None`` -- not statically
    checkable, so the rules skip it.
    """
    assert ctx.obs is not None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    symbol = is_upper_constant_ref(node)
    if symbol is not None:
        return ctx.obs.symbols.get(symbol, f"<undeclared symbol {symbol}>")
    return None


@rule
class UndeclaredMetricNameRule(Rule):
    code = "REMO431"
    title = "metric name not declared in the obs manifest"
    family = "obs-consistency"
    hint = (
        "declare the name in repro/obs/names.py (and its METRICS set) and "
        "reference the constant; ad-hoc strings silently fork time series"
    )

    def check(
        self, module: ModuleUnderAnalysis, ctx: AnalysisContext
    ) -> Iterator[LintDiagnostic]:
        if ctx.obs is None or _is_manifest(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            if _is_trace_call(node) is not None:
                continue  # REMO432's jurisdiction
            if call_name(node) not in METRIC_CALL_NAMES:
                continue
            name = _declared_name(node.args[0], ctx)
            if name is not None and name not in ctx.obs.metrics:
                yield self.diagnostic(
                    module,
                    node.lineno,
                    node.col_offset + 1,
                    f"metric name {name!r} is not declared in "
                    "repro/obs/names.py (METRICS)",
                )


@rule
class UndeclaredSpanNameRule(Rule):
    code = "REMO432"
    title = "span/event name not declared in the obs manifest"
    family = "obs-consistency"
    hint = (
        "declare the name in repro/obs/names.py (and its SPANS set) and "
        "reference the constant"
    )

    def check(
        self, module: ModuleUnderAnalysis, ctx: AnalysisContext
    ) -> Iterator[LintDiagnostic]:
        if ctx.obs is None or _is_manifest(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            if _is_trace_call(node) is None:
                continue
            name = _declared_name(node.args[0], ctx)
            if name is not None and name not in ctx.obs.spans:
                yield self.diagnostic(
                    module,
                    node.lineno,
                    node.col_offset + 1,
                    f"span name {name!r} is not declared in "
                    "repro/obs/names.py (SPANS)",
                )


@rule
class UndeclaredLaneRule(Rule):
    code = "REMO433"
    title = "trace lane not declared in the obs manifest"
    family = "obs-consistency"
    hint = (
        "use a LANE_* constant, the lane helper (names.node_lane), or "
        "an f-string starting with a declared prefix"
    )

    def check(
        self, module: ModuleUnderAnalysis, ctx: AnalysisContext
    ) -> Iterator[LintDiagnostic]:
        if ctx.obs is None or _is_manifest(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if _is_trace_call(node) is None:
                continue
            lane = keyword_arg(node, "lane")
            if lane is None:
                continue
            problem = self._lane_problem(lane, ctx)
            if problem is not None:
                yield self.diagnostic(
                    module, lane.lineno, lane.col_offset + 1, problem
                )

    def _lane_problem(self, lane: ast.expr, ctx: AnalysisContext) -> Optional[str]:
        assert ctx.obs is not None
        resolved = _declared_name(lane, ctx)
        if resolved is not None:
            if resolved in ctx.obs.lanes:
                return None
            if any(resolved.startswith(p) for p in ctx.obs.lane_prefixes):
                return None
            return (
                f"lane {resolved!r} is not declared in repro/obs/names.py "
                "(LANES / LANE_PREFIXES)"
            )
        if isinstance(lane, ast.JoinedStr):
            head = lane.values[0] if lane.values else None
            leading = (
                head.value
                if isinstance(head, ast.Constant) and isinstance(head.value, str)
                else ""
            )
            if any(leading.startswith(p) for p in ctx.obs.lane_prefixes):
                return None
            return (
                f"f-string lane starting with {leading!r} matches no declared "
                "lane prefix; add the prefix to repro/obs/names.py or use a "
                "lane helper"
            )
        if isinstance(lane, ast.Call):
            helper = call_name(lane)
            if helper is not None and helper in ctx.obs.lane_helpers:
                return None
            return (
                f"lane computed by {helper or 'an expression'}() which is not "
                "a manifest lane helper (node_lane)"
            )
        # A plain variable: dynamic, not statically checkable.
        return None


@rule
class UndeclaredLogEventRule(Rule):
    code = "REMO435"
    title = "log event name not declared in the obs manifest"
    family = "obs-consistency"
    hint = (
        "declare the event in repro/obs/names.py (and its LOG_EVENTS set) "
        "and reference the LOG_* constant; ad-hoc strings fragment the "
        "flight-recorder and JSONL log streams"
    )

    def check(
        self, module: ModuleUnderAnalysis, ctx: AnalysisContext
    ) -> Iterator[LintDiagnostic]:
        if ctx.obs is None or _is_manifest(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            if not _is_log_emit(node):
                continue
            name = _declared_name(node.args[0], ctx)
            if name is not None and name not in ctx.obs.log_events:
                yield self.diagnostic(
                    module,
                    node.lineno,
                    node.col_offset + 1,
                    f"log event name {name!r} is not declared in "
                    "repro/obs/names.py (LOG_EVENTS)",
                )


@rule
class SpanNotContextManagedRule(Rule):
    code = "REMO434"
    title = "trace.span/timer call not used as a with-context"
    family = "obs-consistency"
    hint = (
        "spans record duration on context exit; write "
        "'with trace.span(...):' (trace.event is the fire-and-forget form)"
    )

    def check(
        self, module: ModuleUnderAnalysis, ctx: AnalysisContext
    ) -> Iterator[LintDiagnostic]:
        # Obs manifest not required: this is a structural rule.
        if _is_manifest(module):
            return
        with_contexts: Set[int] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_contexts.add(id(item.context_expr))
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            kind = _is_trace_call(node)
            if kind is None or kind == "event":
                continue
            if id(node) in with_contexts:
                continue
            yield self.diagnostic(
                module,
                node.lineno,
                node.col_offset + 1,
                f"trace.{kind}(...) is not the context expression of a with "
                "statement; the span will never close (use trace.event for "
                "fire-and-forget marks)",
            )
