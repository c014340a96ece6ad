"""REMO42x: interleaving hazards across ``await`` points.

An asyncio coroutine can be preempted at every ``await`` -- and only
there.  That makes the hazardous pattern precise: *read* shared
instance state, ``await``, then *write* it back.  Whatever interleaved
during the await is silently overwritten (the textbook lost update,
minus threads).

The rule analyzes every class that has at least one coroutine method
(the analysis context's class tables say which).  Within each
coroutine it linearizes attribute events by source line: a ``self.x``
load is a READ, a ``self.x = ...`` / ``self.x += ...`` store is a
WRITE, and a mutating method call (``self.x.clear()``,
``self.x.append(...)``) or subscript store (``self.x[k] = v``) is
both.  A READ at line *r* and WRITE at line *w* with an ``await``
strictly between fires REMO421.

False positives have an escape hatch that doubles as documentation:
``# noqa: REMO421`` on the write line, with a comment explaining the
single-writer argument.  Holding a lock is recognized structurally --
anything inside ``async with`` is exempt, since the await points under
a lock are ordered by it.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.staticcheck.context import AnalysisContext, ModuleUnderAnalysis
from repro.staticcheck.diagnostics import LintDiagnostic
from repro.staticcheck.registry import Rule, rule

#: Method names that mutate the container they are called on.
MUTATING_METHODS = {
    "add",
    "append",
    "appendleft",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "setdefault",
    "update",
}


def _attr_events(
    func: ast.AsyncFunctionDef, instance_attrs: Set[str]
) -> Tuple[Dict[str, List[Tuple[int, str]]], List[int]]:
    """Per-attribute (line, "read"/"write") events plus await lines.

    Nested ``def``/``async def`` bodies are skipped (they execute in
    their own frame); everything under ``async with`` is skipped too,
    because a held lock orders the await points it contains.
    """
    events: Dict[str, List[Tuple[int, str]]] = {}
    awaits: List[int] = []

    def record(attr: str, line: int, kind: str) -> None:
        if attr in instance_attrs:
            events.setdefault(attr, []).append((line, kind))

    def is_self_attr(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.AsyncWith):
            # Locked region: analyze nothing inside it; the lock is the
            # justification the rule asks for.
            return
        if isinstance(node, ast.Await):
            awaits.append(node.lineno)
        elif isinstance(node, ast.Attribute) and is_self_attr(node):
            if isinstance(node.ctx, ast.Store):
                record(node.attr, node.lineno, "write")
            elif isinstance(node.ctx, ast.Del):
                record(node.attr, node.lineno, "write")
            else:
                record(node.attr, node.lineno, "read")
        elif isinstance(node, ast.AugAssign) and is_self_attr(node.target):
            target = node.target
            assert isinstance(target, ast.Attribute)
            record(target.attr, node.lineno, "read")
            record(target.attr, node.lineno, "write")
            visit(node.value)
            return
        elif isinstance(node, ast.Call):
            func_expr = node.func
            if (
                isinstance(func_expr, ast.Attribute)
                and func_expr.attr in MUTATING_METHODS
                and is_self_attr(func_expr.value)
            ):
                inner = func_expr.value
                assert isinstance(inner, ast.Attribute)
                record(inner.attr, node.lineno, "read")
                record(inner.attr, node.lineno, "write")
                for arg in [*node.args, *node.keywords]:
                    visit(arg)
                return
        elif isinstance(node, ast.Subscript) and is_self_attr(node.value):
            inner = node.value
            assert isinstance(inner, ast.Attribute)
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                record(inner.attr, node.lineno, "read")
                record(inner.attr, node.lineno, "write")
            else:
                record(inner.attr, node.lineno, "read")
            visit(node.slice)
            return
        for child in ast.iter_child_nodes(node):
            visit(child)

    for stmt in func.body:
        visit(stmt)
    return events, awaits


@rule
class AwaitInterleavingRule(Rule):
    code = "REMO421"
    title = "instance attribute read-modify-written across an await"
    family = "interleaving"
    hint = (
        "whatever ran during the await is overwritten (lost update); hold an "
        "asyncio.Lock across the read-modify-write, restructure so the write "
        "precedes the await, or document the single-writer argument with "
        "'# noqa: REMO421 -- <why>'"
    )

    def check(
        self, module: ModuleUnderAnalysis, ctx: AnalysisContext
    ) -> Iterator[LintDiagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            # Any module's class of this name: class names are unique
            # enough here.
            class_attrs = ctx.class_attrs.get(node.name)
            if not class_attrs:
                continue
            for item in node.body:
                if not isinstance(item, ast.AsyncFunctionDef):
                    continue
                yield from self._check_coroutine(module, node.name, item, class_attrs)

    def _check_coroutine(
        self,
        module: ModuleUnderAnalysis,
        class_name: str,
        func: ast.AsyncFunctionDef,
        instance_attrs: Set[str],
    ) -> Iterator[LintDiagnostic]:
        events, awaits = _attr_events(func, instance_attrs)
        if not awaits:
            return
        for attr, attr_events in sorted(events.items()):
            reads = [line for line, kind in attr_events if kind == "read"]
            writes = [line for line, kind in attr_events if kind == "write"]
            hit = None
            for r in reads:
                for w in writes:
                    if r < w and any(r < a < w for a in awaits):
                        hit = (r, w)
                        break
                if hit:
                    break
            if hit is None:
                continue
            r, w = hit
            yield self.diagnostic(
                module,
                w,
                1,
                f"{class_name}.{attr} is read (line {r}) and written "
                f"(line {w}) across an await point in {func.name}(); "
                "interleaved coroutines can be lost-updated",
            )
