"""REMO41x (continued): socket-hygiene rules for ``repro.net`` code.

A leaked :class:`asyncio.StreamWriter` or server keeps its socket (and
often a protocol task) alive until garbage collection, which on a busy
event loop can be arbitrarily far away -- long enough to exhaust file
descriptors in a soak run.  REMO415 requires every stream handle the
function *owns* to be released on a statically visible path: a
``close()``/``wait_closed()`` call, a ``with``/``async with`` block,
or an escape that hands ownership elsewhere (stored on an attribute,
passed to a call, returned).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.staticcheck.astutil import dotted_name
from repro.staticcheck.context import AnalysisContext, ModuleUnderAnalysis
from repro.staticcheck.diagnostics import LintDiagnostic
from repro.staticcheck.registry import Rule, rule

#: Dotted call targets that hand the caller a socket-owning handle.
#: ``open_connection`` yields ``(reader, writer)`` -- the *writer* owns
#: the transport; ``start_server`` yields the server object itself.
STREAM_TUPLE_FACTORIES = {"asyncio.open_connection"}
STREAM_FACTORIES = {"asyncio.start_server"}

#: The protocol-style listener is an event-loop *method*
#: (``loop.create_server``), so it matches on the attribute name
#: whatever the receiver.
LOOP_SERVER_METHODS = {"create_server"}

#: Method calls that count as releasing the handle.
RELEASE_METHODS = {"close", "wait_closed", "abort", "aclose"}


def _alias_map(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted origin (same resolution as REMO411)."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def _resolved_dotted(node: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    dotted = dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    head = aliases.get(head, head)
    return f"{head}.{rest}" if rest else head


def _unwrap_await(node: ast.expr) -> ast.expr:
    return node.value if isinstance(node, ast.Await) else node


def _function_nodes(tree: ast.Module) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _own_body(func: ast.AST) -> Iterator[ast.AST]:
    """Walk the function body without descending into nested defs."""
    stack: List[ast.AST] = list(getattr(func, "body", []))
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.append(child)


def _acquired_handles(
    func: ast.AST, aliases: Dict[str, str]
) -> Iterator[Tuple[str, int, int, str]]:
    """Yield ``(name, line, col, factory)`` for stream handles bound to
    bare names in ``func``.

    Handles landing anywhere other than a plain name (an attribute, a
    subscript) already escape to longer-lived state and are someone
    else's to close.
    """
    for node in _own_body(func):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        call = _unwrap_await(node.value)
        if not isinstance(call, ast.Call):
            continue
        dotted = _resolved_dotted(call.func, aliases)
        method = call.func.attr if isinstance(call.func, ast.Attribute) else None
        target = node.targets[0]
        if dotted in STREAM_TUPLE_FACTORIES:
            # reader, writer = await asyncio.open_connection(...)
            if isinstance(target, (ast.Tuple, ast.List)) and len(target.elts) == 2:
                writer = target.elts[1]
                if isinstance(writer, ast.Name):
                    yield writer.id, node.lineno, node.col_offset + 1, dotted
        elif dotted in STREAM_FACTORIES or method in LOOP_SERVER_METHODS:
            if isinstance(target, ast.Name):
                yield target.id, node.lineno, node.col_offset + 1, dotted or method


def _released_names(func: ast.AST) -> Set[str]:
    """Names the function visibly closes, hands off, or scopes."""
    released: Set[str] = set()
    for node in _own_body(func):
        if isinstance(node, ast.Call):
            # writer.close() / await server.wait_closed()
            if (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.attr in RELEASE_METHODS
            ):
                released.add(node.func.value.id)
            # Escape: the handle passed whole to any call.
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(arg, ast.Name):
                    released.add(arg.id)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                expr = _unwrap_await(item.context_expr)
                if isinstance(expr, ast.Name):
                    released.add(expr.id)
        elif isinstance(node, ast.Assign):
            # Escape: re-homed onto an attribute/subscript or another
            # binding that may itself be closed later.
            if isinstance(node.value, ast.Name):
                released.add(node.value.id)
        elif isinstance(node, (ast.Return, ast.Yield)) and node.value is not None:
            value = node.value
            elements = value.elts if isinstance(value, (ast.Tuple, ast.List)) else [value]
            for element in elements:
                if isinstance(element, ast.Name):
                    released.add(element.id)
    return released


@rule
class UnclosedStreamHandleRule(Rule):
    code = "REMO415"
    title = "stream writer/server never closed"
    family = "async-safety"
    hint = (
        "close the handle on every path: `async with`, a finally block "
        "calling close()/wait_closed(), or hand it to an owner that does"
    )

    def check(
        self, module: ModuleUnderAnalysis, ctx: AnalysisContext
    ) -> Iterator[LintDiagnostic]:
        aliases = _alias_map(module.tree)
        for func in _function_nodes(module.tree):
            acquired = list(_acquired_handles(func, aliases))
            if not acquired:
                continue
            released = _released_names(func)
            for name, line, col, factory in acquired:
                if name in released:
                    continue
                yield self.diagnostic(
                    module,
                    line,
                    col,
                    f"{factory}() handle {name!r} is never closed in "
                    f"{func.name}(); the socket stays open until garbage "
                    "collection",
                )
