"""REMO41x: async-safety rules for the runtime's event-loop code.

The live runtime is one event loop running dozens of agent coroutines;
the classic ways to break it are all statically visible:

- a *blocking* call inside ``async def`` stalls every agent at once
  (REMO411);
- a coroutine called but never awaited silently does nothing -- Python
  only warns at garbage-collection time, long after the period that
  needed the send (REMO412);
- a task handle dropped on the floor can be garbage-collected
  mid-flight, cancelling the task (REMO413: asyncio only keeps weak
  references to tasks).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.staticcheck.astutil import call_name, dotted_name
from repro.staticcheck.context import AnalysisContext, ModuleUnderAnalysis
from repro.staticcheck.diagnostics import LintDiagnostic
from repro.staticcheck.registry import Rule, rule

#: Dotted call targets that block the event loop.
BLOCKING_CALLS = {
    "time.sleep",
    "os.system",
    "os.popen",
    "os.wait",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "socket.create_connection",
    "socket.getaddrinfo",
    "requests.get",
    "requests.post",
    "requests.put",
    "requests.delete",
    "requests.head",
    "requests.request",
    "urllib.request.urlopen",
    "open",
    "io.open",
}

#: Calls that return a Task the caller must retain.
TASK_FACTORY_NAMES = {"create_task", "ensure_future"}


def _alias_map(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted origin, for every import in the module.

    ``import time as t`` maps ``t -> time``; ``from time import sleep``
    maps ``sleep -> time.sleep``, so both spellings of a blocking call
    resolve to the same dotted target.
    """
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


def _async_function_calls(
    tree: ast.Module,
) -> Iterator[Tuple[ast.AsyncFunctionDef, ast.Call]]:
    """Every call lexically inside an ``async def`` (nested sync defs
    excluded -- they run in their own frame, maybe in an executor)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.AsyncFunctionDef):
            continue
        stack: List[ast.AST] = [*node.body]
        while stack:
            sub = stack.pop()
            if isinstance(sub, ast.Call):
                yield node, sub
            for child in ast.iter_child_nodes(sub):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                stack.append(child)


@rule
class BlockingCallInAsyncRule(Rule):
    code = "REMO411"
    title = "blocking call inside async def"
    family = "async-safety"
    hint = (
        "a blocking call stalls every coroutine on the loop; use the asyncio "
        "equivalent (asyncio.sleep, loop.run_in_executor, asyncio streams)"
    )

    def check(
        self, module: ModuleUnderAnalysis, ctx: AnalysisContext
    ) -> Iterator[LintDiagnostic]:
        aliases = _alias_map(module.tree)
        for func, call in _async_function_calls(module.tree):
            dotted = _resolved_dotted(call.func, aliases)
            if dotted in BLOCKING_CALLS:
                yield self.diagnostic(
                    module,
                    call.lineno,
                    call.col_offset + 1,
                    f"blocking call {dotted}() inside async def {func.name}(); "
                    "this stalls the whole event loop",
                )


@rule
class UnawaitedCoroutineRule(Rule):
    code = "REMO412"
    title = "coroutine called but never awaited"
    family = "async-safety"
    hint = (
        "calling an async def returns a coroutine object; await it, or hand "
        "it to asyncio.create_task/ensure_future and retain the handle"
    )

    def check(
        self, module: ModuleUnderAnalysis, ctx: AnalysisContext
    ) -> Iterator[LintDiagnostic]:
        known_async = ctx.async_names - ctx.ambiguous_names
        if not known_async:
            return
        for node in ast.walk(module.tree):
            # Expression statements are the only place a coroutine can
            # be discarded outright; assignments at least keep the
            # object reachable for a later await.
            if not isinstance(node, ast.Expr) or not isinstance(node.value, ast.Call):
                continue
            name = call_name(node.value)
            if name is not None and name in known_async:
                yield self.diagnostic(
                    module,
                    node.lineno,
                    node.col_offset + 1,
                    f"result of coroutine {name}() is discarded without await; "
                    "the coroutine never runs",
                )


@rule
class DroppedTaskHandleRule(Rule):
    code = "REMO413"
    title = "task handle dropped (GC can cancel the task)"
    family = "async-safety"
    hint = (
        "asyncio keeps only weak references to tasks: retain the handle "
        "(a set the done-callback discards from, or an attribute) or await it"
    )

    def check(
        self, module: ModuleUnderAnalysis, ctx: AnalysisContext
    ) -> Iterator[LintDiagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Expr) or not isinstance(node.value, ast.Call):
                continue
            name = call_name(node.value)
            if name in TASK_FACTORY_NAMES:
                yield self.diagnostic(
                    module,
                    node.lineno,
                    node.col_offset + 1,
                    f"{name}() handle is dropped; the event loop holds only a "
                    "weak reference, so the task can be garbage-collected "
                    "mid-flight",
                )
