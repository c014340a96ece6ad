"""The repository's source conventions, as tier-1 tests over one parse.

``src/repro`` and ``benchmarks/`` are parsed once; each convention is a
function from a module's AST to ``(line, what)`` findings. The tree must
yield none outside :data:`KEEP`, and each convention must fire on its
bait:

* **Cost arithmetic goes through CostModel.** Outside ``core/cost.py``
  no expression computes with ``.per_message`` / ``.per_value``: a
  hand-rolled ``C + a*x`` is how a cached plan cost drifts from the
  recomputed one (the plan checker's REMO203).
* **No lost update across an await.** A coroutine method that reads an
  instance attribute, awaits, then writes it overwrites whatever ran
  during the await. Code under ``async with`` (a held lock) is exempt.
* **Instrumentation names come from the manifest.** The name argument of
  every metric, span and log call, and every ``lane=``, is a
  ``repro.obs.names`` constant of the right kind (or a lane helper call),
  never a string: a typo'd string forks a second time series silently.
"""

from __future__ import annotations

import ast
import functools
import textwrap
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import pytest

from repro.obs import names

REPO_ROOT = Path(__file__).resolve().parent.parent
ROOTS = (REPO_ROOT / "src" / "repro", REPO_ROOT / "benchmarks")

Finding = Tuple[int, str]

#: Findings the tree keeps, keyed ``path: what``, each with its reason.
KEEP = {
    "src/repro/net/tcp.py: _PeerLink.enqueue() self._pending": (
        "the while loop re-tests the queue bound after every wake, so the "
        "append never overruns it"
    ),
}


@functools.cache
def parsed() -> Tuple[Tuple[str, ast.Module], ...]:
    return tuple(
        (path.relative_to(REPO_ROOT).as_posix(),
         ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for root in ROOTS for path in sorted(root.rglob("*.py"))
    )


# ---------------------------------------------------------------------------
# Cost arithmetic goes through CostModel
# ---------------------------------------------------------------------------
COST_ATTRS = frozenset({"per_message", "per_value"})
COST_MODULE = "src/repro/core/cost.py"


def cost_arithmetic(tree: ast.Module) -> List[Finding]:
    found: List[Finding] = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.BinOp, ast.UnaryOp, ast.AugAssign)) and any(
            isinstance(sub, ast.Attribute) and sub.attr in COST_ATTRS
            and isinstance(sub.ctx, ast.Load)
            for sub in ast.walk(node)
        ):
            # The outermost expression only: its parts are the same finding.
            found.append((node.lineno, "raw arithmetic over a CostModel attribute; "
                                       "use a CostModel method"))
            return
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


# ---------------------------------------------------------------------------
# No lost update across an await
# ---------------------------------------------------------------------------
MUTATORS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend", "insert",
    "pop", "popitem", "popleft", "remove", "setdefault", "update",
})


def _self_attr(node: ast.AST) -> Optional[str]:
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _lost_updates(fn: ast.AsyncFunctionDef) -> List[str]:
    """The ``self`` attributes ``fn`` reads, awaits, then writes.

    A mutating method call or a subscript store is a read and a write.
    Nested function bodies run in their own frame and are skipped.
    """
    reads: dict[str, List[int]] = {}
    writes: dict[str, List[int]] = {}
    awaits: List[int] = []

    def touch(attr: str, line: int, write: bool = True) -> None:
        reads.setdefault(attr, []).append(line)
        if write:
            writes.setdefault(attr, []).append(line)

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.AsyncWith)):
            return
        if isinstance(node, ast.Await):
            awaits.append(node.lineno)
        attr = _self_attr(node)
        if attr is not None:
            table = reads if isinstance(node.ctx, ast.Load) else writes
            table.setdefault(attr, []).append(node.lineno)
        elif isinstance(node, ast.AugAssign) and _self_attr(node.target):
            touch(_self_attr(node.target), node.lineno)
            visit(node.value)
            return
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS and _self_attr(node.func.value)):
            touch(_self_attr(node.func.value), node.lineno)
            for arg in [*node.args, *node.keywords]:
                visit(arg)
            return
        elif isinstance(node, ast.Subscript) and _self_attr(node.value):
            touch(_self_attr(node.value), node.lineno, write=not isinstance(node.ctx, ast.Load))
            visit(node.slice)
            return
        for child in ast.iter_child_nodes(node):
            visit(child)

    for stmt in fn.body:
        visit(stmt)
    return sorted(
        attr for attr in reads.keys() & writes.keys()
        if any(min(reads[attr]) < a < max(writes[attr]) for a in awaits)
    )


def await_interleaving(tree: ast.Module) -> List[Finding]:
    found: List[Finding] = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        stored = {node.attr for node in ast.walk(cls)
                  if _self_attr(node) and not isinstance(node.ctx, ast.Load)}
        for fn in cls.body:
            if isinstance(fn, ast.AsyncFunctionDef):
                found += [(fn.lineno, f"{cls.name}.{fn.name}() self.{attr}")
                          for attr in _lost_updates(fn) if attr in stored]
    return found


# ---------------------------------------------------------------------------
# Instrumentation names come from the manifest
# ---------------------------------------------------------------------------
METRIC_CALLS = frozenset({
    "incr", "set_gauge", "observe", "counter", "bind_counter", "gauge",
    "histogram", "bump",
})
TRACE_CALLS = frozenset({"span", "span_since", "timer", "event"})


def _names_attr(node: ast.expr) -> Optional[str]:
    """``X`` when ``node`` reads ``names.X``."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "names"):
        return node.attr
    return None


#: What a ``repro.obs.names`` constant names, by its prefix; an
#: unprefixed constant names a metric.
PREFIXES = {"span": ("SPAN_", "EVENT_"), "log event": ("LOG_",), "lane": ("LANE_",)}


def _kind_of(symbol: str) -> str:
    for kind, prefixes in PREFIXES.items():
        if symbol.startswith(prefixes):
            return kind
    return "metric"


def _name_problem(arg: ast.expr, kind: str) -> Optional[str]:
    """Why ``arg`` is not a declared ``kind`` name; ``None`` when it is
    one, or is a value forwarded from elsewhere (a lowercase variable)."""
    if isinstance(arg, ast.JoinedStr) or (
            isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
        return f"{kind} is a string, not a repro.obs.names constant"
    if kind == "lane" and isinstance(arg, ast.Call):
        helper = _names_attr(arg.func)
        if helper is None or not callable(getattr(names, helper, None)):
            return "lane computed by a call other than a repro.obs.names helper"
        return None
    symbol = _names_attr(arg)
    if symbol is not None:
        if not isinstance(getattr(names, symbol, None), str):
            return f"names.{symbol} does not exist"
        if _kind_of(symbol) != kind:
            return f"names.{symbol} is not a {kind} name"
        return None
    symbol = arg.id if isinstance(arg, ast.Name) else getattr(arg, "attr", "")
    if symbol.isupper():
        return f"{kind} {symbol} is not read from repro.obs.names"
    return None


def obs_names(tree: ast.Module) -> List[Finding]:
    found: List[Finding] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        receiver = getattr(node.func.value, "id", None)
        method = node.func.attr
        if receiver == "trace" and method in TRACE_CALLS:
            kind = "span"
        elif receiver == "log" and method == "emit":
            kind = "log event"
        elif method in METRIC_CALLS:
            kind = "metric"
        else:
            continue
        checks = [(arg, kind) for arg in node.args[:1]]
        checks += [(kw.value, "lane") for kw in node.keywords if kw.arg == "lane"]
        for arg, what in checks:
            problem = _name_problem(arg, what)
            if problem is not None:
                found.append((node.lineno, f"{method}(): {problem}"))
    return found


RULES: dict[str, Callable[[ast.Module], List[Finding]]] = {
    "cost-arithmetic": cost_arithmetic,
    "await-interleaving": await_interleaving,
    "obs-names": obs_names,
}

#: Modules a convention does not apply to.
EXEMPT = {"cost-arithmetic": {COST_MODULE}}


@functools.cache
def findings(rule: str) -> List[Tuple[str, str]]:
    """``(key, display)`` for every finding of ``rule`` in the tree."""
    return [
        (f"{rel}: {what}", f"{rel}:{line}: {what}")
        for rel, tree in parsed() if rel not in EXEMPT.get(rule, ())
        for line, what in RULES[rule](tree)
    ]


@pytest.mark.parametrize("rule", sorted(RULES))
def test_the_source_keeps_the_convention(rule):
    found = sorted(display for key, display in findings(rule) if key not in KEEP)
    assert not found, f"{rule}:\n  " + "\n  ".join(found)


def test_every_keep_entry_still_fires():
    fired = {key for rule in RULES for key, _display in findings(rule)}
    stale = sorted(set(KEEP) - fired)
    assert not stale, f"keep-list entries nothing produces any more; drop them: {stale}"


BAIT = {
    "cost-binop": ("cost-arithmetic", 1, """
        def overhead(model, msgs):
            return model.per_message * msgs
    """),
    "cost-augassign": ("cost-arithmetic", 1, """
        def accumulate(model, total, values):
            total += model.per_value * values
            return total
    """),
    "cost-negation": ("cost-arithmetic", 1, """
        def negate(model):
            return -model.per_message
    """),
    "cost-clean": ("cost-arithmetic", 0, """
        def overhead(model, msgs):
            return model.overhead_cost(msgs)

        def parameters(model):
            return (model.per_message, model.per_value)
    """),
    "await-read-await-clear": ("await-interleaving", 1, """
        class Agent:
            def __init__(self):
                self.pending = set()

            async def retire(self):
                snapshot = [task for task in self.pending]
                await asyncio.gather(*snapshot)
                self.pending.clear()
    """),
    "await-clean": ("await-interleaving", 0, """
        class Agent:
            def __init__(self):
                self.pending = set()
                self.lock = asyncio.Lock()

            async def retire(self):
                snapshot = list(self.pending)
                self.pending.clear()
                await asyncio.gather(*snapshot)

            async def locked_retire(self):
                async with self.lock:
                    snapshot = list(self.pending)
                    await asyncio.gather(*snapshot)
                    self.pending.clear()
    """),
    "obs-metric": ("obs-names", 4, """
        def record(metrics):
            metrics.incr("definitely_not_declared")
            metrics.observe(names.SPAN_AGENT_WAVE, 1.0)  # a span name is not a metric
            metrics.bind_counter(names.MESSAGES_SENTT)
            metrics.incr(MESSAGES_SENT)
    """),
    "obs-span": ("obs-names", 2, """
        def work():
            with trace.span("not.a.span"):
                pass
            trace.event("also.not.a.span")
    """),
    "obs-lane": ("obs-names", 3, """
        def work(node):
            with trace.span(names.SPAN_AGENT_WAVE, lane="mystery-lane"):
                pass
            with trace.span(names.SPAN_AGENT_WAVE, lane=f"rogue-{node}"):
                pass
            with trace.span(names.SPAN_AGENT_WAVE, lane=names.LANE_NOWHERE):
                pass
    """),
    "obs-log": ("obs-names", 2, """
        def announce(port):
            log.emit("server_started", port=port)
            log.emit(names.SPAN_AGENT_WAVE)  # a span name is not a log event
    """),
    "obs-metric-clean": ("obs-names", 0, """
        def record(metrics, value):
            metrics.incr(names.MESSAGES_SENT)
            metrics.observe(names.COLLECTION_LATENCY_S, 0.5)
            metrics.histogram(names.PAYLOAD_VALUES).observe(value)
    """),
    "obs-span-clean": ("obs-names", 0, """
        def work():
            with trace.span(names.SPAN_AGENT_WAVE):
                pass
            with trace.span_since(names.SPAN_AGENT_WAVE, 0.0):
                pass
            trace.event(names.EVENT_AGENT_RECV)
    """),
    "obs-lane-clean": ("obs-names", 0, """
        def work(node, lane):
            with trace.span(names.SPAN_AGENT_WAVE, lane=names.LANE_ENGINE):
                pass
            with trace.span_since(names.SPAN_AGENT_WAVE, 0.0, lane=names.node_lane(node)):
                pass
            trace.event(names.EVENT_AGENT_RECV, lane=lane)
    """),
    "obs-log-clean": ("obs-names", 0, """
        def announce():
            log.emit(names.LOG_SERVE_READY, port=8080)
    """),
}


@pytest.mark.parametrize("case", sorted(BAIT))
def test_each_convention_fires_on_its_bait_only(case):
    rule, expected, source = BAIT[case]
    found = RULES[rule](ast.parse(textwrap.dedent(source)))
    assert len(found) == expected, found


def test_source_names_no_asyncio_api_newer_than_the_declared_floor():
    """pyproject.toml declares Python >= 3.10; only 3.11 is installed
    here, so the floor is guarded by name: ``asyncio.timeout``,
    ``TaskGroup`` and ``Runner`` arrived in 3.11."""
    import re

    assert 'requires-python = ">=3.10"' in (REPO_ROOT / "pyproject.toml").read_text()
    newer = re.compile(r"asyncio\.(timeout|TaskGroup|Runner)\b")
    offenders = [
        f"{path.relative_to(REPO_ROOT)}:{number}: {line.strip()}"
        for path in sorted((REPO_ROOT / "src").rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if newer.search(line)
    ]
    assert offenders == []
