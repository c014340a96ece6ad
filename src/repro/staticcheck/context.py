"""The shared analysis context: project-wide tables rules consult.

Built from the trees the runner already parsed (no file is parsed
twice), it holds what the rules need to see *across* module
boundaries:

- the **known-async name table**: every ``async def`` name in the
  project, with ambiguity tracking -- a bare name defined both sync
  and async somewhere (``run`` is both ``MonitoringRuntime.run`` and
  ``NodeAgent.run``) is excluded from name-based coroutine matching,
  which is what keeps REMO412 free of false positives;
- **class attribute maps**: for every class, the instance attributes
  assigned via ``self.x = ...`` anywhere in its body (REMO421's
  shared-state analysis);
- the **obs manifest**: metric/span/lane/log-event names statically
  extracted from ``repro/obs/names.py`` -- parsed, never imported, so
  linting a broken tree cannot execute it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: Where the obs manifest lives, relative to a project root.
MANIFEST_RELPATH = Path("src") / "repro" / "obs" / "names.py"


@dataclass
class ModuleUnderAnalysis:
    """One parsed file, handed to every rule."""

    path: Path
    rel: str  # posix, root-relative when under the root
    tree: ast.Module
    source_lines: List[str]


@dataclass(frozen=True)
class ObsManifest:
    """Names declared by ``repro/obs/names.py`` (statically extracted)."""

    metrics: frozenset
    spans: frozenset
    lanes: frozenset
    lane_prefixes: Tuple[str, ...]
    #: Every UPPER_CASE string constant the manifest defines, by symbol.
    symbols: Dict[str, str]
    #: Helper functions (``node_lane``) whose return
    #: values are legal dynamic lanes.
    lane_helpers: frozenset
    #: Structured-log event names (the LOG_EVENTS set; REMO435).
    log_events: frozenset = frozenset()


def _resolve_str(node: ast.expr, symbols: Dict[str, str]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return symbols.get(node.id)
    return None


def parse_obs_manifest(tree: ast.Module) -> ObsManifest:
    """Extract the manifest's declarations from its AST.

    Understands exactly the shapes ``names.py`` commits to: module-level
    ``NAME = "literal"`` constants, ``frozenset({...})`` / tuple
    collections of those constants, and top-level ``def`` lane helpers.
    """
    symbols: Dict[str, str] = {}
    collections: Dict[str, List[str]] = {}
    helpers: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            helpers.add(node.name)
            continue
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = node.value
        literal = _resolve_str(value, symbols)
        if literal is not None:
            symbols[target.id] = literal
            continue
        # frozenset({...}) / frozenset((...)) / bare set or tuple literals.
        elements: Optional[List[ast.expr]] = None
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "frozenset"
            and len(value.args) == 1
        ):
            inner = value.args[0]
            if isinstance(inner, (ast.Set, ast.Tuple, ast.List)):
                elements = list(inner.elts)
        elif isinstance(value, (ast.Set, ast.Tuple, ast.List)):
            elements = list(value.elts)
        if elements is not None:
            resolved = [_resolve_str(el, symbols) for el in elements]
            collections[target.id] = [item for item in resolved if item is not None]
    return ObsManifest(
        metrics=frozenset(collections.get("METRICS", [])),
        spans=frozenset(collections.get("SPANS", [])),
        lanes=frozenset(collections.get("LANES", [])),
        lane_prefixes=tuple(collections.get("LANE_PREFIXES", [])),
        symbols=symbols,
        lane_helpers=frozenset(helpers),
        log_events=frozenset(collections.get("LOG_EVENTS", [])),
    )


class _ModuleScan(ast.NodeVisitor):
    """Single pass over one module collecting the context's raw facts."""

    def __init__(self) -> None:
        self.async_names: Set[str] = set()
        self.sync_names: Set[str] = set()
        self.class_attrs: Dict[str, Set[str]] = {}
        self._class_stack: List[str] = []

    # -- classes and functions -----------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qual = ".".join([*self._class_stack, node.name])
        self.class_attrs.setdefault(qual, set())
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.sync_names.add(node.name)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.async_names.add(node.name)
        self.generic_visit(node)

    # -- instance attributes -------------------------------------------
    def _record_self_store(self, target: ast.expr) -> None:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and self._class_stack
        ):
            owner = ".".join(self._class_stack)
            self.class_attrs.setdefault(owner, set()).add(target.attr)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_self_store(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record_self_store(node.target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_self_store(node.target)
        self.generic_visit(node)


@dataclass
class AnalysisContext:
    """Project-wide tables shared by every rule."""

    async_names: Set[str] = field(default_factory=set)
    sync_names: Set[str] = field(default_factory=set)
    #: Class qualname -> instance attributes assigned on ``self``, merged
    #: over every module that defines a class of that name.
    class_attrs: Dict[str, Set[str]] = field(default_factory=dict)
    obs: Optional[ObsManifest] = None

    @property
    def ambiguous_names(self) -> Set[str]:
        """Bare names defined both sync and async somewhere: excluded
        from name-based coroutine matching (REMO412)."""
        return self.async_names & self.sync_names

    @classmethod
    def build(
        cls, modules: Sequence[ModuleUnderAnalysis], root: Path
    ) -> "AnalysisContext":
        """Scan the already-parsed ``modules``; the manifest is parsed
        here only when it is not one of them."""
        ctx = cls()
        manifest_tree: Optional[ast.Module] = None
        manifest_path = (root / MANIFEST_RELPATH).resolve()
        for module in modules:
            scan = _ModuleScan()
            scan.visit(module.tree)
            ctx.async_names |= scan.async_names
            ctx.sync_names |= scan.sync_names
            for owner, attrs in scan.class_attrs.items():
                ctx.class_attrs.setdefault(owner, set()).update(attrs)
            path = module.path
            if path.resolve() == manifest_path or path.as_posix().endswith(
                MANIFEST_RELPATH.as_posix()
            ):
                manifest_tree = module.tree
        if manifest_tree is None and manifest_path.exists():
            try:
                manifest_tree = ast.parse(
                    manifest_path.read_text(encoding="utf-8"),
                    filename=str(manifest_path),
                )
            except (OSError, SyntaxError):
                manifest_tree = None
        if manifest_tree is not None:
            ctx.obs = parse_obs_manifest(manifest_tree)
        return ctx
