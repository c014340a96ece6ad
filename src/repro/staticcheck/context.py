"""The shared analysis context: project-wide tables rules consult.

A single AST pass per file builds what the rules need to see *across*
module boundaries:

- the **import graph** (which module imports which), so tooling can
  reason about layering;
- the **known-async function table**: every ``async def`` name in the
  project, with ambiguity tracking -- a bare name defined both sync
  and async somewhere (``run`` is both ``MonitoringRuntime.run`` and
  ``NodeAgent.run``) is excluded from name-based coroutine matching,
  which is what keeps REMO412 free of false positives;
- **class attribute maps**: for every class, the instance attributes
  assigned via ``self.x = ...`` anywhere in its body, plus which
  methods are coroutines (REMO421's shared-state analysis);
- the **obs manifest**: metric/span/lane/log-event names statically
  extracted from ``repro/obs/names.py`` -- parsed, never imported, so
  linting a broken tree cannot execute it.

The context serializes to JSON keyed by per-file SHA-256, so CI caches
it across runs (:meth:`AnalysisContext.load_or_build`): when no source
file changed, the whole build is skipped.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

CONTEXT_CACHE_VERSION = 2

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
        self.imports: Set[str] = set()
        self.async_qualnames: List[str] = []
        self.async_names: Set[str] = set()
        self.sync_names: Set[str] = set()
        self.class_attrs: Dict[str, Set[str]] = {}
        self.async_methods: Dict[str, Set[str]] = {}
        self._class_stack: List[str] = []

    # -- imports -------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.imports.add(alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            self.imports.add(node.module)

    # -- classes and functions -----------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qual = ".".join([*self._class_stack, node.name])
        self.class_attrs.setdefault(qual, set())
        self.async_methods.setdefault(qual, set())
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _handle_def(self, node: ast.AST, name: str, is_async: bool) -> None:
        if is_async:
            self.async_names.add(name)
            qual = ".".join([*self._class_stack, name]) if self._class_stack else name
            self.async_qualnames.append(qual)
            if self._class_stack:
                owner = ".".join(self._class_stack)
                self.async_methods.setdefault(owner, set()).add(name)
        else:
            self.sync_names.add(name)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._handle_def(node, node.name, is_async=False)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._handle_def(node, node.name, is_async=True)

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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def module_name_for(path: Path, root: Path) -> str:
    """Dotted module name for ``path`` (best effort outside src/)."""
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        rel = Path(path.name)
    parts = list(rel.with_suffix("").parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class AnalysisContext:
    """Project-wide tables shared by every rule, JSON-serializable."""

    root: str = "."
    file_hashes: Dict[str, str] = field(default_factory=dict)
    import_graph: Dict[str, List[str]] = field(default_factory=dict)
    async_functions: List[str] = field(default_factory=list)
    async_names: Set[str] = field(default_factory=set)
    sync_names: Set[str] = field(default_factory=set)
    class_attrs: Dict[str, List[str]] = field(default_factory=dict)
    async_methods: Dict[str, List[str]] = field(default_factory=dict)
    obs: Optional[ObsManifest] = None

    @property
    def ambiguous_names(self) -> Set[str]:
        """Bare names defined both sync and async somewhere: excluded
        from name-based coroutine matching (REMO412)."""
        return self.async_names & self.sync_names

    # -- construction --------------------------------------------------
    @classmethod
    def build(cls, files: Sequence[Path], root: Path) -> "AnalysisContext":
        ctx = cls(root=str(root))
        manifest_tree: Optional[ast.Module] = None
        manifest_path = (root / MANIFEST_RELPATH).resolve()
        for path in files:
            try:
                raw = path.read_bytes()
                tree = ast.parse(raw.decode("utf-8"), filename=str(path))
            except (OSError, SyntaxError, UnicodeDecodeError):
                continue  # the runner reports unreadable/unparsable files
            ctx.file_hashes[path.as_posix()] = hashlib.sha256(raw).hexdigest()
            scan = _ModuleScan()
            scan.visit(tree)
            module = module_name_for(path, root)
            ctx.import_graph[module] = sorted(scan.imports)
            ctx.async_functions.extend(
                f"{module}:{qual}" for qual in scan.async_qualnames
            )
            ctx.async_names |= scan.async_names
            ctx.sync_names |= scan.sync_names
            for owner, attrs in scan.class_attrs.items():
                key = f"{module}:{owner}"
                merged = set(ctx.class_attrs.get(key, [])) | attrs
                ctx.class_attrs[key] = sorted(merged)
            for owner, methods in scan.async_methods.items():
                key = f"{module}:{owner}"
                merged = set(ctx.async_methods.get(key, [])) | methods
                ctx.async_methods[key] = sorted(merged)
            if path.resolve() == manifest_path or path.as_posix().endswith(
                MANIFEST_RELPATH.as_posix()
            ):
                manifest_tree = tree
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
        ctx.async_functions.sort()
        return ctx

    # -- serialization (CI cache) --------------------------------------
    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "version": CONTEXT_CACHE_VERSION,
            "root": self.root,
            "file_hashes": dict(sorted(self.file_hashes.items())),
            "import_graph": {k: v for k, v in sorted(self.import_graph.items())},
            "async_functions": list(self.async_functions),
            "async_names": sorted(self.async_names),
            "sync_names": sorted(self.sync_names),
            "class_attrs": {k: v for k, v in sorted(self.class_attrs.items())},
            "async_methods": {k: v for k, v in sorted(self.async_methods.items())},
        }
        if self.obs is not None:
            payload["obs"] = {
                "metrics": sorted(self.obs.metrics),
                "spans": sorted(self.obs.spans),
                "lanes": sorted(self.obs.lanes),
                "lane_prefixes": list(self.obs.lane_prefixes),
                "symbols": dict(sorted(self.obs.symbols.items())),
                "lane_helpers": sorted(self.obs.lane_helpers),
                "log_events": sorted(self.obs.log_events),
            }
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "AnalysisContext":
        obs_raw = payload.get("obs")
        obs = None
        if isinstance(obs_raw, dict):
            obs = ObsManifest(
                metrics=frozenset(obs_raw.get("metrics", [])),
                spans=frozenset(obs_raw.get("spans", [])),
                lanes=frozenset(obs_raw.get("lanes", [])),
                lane_prefixes=tuple(obs_raw.get("lane_prefixes", [])),
                symbols=dict(obs_raw.get("symbols", {})),
                lane_helpers=frozenset(obs_raw.get("lane_helpers", [])),
                log_events=frozenset(obs_raw.get("log_events", [])),
            )
        return cls(
            root=str(payload.get("root", ".")),
            file_hashes=dict(payload.get("file_hashes", {})),
            import_graph={
                k: list(v) for k, v in dict(payload.get("import_graph", {})).items()
            },
            async_functions=list(payload.get("async_functions", [])),
            async_names=set(payload.get("async_names", [])),
            sync_names=set(payload.get("sync_names", [])),
            class_attrs={
                k: list(v) for k, v in dict(payload.get("class_attrs", {})).items()
            },
            async_methods={
                k: list(v) for k, v in dict(payload.get("async_methods", {})).items()
            },
            obs=obs,
        )

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load_or_build(
        cls, cache_path: Path, files: Sequence[Path], root: Path
    ) -> "AnalysisContext":
        """Reuse a cached context when every file hash still matches."""
        current = {
            path.as_posix(): _sha256(path) for path in files if path.exists()
        }
        if cache_path.exists():
            try:
                payload = json.loads(cache_path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                payload = None
            if (
                isinstance(payload, dict)
                and payload.get("version") == CONTEXT_CACHE_VERSION
                and payload.get("file_hashes") == current
            ):
                return cls.from_dict(payload)
        ctx = cls.build(files, root)
        ctx.save(cache_path)
        return ctx
