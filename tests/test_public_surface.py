"""Every public name in ``src/repro`` is reached by something other than a test.

A public function, class or method that only tests call is surface the
system carries for nobody: it has to be read, kept working and
documented, and no paper figure, benchmark, example or command depends
on it. This test finds such names statically and fails with the list.

Liveness is a fixpoint over identifiers:

* Roots: every word in a non-test file outside ``src/repro``
  (``benchmarks/``, ``remo_bench/``, ``examples/``, ``README.md`` and the
  CI workflows, whose smoke steps drive the library directly); every
  identifier mentioned in a ``src/repro`` module outside the module that
  defines it; every identifier mentioned at module level in its own
  module. Package ``__init__`` imports and ``__all__`` lists do not
  count: re-exporting a name does not use it.
* A definition is live when its name is live. Every identifier
  mentioned inside the body of a live definition (private ones
  included) becomes live.
* Always live: definitions with a registering decorator (``@rule``),
  methods that an imported base class declares (``asyncio.Protocol``
  callbacks) and ``visit_*`` methods of ``ast.NodeVisitor`` subclasses.

Names are matched as bare identifiers, so a method is live when any
reachable code mentions a word of that name; the check errs towards
keeping code. Keyword parameters are outside it; the CLI's are not
forwarded by dict, though: ``cli._scenario`` names each flag's
``Scenario`` field, so the flags are checked instead. Every option
string ``build_parser()`` declares must be passed by some test, CI
step or ``remo_bench/`` invocation.
"""

from __future__ import annotations

import argparse
import ast
import builtins
import functools
import importlib
import re
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
OUTSIDE = [ROOT / "benchmarks", ROOT / "remo_bench", ROOT / "examples"]
README = ROOT / "README.md"
WORKFLOWS = ROOT / ".github" / "workflows"

WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Decorators that wrap or describe a definition without registering it.
PLAIN_DECORATORS = frozenset({
    "property", "setter", "dataclass", "classmethod", "staticmethod",
    "abstractmethod", "cached_property", "contextmanager",
    "asynccontextmanager",
})

#: Public names kept although nothing but tests reaches them (at most three).
KEEP = {
    "rewrite_dsdp": "DSDP, the paper's section 6.2 plan rewrite",
    "Histogram.is_exact": (
        "the only observable of a histogram's switch from exact values "
        "to the reservoir"
    ),
}


@dataclass
class Definition:
    path: str
    qualname: str
    public: bool
    always_live: bool
    mentions: set[str] = field(default_factory=set)

    @property
    def name(self) -> str:
        return self.qualname.rpartition(".")[2]


def _dotted(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return None if head is None else f"{head}.{node.attr}"
    if isinstance(node, ast.Call):
        return _dotted(node.func)
    return None


def _identifiers(nodes: list[ast.AST]) -> set[str]:
    """Identifiers a piece of code mentions: names, attributes, imported
    names and string constants that are exactly one identifier (the
    ``getattr`` dispatch case). Comments do not count."""
    found: set[str] = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if WORD.fullmatch(node.value):
                    found.add(node.value)
    return found


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _registering(decorators: list[ast.expr]) -> bool:
    for decorator in decorators:
        dotted = _dotted(decorator) or ""
        if dotted.rpartition(".")[2] not in PLAIN_DECORATORS:
            return True
    return False


def _import_table(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted origin for the module's top-level imports;
    relative imports map to ``repro.<name>``."""
    table: dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                table[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            origin = "repro" if node.level else (node.module or "")
            for alias in node.names:
                table[alias.asname or alias.name] = f"{origin}.{alias.name}"
    return table


def _external_base(dotted: str, imports: dict[str, str]) -> type | None:
    """The class object an imported (non-``repro``) base names, if any."""
    head, _, rest = dotted.partition(".")
    if head in imports:
        path = imports[head] + (f".{rest}" if rest else "")
    elif hasattr(builtins, head):
        path = f"builtins.{dotted}"
    else:
        return None
    if path.split(".")[0] == "repro":
        return None
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
        return obj if isinstance(obj, type) else None
    return None


def _scan_class(node: ast.ClassDef, rel: str, imports: dict[str, str],
                class_bases: dict[str, list]) -> list[Definition]:
    bases = []
    for base in node.bases:
        dotted = _dotted(base)
        if dotted is None:
            continue
        external = _external_base(dotted, imports)
        bases.append(external if external is not None else dotted.rpartition(".")[2])
    class_bases[node.name] = bases
    own = Definition(rel, node.name, _is_public(node.name),
                     _registering(node.decorator_list))
    own.mentions = _identifiers([*node.decorator_list, *node.bases, *node.keywords])
    defs = [own]
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            method = Definition(
                rel, f"{node.name}.{stmt.name}",
                _is_public(node.name) and _is_public(stmt.name),
                _registering(stmt.decorator_list),
            )
            method.mentions = _identifiers([stmt])
            defs.append(method)
        else:
            own.mentions |= _identifiers([stmt])
    return defs


def _external_ancestors(name: str, class_bases: dict[str, list],
                        seen: set[str] | None = None) -> list[type]:
    seen = set() if seen is None else seen
    found: list[type] = []
    for base in class_bases.get(name, ()):
        if isinstance(base, type):
            found.append(base)
        elif base not in seen:
            seen.add(base)
            found += _external_ancestors(base, class_bases, seen)
    return found


def _is_reexport(stmt: ast.stmt) -> bool:
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return True
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)) else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


@functools.cache
def analyse() -> tuple[tuple[Definition, ...], frozenset[str]]:
    """Every definition in ``src/repro`` and the set of live identifiers."""
    definitions: list[Definition] = []
    class_bases: dict[str, list] = {}
    live: set[str] = set()
    module_mentions: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=rel)
        imports = _import_table(tree)
        is_package = path.name == "__init__.py"
        here: list[Definition] = []
        top_level: list[ast.AST] = []
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = Definition(rel, stmt.name, _is_public(stmt.name),
                                _registering(stmt.decorator_list))
                fn.mentions = _identifiers([stmt])
                here.append(fn)
            elif isinstance(stmt, ast.ClassDef):
                here += _scan_class(stmt, rel, imports, class_bases)
            elif not (is_package and _is_reexport(stmt)):
                top_level.append(stmt)
        live |= _identifiers(top_level)
        module_mentions[rel] = set().union(*(d.mentions for d in here))
        definitions += here

    defined_in: dict[str, set[str]] = {}
    for d in definitions:
        defined_in.setdefault(d.name, set()).add(d.path)
        owner, dot, _ = d.qualname.partition(".")
        if dot:
            ancestors = _external_ancestors(owner, class_bases)
            d.always_live = d.always_live or any(
                hasattr(base, d.name)
                or (d.name.startswith("visit_") and issubclass(base, ast.NodeVisitor))
                for base in ancestors
            )
    for rel, words in module_mentions.items():
        live |= {w for w in words if rel not in defined_in.get(w, {rel})}
    for path in [README, *sorted(WORKFLOWS.glob("*.yml")),
                 *(p for root in OUTSIDE for p in sorted(root.rglob("*.py"))
                   if "tests" not in p.relative_to(ROOT).parts)]:
        live |= set(WORD.findall(path.read_text(encoding="utf-8")))

    by_name: dict[str, list[Definition]] = {}
    for d in definitions:
        by_name.setdefault(d.name, []).append(d)
    pending = [d for d in definitions if d.always_live or d.name in live]
    while pending:
        fresh = pending.pop().mentions - live
        live |= fresh
        for name in fresh:
            pending += by_name.get(name, ())
    return tuple(definitions), frozenset(live)


def _is_live(d: Definition, live: frozenset[str]) -> bool:
    return d.always_live or d.name in live


def test_no_public_name_is_reached_only_from_tests():
    definitions, live = analyse()
    dead = sorted(
        f"{d.path}: {d.qualname}" for d in definitions
        if d.public and not _is_live(d, live) and d.qualname not in KEEP
    )
    assert not dead, (
        f"{len(dead)} public name(s) in src/repro are reached only from tests; "
        "delete them (with their tests) or use them:\n  " + "\n  ".join(dead)
    )


def test_the_keep_list_is_short_and_every_entry_is_still_dead():
    assert len(KEEP) <= 3
    definitions, live = analyse()
    by_qualname = {d.qualname: d for d in definitions if d.public}
    missing = sorted(set(KEEP) - set(by_qualname))
    assert not missing, f"keep-list entries that no longer exist: {missing}"
    revived = sorted(q for q in KEEP if _is_live(by_qualname[q], live))
    assert not revived, f"keep-list entries that are live now; drop them: {revived}"


def _declared_options() -> set[tuple[str, str]]:
    """(command, option) for every option ``build_parser()`` declares."""
    from repro.cli import build_parser

    (commands,) = (a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    return {
        (command, option)
        for command, parser in commands.choices.items()
        for action in parser._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    }


def _passed_options() -> set[str]:
    """Option-like strings in the tests, the CI workflows and ``remo_bench/``:
    string constants in Python, words in YAML."""
    option = re.compile(r"(?<![\w-])--?[a-z][a-z-]*")
    found: set[str] = set()
    python = [*sorted((ROOT / "tests").glob("*.py")), *sorted((ROOT / "remo_bench").rglob("*.py"))]
    for path in python:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found |= set(option.findall(node.value))
    for path in sorted(WORKFLOWS.glob("*.yml")):
        found |= set(option.findall(path.read_text(encoding="utf-8")))
    return found


def test_every_cli_option_is_passed_somewhere():
    declared = _declared_options()
    passed = _passed_options()
    unused = sorted(f"{command} {opt}" for command, opt in declared if opt not in passed)
    assert not unused, (
        "CLI options that no test, CI step or remo_bench invocation passes; "
        "test them or delete them:\n  " + "\n  ".join(unused)
    )
