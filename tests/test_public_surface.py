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
* Always live: methods that an imported base class declares
  (``asyncio.Protocol`` callbacks).

Names are matched as bare identifiers, so a method is live when any
reachable code mentions a word of that name; the check errs towards
keeping code. Every option string ``build_parser()`` declares must be
passed by some test, CI step or ``remo_bench/`` invocation.

Keyword parameters get the same treatment: every defaulted parameter of
a public function, a public class's public method or a public class's
``__init__`` must be passed, by keyword or by position, by some call in
the same non-test roots (``src/repro`` outside the defining function,
README Python blocks and the workflows' ``python -`` heredocs). Calls
match by the callee's last name; a class call also reaches the
``__init__`` its subclasses inherit, and ``super().__init__`` reaches
every ancestor's. A ``**kwargs`` forward passes what the forwarding
function's own callers pass. Every constant ``obs/names.py`` declares
must be used the same way.
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

#: Public names kept although nothing but tests reaches them (at most three).
KEEP = {
    "rewrite_dsdp": "DSDP, the paper's section 6.2 plan rewrite",
}


@dataclass
class Definition:
    path: str
    qualname: str
    public: bool
    always_live: bool = False
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
    own = Definition(rel, node.name, _is_public(node.name))
    own.mentions = _identifiers([*node.decorator_list, *node.bases, *node.keywords])
    defs = [own]
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            method = Definition(
                rel, f"{node.name}.{stmt.name}",
                _is_public(node.name) and _is_public(stmt.name),
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
                fn = Definition(rel, stmt.name, _is_public(stmt.name))
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
            d.always_live = any(hasattr(base, d.name) for base in ancestors)
    for rel, words in module_mentions.items():
        live |= {w for w in words if rel not in defined_in.get(w, {rel})}
    live |= _non_test_words()

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



def _non_test_words() -> set[str]:
    """Words in the non-test files outside ``src/repro``."""
    words: set[str] = set()
    for path in [README, *sorted(WORKFLOWS.glob("*.yml")),
                 *(p for root in OUTSIDE for p in sorted(root.rglob("*.py"))
                   if "tests" not in p.relative_to(ROOT).parts)]:
        words |= set(WORD.findall(path.read_text(encoding="utf-8")))
    return words


def test_every_manifest_name_is_used():
    """Every constant ``obs/names.py`` declares is mentioned outside that
    module by non-test code, or by a live definition inside it (a lane
    prefix is reached through its helper)."""
    manifest = PACKAGE / "obs" / "names.py"
    tree = ast.parse(manifest.read_text(encoding="utf-8"))
    declared = [
        target.id for stmt in tree.body if isinstance(stmt, ast.Assign)
        for target in stmt.targets if isinstance(target, ast.Name) and target.id.isupper()
    ]
    used = _non_test_words()
    for path in PACKAGE.rglob("*.py"):
        if path != manifest:
            used |= _identifiers([ast.parse(path.read_text(encoding="utf-8"))])
    _definitions, live = analyse()
    used |= _identifiers([
        stmt for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name in live
    ])
    unused = sorted(set(declared) - used)
    assert not unused, (
        "names the obs/names.py manifest declares but nothing outside tests "
        "uses; delete them or emit them:\n  " + "\n  ".join(unused)
    )


# ---------------------------------------------------------------------------
# Keyword parameters
# ---------------------------------------------------------------------------

#: Defaulted parameters kept although no non-test call passes them (at most
#: three), keyed ``qualname(param=)``.
KEEP_PARAMETERS = {
    "main(argv=)": "the CLI entry point; tests drive it with an argv list",
}

ALL = None  # a ``*args`` / ``**kwargs`` forward that passes every position or keyword


@dataclass(frozen=True)
class Parameter:
    path: str
    qualname: str
    name: str
    index: int | None  # position after ``self``/``cls``; None: keyword-only
    lines: tuple[int, int]  # the defining function, whose own calls do not count

    @property
    def key(self) -> str:
        return f"{self.qualname.removesuffix('.__init__')}({self.name}=)"


@dataclass(frozen=True)
class Call:
    path: str
    line: int
    callee: str  # last name; ``super().__init__`` in class C is ``super:C``
    positional: int | None  # count, or ALL
    keywords: frozenset[str] | None  # names, or ALL
    #: ``**kwargs`` of the enclosing function ``forwarded`` passed on: the
    #: keywords its own callers pass count too.
    forwarded: str | None = None


def _defaulted(fn: ast.FunctionDef | ast.AsyncFunctionDef, rel: str,
               qualname: str, bound: bool) -> list[Parameter]:
    lines = (fn.lineno, fn.end_lineno or fn.lineno)
    positional = [*fn.args.posonlyargs, *fn.args.args][1 if bound else 0:]
    found = [
        Parameter(rel, qualname, arg.arg, index, lines)
        for index, arg in enumerate(positional)
        if index >= len(positional) - len(fn.args.defaults)
    ]
    found += [
        Parameter(rel, qualname, arg.arg, None, lines)
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        if default is not None
    ]
    return found


def _parameters(tree: ast.Module, rel: str) -> list[Parameter]:
    """Defaulted parameters of the module's public functions, public
    classes' public methods and public classes' ``__init__``."""
    found: list[Parameter] = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_public(stmt.name):
            found += _defaulted(stmt, rel, stmt.name, bound=False)
        elif isinstance(stmt, ast.ClassDef) and _is_public(stmt.name):
            for method in stmt.body:
                if (isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and (_is_public(method.name) or method.name == "__init__")):
                    static = any(_dotted(d) == "staticmethod" for d in method.decorator_list)
                    found += _defaulted(method, rel, f"{stmt.name}.{method.name}",
                                        bound=not static)
    return found


def _aliases(scope: ast.AST) -> dict[str, set[str]]:
    """Local names bound to a choice of callables (``cls = A if x else B``)."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(scope):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, (ast.IfExp, ast.BoolOp))):
            names = {(_dotted(n) or "").rpartition(".")[2]
                     for n in ast.walk(node.value)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            found.setdefault(node.targets[0].id, set()).update(names)
    return found


def _calls(tree: ast.Module, rel: str) -> list[Call]:
    found: list[Call] = []

    def visit(node: ast.AST, owner: str | None, fn: ast.AST | None,
              aliases: dict[str, set[str]]) -> None:
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn, aliases = node, {**aliases, **_aliases(node)}
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func) or ""
            if dotted == "super.__init__" and owner:
                callees = {f"super:{owner}"}
            elif dotted == "cls" and owner:
                callees = {owner}
            else:
                callees = aliases.get(dotted, {dotted.rpartition(".")[2]})
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            named = frozenset(k.arg for k in node.keywords if k.arg)
            keywords: frozenset[str] | None = named
            forwarded = None
            for k in node.keywords:
                if k.arg is not None:
                    continue
                own = getattr(getattr(fn, "args", None), "kwarg", None)
                if isinstance(k.value, ast.Name) and own is not None and k.value.id == own.arg:
                    # Keys the function itself puts in its **kwargs count.
                    forwarded = fn.name  # type: ignore[union-attr]
                    keywords = named | _identifiers([fn])  # type: ignore[list-item]
                else:
                    keywords = ALL
            for callee in callees:
                found.append(Call(rel, node.lineno, callee,
                                  ALL if starred else len(node.args),
                                  keywords, forwarded if keywords is not ALL else None))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, fn, aliases)

    visit(tree, None, None, _aliases(tree))
    return found


def _classes(trees: list[ast.Module]) -> dict[str, tuple[set[str], bool]]:
    """Class name -> (base names, whether it defines ``__init__``)."""
    classes: dict[str, tuple[set[str], bool]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases, has_init = classes.get(node.name, (set(), False))
                bases |= {(_dotted(b) or "").rpartition(".")[2] for b in node.bases}
                has_init = has_init or any(
                    isinstance(s, ast.FunctionDef) and s.name == "__init__"
                    for s in node.body)
                classes[node.name] = (bases, has_init)
    return classes


def _init_callees(name: str, classes: dict[str, tuple[set[str], bool]]) -> set[str]:
    """Callees whose calls reach ``name.__init__``: the class, subclasses
    that inherit that ``__init__``, and ``super().__init__`` in any subclass."""
    inherit, every = {name}, {name}
    grew = True
    while grew:
        subs = {c for c, (bases, _) in classes.items() if bases & every} - every
        inherit |= {c for c, (bases, has_init) in classes.items()
                    if bases & inherit and not has_init}
        every |= subs
        grew = bool(subs)
    return inherit | {f"super:{c}" for c in every - {name}}


def _fenced_python(text: str) -> list[str]:
    """Markdown code blocks that parse as Python."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    return [b for b in blocks if _parses(b)]


def _heredoc_python(text: str) -> list[str]:
    """``python - <<'EOF'`` bodies in a workflow file."""
    import textwrap

    bodies = re.findall(r"python3? - <<'?EOF'?\n(.*?)^\s*EOF$", text, flags=re.M | re.S)
    return [textwrap.dedent(b) for b in bodies]


def _parses(source: str) -> bool:
    try:
        ast.parse(source)
    except SyntaxError:
        return False
    return True


@functools.cache
def keyword_analysis() -> tuple[tuple[Parameter, ...], tuple[Call, ...],
                                dict[str, tuple[set[str], bool]]]:
    """Every defaulted public parameter, every call in a non-test root and
    the classes those roots and ``src/repro`` declare."""
    parameters: list[Parameter] = []
    calls: list[Call] = []
    trees: list[ast.Module] = []
    sources: list[tuple[str, str]] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=rel)
        parameters += _parameters(tree, rel)
        calls += _calls(tree, rel)
        trees.append(tree)
    for root in OUTSIDE:
        for path in sorted(root.rglob("*.py")):
            if "tests" not in path.relative_to(ROOT).parts:
                sources.append((path.relative_to(ROOT).as_posix(),
                                path.read_text(encoding="utf-8")))
    sources += [("README.md", block)
                for block in _fenced_python(README.read_text(encoding="utf-8"))]
    for path in sorted(WORKFLOWS.glob("*.yml")):
        sources += [(path.name, body)
                    for body in _heredoc_python(path.read_text(encoding="utf-8"))]
    for rel, source in sources:
        tree = ast.parse(source)
        calls += _calls(tree, rel)
        trees.append(tree)
    return tuple(parameters), tuple(calls), _classes(trees)


def unpassed_parameters() -> list[Parameter]:
    """Defaulted public parameters no call in a non-test root passes."""
    parameters, calls, classes = keyword_analysis()
    by_callee: dict[str, list[Call]] = {}
    for call in calls:
        by_callee.setdefault(call.callee, []).append(call)

    def passes_keyword(callee: str, name: str, seen: frozenset[str]) -> bool:
        """Whether some call of ``callee`` passes keyword ``name``,
        following ``**kwargs`` forwards."""
        return any(
            call.keywords is ALL or name in call.keywords
            or (call.forwarded is not None and call.forwarded not in seen
                and passes_keyword(call.forwarded, name, seen | {call.forwarded}))
            for call in by_callee.get(callee, ())
        )

    unpassed = []
    for param in parameters:
        owner, _, name = param.qualname.rpartition(".")
        callees = _init_callees(owner, classes) if name == "__init__" else {name}
        first, last = param.lines
        live = [call for callee in callees for call in by_callee.get(callee, ())
                if not (call.path == param.path and first <= call.line <= last)]
        if not any(
            call.keywords is ALL or param.name in call.keywords
            or (param.index is not None
                and (call.positional is ALL or param.index < call.positional))
            or (call.forwarded is not None
                and passes_keyword(call.forwarded, param.name, frozenset({call.forwarded})))
            for call in live
        ):
            unpassed.append(param)
    return unpassed


def test_every_keyword_parameter_is_passed_somewhere():
    unpassed = sorted(f"{p.path}: {p.key}" for p in unpassed_parameters()
                      if p.key not in KEEP_PARAMETERS)
    assert not unpassed, (
        f"{len(unpassed)} defaulted parameter(s) in src/repro that no call outside "
        "tests passes; delete them (a value a test needs is a module or class "
        "constant it patches) or pass them:\n  " + "\n  ".join(unpassed)
    )


def test_the_parameter_keep_list_is_short_and_every_entry_is_still_unpassed():
    assert len(KEEP_PARAMETERS) <= 3
    declared = {p.key for p in keyword_analysis()[0]}
    missing = sorted(set(KEEP_PARAMETERS) - declared)
    assert not missing, f"keep-list entries that no longer exist: {missing}"
    unpassed = {p.key for p in unpassed_parameters()}
    revived = sorted(set(KEEP_PARAMETERS) - unpassed)
    assert not revived, f"keep-list entries that are passed now; drop them: {revived}"
