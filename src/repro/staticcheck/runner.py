"""The lint driver: discover files, parse once, run rules, suppress.

:func:`lint_paths` is the one entry point everything else goes
through -- the ``repro lint`` CLI, CI, and the test suite.  Pipeline:

1. discover ``.py`` files under the targets (:func:`iter_python_files`);
2. parse each file once, emitting ``REMO400`` for files the parser
   rejects;
3. build the project-wide :class:`AnalysisContext` from those trees;
4. run every selected rule over the same trees and drop findings a
   ``# noqa`` comment suppresses.

``# noqa: REMO421 -- <why>`` on the offending line is a permanent,
reviewed suppression: it lives next to the code, travels with it in
diffs, and documents the justification.  A bare ``# noqa`` (no codes)
suppresses every rule on that line, flake8-style.  The result keeps
the suppressed findings visible (separately) so formats and tests can
report *why* the gate passed.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from repro.staticcheck.context import AnalysisContext, ModuleUnderAnalysis
from repro.staticcheck.diagnostics import LintDiagnostic
from repro.staticcheck.registry import SYNTAX_ERROR_CODE, Rule, rules_for

#: Directory names never descended into during discovery.
EXCLUDED_DIRS = {
    ".git",
    "__pycache__",
    ".venv",
    "venv",
    ".mypy_cache",
    ".ruff_cache",
    ".pytest_cache",
    "build",
    "dist",
}

_NOQA_RE = re.compile(
    r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+?))?\s*(?:--.*)?$",
    re.IGNORECASE,
)


def iter_python_files(targets: Sequence[Path]) -> List[Path]:
    """All ``.py`` files under ``targets``, sorted and de-duplicated.

    Raises :class:`FileNotFoundError` for a target that does not exist
    (the CLI maps this to exit code 2, a usage error distinct from
    "findings exist").
    """
    seen = set()
    files: List[Path] = []
    for target in targets:
        if not target.exists():
            raise FileNotFoundError(f"no such file or directory: {target}")
        if target.is_file():
            candidates = [target] if target.suffix == ".py" else []
        else:
            candidates = [
                path
                for path in sorted(target.rglob("*.py"))
                if not any(part in EXCLUDED_DIRS for part in path.parts)
            ]
        for path in candidates:
            key = path.resolve()
            if key not in seen:
                seen.add(key)
                files.append(path)
    return files


def noqa_codes(line: str) -> Optional[frozenset]:
    """The codes suppressed by a ``# noqa`` comment on ``line``.

    Returns ``None`` when the line carries no noqa comment, an empty
    frozenset for a bare ``# noqa`` (suppress everything), and the
    parsed code set for ``# noqa: REMO411, REMO421``-style comments.
    """
    match = _NOQA_RE.search(line)
    if match is None:
        return None
    codes = match.group("codes")
    if not codes:
        return frozenset()
    return frozenset(
        code.strip().upper() for code in codes.split(",") if code.strip()
    )


def is_suppressed_by_noqa(
    diag: LintDiagnostic, source_lines: Sequence[str]
) -> bool:
    """True when the physical line the finding anchors to suppresses it."""
    if not 1 <= diag.line <= len(source_lines):
        return False
    codes = noqa_codes(source_lines[diag.line - 1])
    if codes is None:
        return False
    return not codes or diag.code in codes


@dataclass
class LintResult:
    """Everything a caller needs to render or gate on a lint run."""

    findings: List[LintDiagnostic] = field(default_factory=list)
    checked_files: List[Path] = field(default_factory=list)
    suppressed_noqa: List[LintDiagnostic] = field(default_factory=list)
    context: Optional[AnalysisContext] = None

    @property
    def ok(self) -> bool:
        return not self.findings


def _load_module(path: Path, root: Path) -> "ModuleUnderAnalysis | LintDiagnostic":
    try:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        rel = path.as_posix()
    try:
        source = path.read_bytes().decode("utf-8")
        tree = ast.parse(source, filename=str(path))
    except (SyntaxError, UnicodeDecodeError) as exc:
        line = getattr(exc, "lineno", 1) or 1
        col = (getattr(exc, "offset", 1) or 1) if isinstance(exc, SyntaxError) else 1
        detail = exc.msg if isinstance(exc, SyntaxError) else "not valid UTF-8"
        return LintDiagnostic(
            path=rel,
            line=line,
            col=col,
            code=SYNTAX_ERROR_CODE,
            message=f"file does not parse: {detail}",
        )
    return ModuleUnderAnalysis(
        path=path, rel=rel, tree=tree, source_lines=source.splitlines()
    )


def lint_paths(
    targets: Sequence[Path],
    root: Optional[Path] = None,
    codes: Optional[Sequence[str]] = None,
) -> LintResult:
    """Run the selected rules (all, when ``codes`` is empty) over the
    python files under ``targets``."""
    root = (root or Path.cwd()).resolve()
    files = iter_python_files(targets)
    rules: List[Rule] = rules_for(list(codes or []))

    findings: List[LintDiagnostic] = []
    modules: List[ModuleUnderAnalysis] = []
    for path in files:
        loaded = _load_module(path, root)
        if isinstance(loaded, LintDiagnostic):
            findings.append(loaded)
        else:
            modules.append(loaded)
    ctx = AnalysisContext.build(modules, root)

    noqa_dropped: List[LintDiagnostic] = []
    for module in modules:
        for a_rule in rules:
            for diag in a_rule.check(module, ctx):
                if is_suppressed_by_noqa(diag, module.source_lines):
                    noqa_dropped.append(diag)
                else:
                    findings.append(diag)
    return LintResult(
        findings=sorted(findings, key=LintDiagnostic.sort_key),
        checked_files=list(files),
        suppressed_noqa=sorted(noqa_dropped, key=LintDiagnostic.sort_key),
        context=ctx,
    )
