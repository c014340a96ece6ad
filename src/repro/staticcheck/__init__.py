"""AST-based static analysis for the REMO reproduction (``repro lint``).

The runtime verifier (:mod:`repro.checks`, REMO1xx-2xx) validates
*plans* after they exist; this package validates *source* before it
runs, under the REMO4xx code space:

========  =====================================================
REMO400   file does not parse (reserved; emitted by the runner)
REMO401   exact ==/!= against a float literal         (ex-C001)
REMO402   mutable default argument                    (ex-C002)
REMO403   raw arithmetic over CostModel attributes    (ex-C003)
REMO411   blocking call inside ``async def``
REMO412   coroutine called but never awaited
REMO413   ``create_task``/``ensure_future`` handle dropped
REMO415   stream writer/server acquired but never closed
REMO421   instance attr read-modify-written across an ``await``
REMO431   metric name not declared in ``repro/obs/names.py``
REMO432   span/event name not declared in the manifest
REMO433   trace lane not declared in the manifest
REMO434   ``trace.span``/``timer`` not used as a with-context
REMO435   log event name not declared in the manifest
========  =====================================================

Typical use::

    from pathlib import Path
    from repro.staticcheck import lint_paths, render

    result = lint_paths([Path("src")], root=Path.cwd())
    print(render(result, "text"))
    raise SystemExit(0 if result.ok else 1)

Suppression: ``# noqa: REMO4xx -- why`` on the line (see
:mod:`repro.staticcheck.runner`).
"""

from repro.staticcheck.context import (
    AnalysisContext,
    ModuleUnderAnalysis,
    ObsManifest,
    parse_obs_manifest,
)
from repro.staticcheck.diagnostics import LintDiagnostic
from repro.staticcheck.output import FORMATS, render
from repro.staticcheck.registry import (
    SYNTAX_ERROR_CODE,
    Rule,
    RuleInfo,
    all_rule_classes,
    describe_rules,
    rule,
    rules_for,
)
from repro.staticcheck.runner import (
    LintResult,
    is_suppressed_by_noqa,
    iter_python_files,
    lint_paths,
    noqa_codes,
)

__all__ = [
    "AnalysisContext",
    "FORMATS",
    "LintDiagnostic",
    "LintResult",
    "ModuleUnderAnalysis",
    "ObsManifest",
    "Rule",
    "RuleInfo",
    "SYNTAX_ERROR_CODE",
    "all_rule_classes",
    "describe_rules",
    "is_suppressed_by_noqa",
    "iter_python_files",
    "lint_paths",
    "noqa_codes",
    "parse_obs_manifest",
    "render",
    "rule",
    "rules_for",
]
