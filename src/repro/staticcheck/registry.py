"""The rule registry: stable codes, one class per rule.

Rules self-register via the :func:`rule` decorator, exactly like the
runtime verifier's ``CODES`` table but with behaviour attached: a rule
is an object whose :meth:`Rule.check` walks one module's AST (with the
project-wide :class:`~repro.staticcheck.context.AnalysisContext`
available) and yields diagnostics.  Codes are append-only; never
renumber.
"""

from __future__ import annotations

import abc
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Type

from repro.staticcheck.diagnostics import LintDiagnostic

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.staticcheck.context import AnalysisContext, ModuleUnderAnalysis

_CODE_RE = re.compile(r"^REMO4\d\d$")

#: Pseudo-code reserved for files the parser rejects; emitted by the
#: runner rather than a rule (a broken file cannot be rule-checked).
SYNTAX_ERROR_CODE = "REMO400"


@dataclass(frozen=True)
class RuleInfo:
    """Registry metadata for one diagnostic code."""

    code: str
    title: str
    family: str
    hint: str


class Rule(abc.ABC):
    """One static-analysis rule with a stable diagnostic code."""

    code: str = ""
    title: str = ""
    family: str = ""
    hint: str = ""

    @abc.abstractmethod
    def check(
        self, module: "ModuleUnderAnalysis", ctx: "AnalysisContext"
    ) -> Iterator[LintDiagnostic]:
        """Yield findings for one parsed module."""

    def diagnostic(
        self,
        module: "ModuleUnderAnalysis",
        line: int,
        col: int,
        message: str,
    ) -> LintDiagnostic:
        return LintDiagnostic(
            path=module.rel, line=line, col=col, code=self.code, message=message
        )

    @classmethod
    def info(cls) -> RuleInfo:
        return RuleInfo(code=cls.code, title=cls.title, family=cls.family, hint=cls.hint)


_REGISTRY: Dict[str, Type[Rule]] = {}


def rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator registering a rule under its ``REMO4xx`` code."""
    if not _CODE_RE.match(cls.code):
        raise ValueError(f"rule code must match REMO4xx, got {cls.code!r}")
    if cls.code == SYNTAX_ERROR_CODE:
        raise ValueError(f"{SYNTAX_ERROR_CODE} is reserved for syntax errors")
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    if not (cls.title and cls.family and cls.hint):
        raise ValueError(f"rule {cls.code} needs title/family/hint metadata")
    _REGISTRY[cls.code] = cls
    return cls


def _ensure_rules_loaded() -> None:
    """Import the rule modules (registration happens at import time)."""
    import importlib

    for mod in ("rules_async", "rules_cost", "rules_interleave", "rules_net", "rules_obs"):
        importlib.import_module(f"repro.staticcheck.{mod}")


def all_rule_classes() -> List[Type[Rule]]:
    """Every registered rule class, sorted by code."""
    _ensure_rules_loaded()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def rules_for(codes: List[str]) -> List[Rule]:
    """Instantiate the rules for ``codes`` (all registered when empty)."""
    classes = all_rule_classes()
    if codes:
        known = {cls.code: cls for cls in classes}
        unknown = [code for code in codes if code not in known]
        if unknown:
            raise KeyError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
        classes = [known[code] for code in sorted(set(codes))]
    return [cls() for cls in classes]


def describe_rules() -> List[RuleInfo]:
    """Registry listing for ``repro lint --codes`` (REMO400 included)."""
    infos = [
        RuleInfo(
            code=SYNTAX_ERROR_CODE,
            title="file does not parse",
            family="parse",
            hint="fix the syntax error; no other rule can run on this file",
        )
    ]
    infos.extend(cls.info() for cls in all_rule_classes())
    return sorted(infos, key=lambda info: info.code)
