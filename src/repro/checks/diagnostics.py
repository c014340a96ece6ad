"""Diagnostic framework for the plan-invariant verifier.

Every invariant the checkers in this package enforce is identified by
a stable code so that tests and operators can key on exact failure
classes rather than message strings:

- ``REMO1xx`` -- structural invariants (partition exact cover, tree
  well-formedness);
- ``REMO2xx`` -- capacity and cost-model invariants (recomputed load
  within budgets, cached bookkeeping in sync with a from-scratch
  recomputation).

A :class:`Diagnostic` carries the code, a severity, a human-readable
location (which tree, which node), the concrete finding, and a fix
hint.  A :class:`DiagnosticReport` aggregates them and can escalate to
a :class:`PlanCheckError` (an ``AssertionError`` subclass, matching
the repo's existing ``validate``/``TreeInvariantError`` idiom).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings mean the plan violates a paper invariant and
    must not be deployed; ``WARNING`` findings are legal but wasteful
    or suspicious.
    """

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class CodeInfo:
    """Registry entry for one diagnostic code."""

    code: str
    title: str
    severity: Severity
    hint: str


#: Every diagnostic code the checkers can emit, with its severity and
#: fix hint.  Codes are never renumbered, and a retired number is not
#: reused.
CODES: Dict[str, CodeInfo] = {
    info.code: info
    for info in (
        # -- REMO1xx: structural ---------------------------------------
        CodeInfo(
            "REMO101",
            "partition does not cover the requested attributes",
            Severity.ERROR,
            "every attribute with a requested pair must belong to exactly one "
            "partition set; re-plan or extend the partition",
        ),
        CodeInfo(
            "REMO102",
            "partition set has no tree",
            Severity.ERROR,
            "each partition set needs exactly one built tree; rebuild the "
            "forest for the full partition",
        ),
        CodeInfo(
            "REMO103",
            "tree exists for a set outside the partition",
            Severity.ERROR,
            "drop the stray tree or add its attribute set to the partition",
        ),
        CodeInfo(
            "REMO104",
            "tree collects an attribute outside its partition set",
            Severity.ERROR,
            "strip the foreign attribute from the tree's local demands or "
            "move it to the owning set's tree",
        ),
        CodeInfo(
            "REMO105",
            "partition names an attribute with no requested pairs",
            Severity.WARNING,
            "harmless but wasteful: retire the attribute from the partition "
            "on the next re-plan",
        ),
        CodeInfo(
            "REMO110",
            "tree root violation",
            Severity.ERROR,
            "a non-empty tree must have exactly one node with parent None "
            "and it must match the cached root pointer",
        ),
        CodeInfo(
            "REMO111",
            "cycle in parent pointers",
            Severity.ERROR,
            "a monitoring tree must be acyclic; rebuild the tree from its "
            "membership records",
        ),
        CodeInfo(
            "REMO112",
            "orphan node disconnected from the root",
            Severity.ERROR,
            "every member must reach the collector via the root; re-attach "
            "or remove the orphan branch",
        ),
        CodeInfo(
            "REMO113",
            "parent/children tables disagree",
            Severity.ERROR,
            "parent pointers and children sets must mirror each other; the "
            "structure was mutated without going through the tree API",
        ),
        CodeInfo(
            "REMO114",
            "cached depth differs from the recomputed depth",
            Severity.ERROR,
            "depths drive adjustment heuristics; refresh them after moving "
            "branches",
        ),
        CodeInfo(
            "REMO115",
            "plan collects a pair that was never requested",
            Severity.ERROR,
            "trees may only carry requested node-attribute pairs; strip the "
            "stale local demand",
        ),
        CodeInfo(
            "REMO117",
            "idle relay leaf (no local values, no children)",
            Severity.WARNING,
            "the node spends a periodic message delivering nothing; prune it",
        ),
        # -- REMO2xx: capacity / cost ----------------------------------
        CodeInfo(
            "REMO201",
            "node capacity exceeded",
            Severity.ERROR,
            "recomputed send+recv load across all trees exceeds the node "
            "budget b_i; the plan is infeasible under the C + a*x model",
        ),
        CodeInfo(
            "REMO202",
            "central collector capacity exceeded",
            Severity.ERROR,
            "the sum of root messages exceeds the collector budget; merge "
            "trees or shed pairs",
        ),
        CodeInfo(
            "REMO203",
            "cached cost diverges from recomputation",
            Severity.ERROR,
            "send/recv/value bookkeeping drifted from what the CostModel "
            "yields on the actual structure; incremental update bug",
        ),
        CodeInfo(
            "REMO204",
            "cached pair count diverges from recomputation",
            Severity.ERROR,
            "pair-count bookkeeping drifted; coverage metrics are lying",
        ),
        CodeInfo(
            "REMO205",
            "invalid demand or message weight",
            Severity.ERROR,
            "demand weights must be > 0 and message weights > 0; reject the "
            "workload at the task manager",
        ),
    )
}


@dataclass(frozen=True)
class Diagnostic:
    """One verified finding.

    ``location`` is a short human-readable anchor such as
    ``"tree {a,b} / node 5"`` or ``"partition"``.
    """

    code: str
    severity: Severity
    location: str
    message: str
    hint: str

    @classmethod
    def of(cls, code: str, location: str, message: str) -> "Diagnostic":
        """Build a diagnostic from the code registry, which supplies the
        severity and the fix hint."""
        info = CODES[code]
        return cls(
            code=code,
            severity=info.severity,
            location=location,
            message=message,
            hint=info.hint,
        )

    def format(self, with_hint: bool = False) -> str:
        """Render as ``SEVERITY CODE [location]: message``."""
        line = f"{self.severity.value.upper()} {self.code} [{self.location}]: {self.message}"
        if with_hint:
            line += f"\n    hint: {self.hint}"
        return line


class PlanCheckError(AssertionError):
    """Raised when a check run finds ERROR-severity diagnostics."""

    def __init__(self, context: str, report: "DiagnosticReport") -> None:
        self.report = report
        lines = [d.format() for d in report.errors]
        super().__init__(
            f"{context}: {len(report.errors)} invariant violation(s)\n"
            + "\n".join(lines)
        )


@dataclass
class DiagnosticReport:
    """An ordered collection of findings from one check run."""

    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(self, code: str, location: str, message: str) -> None:
        """Append a finding built from the code registry."""
        self.diagnostics.append(Diagnostic.of(code, location, message))

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __bool__(self) -> bool:
        """Truthy when any finding exists (of any severity)."""
        return bool(self.diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def codes(self) -> List[str]:
        """The distinct codes present, in first-seen order."""
        seen: List[str] = []
        for d in self.diagnostics:
            if d.code not in seen:
                seen.append(d.code)
        return seen

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def format(self, with_hints: bool = False) -> str:
        """All findings, one per line (empty string when clean)."""
        return "\n".join(d.format(with_hint=with_hints) for d in self.diagnostics)

    def raise_if_errors(self, context: str) -> None:
        """Escalate ERROR findings to a :class:`PlanCheckError`."""
        if self.has_errors:
            raise PlanCheckError(context, self)


def describe_codes() -> Iterable[CodeInfo]:
    """The code registry in code order (for ``repro check --codes``)."""
    return sorted(CODES.values(), key=lambda info: info.code)
