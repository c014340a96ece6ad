"""Diagnostics for the static analysis framework.

Mirrors the runtime verifier's design (:mod:`repro.checks.diagnostics`):
every finding carries a stable ``REMO4xx`` code so tests, CI gates, and
``# noqa`` comments key on exact failure classes rather than message
strings.  The numbering extends the existing registry:

- ``REMO1xx``-``REMO2xx`` -- *runtime* plan-invariant diagnostics,
  raised by :mod:`repro.checks` after a plan exists;
- ``REMO40x`` -- source conventions (cost-model discipline; the
  retired conventions linter's C00x rules, migrated);
- ``REMO41x`` -- async-safety (blocking calls in coroutines, dropped
  task handles, unclosed stream writers);
- ``REMO42x`` -- interleaving hazards (shared agent state
  read-modify-written across ``await`` points);
- ``REMO43x`` -- observability consistency (metric/span/lane names
  must come from the :mod:`repro.obs.names` manifest).

Every finding is an error: the lint gate is binary.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LintDiagnostic:
    """One static-analysis finding, anchored to a source location."""

    path: str  # posix, repo-relative when the file is under the root
    line: int
    col: int  # 1-based, matching compiler convention
    code: str
    message: str

    def format(self) -> str:
        """The text-output line: ``path:line:col: CODE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.code, self.message)
