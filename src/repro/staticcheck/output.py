"""Output formats for lint results: text, JSON, GitHub annotations.

- ``text`` is the human/terminal form: one ``path:line:col: CODE
  message`` line per finding (clickable in editors), plus a summary.
- ``json`` is the machine form: a stable schema with the findings,
  per-code counts, and the noqa-suppression tally.
- ``github`` emits ``::error`` workflow commands so findings surface
  as inline PR annotations in Actions, followed by the text summary on
  stderr-safe plain lines (Actions ignores non-command lines).
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.staticcheck.diagnostics import LintDiagnostic
from repro.staticcheck.runner import LintResult

FORMATS = ("text", "json", "github")


def _summary_line(result: LintResult) -> str:
    verdict = "FAIL" if result.findings else "OK"
    parts = [
        f"{len(result.checked_files)} file(s) checked",
        f"{len(result.findings)} finding(s)",
    ]
    if result.suppressed_noqa:
        parts.append(f"{len(result.suppressed_noqa)} noqa-suppressed")
    return f"staticcheck: {verdict} ({', '.join(parts)})"


def render_text(result: LintResult) -> str:
    lines = [diag.format() for diag in result.findings]
    lines.append(_summary_line(result))
    return "\n".join(lines)


def _diag_dict(diag: LintDiagnostic) -> Dict[str, object]:
    return {
        "path": diag.path,
        "line": diag.line,
        "col": diag.col,
        "code": diag.code,
        "message": diag.message,
    }


def render_json(result: LintResult) -> str:
    by_code: Dict[str, int] = {}
    for diag in result.findings:
        by_code[diag.code] = by_code.get(diag.code, 0) + 1
    payload = {
        "version": 2,
        "ok": not result.findings,
        "checked_files": [str(p) for p in result.checked_files],
        "findings": [_diag_dict(d) for d in result.findings],
        "counts": {
            "findings": len(result.findings),
            "by_code": {code: by_code[code] for code in sorted(by_code)},
            "suppressed_noqa": len(result.suppressed_noqa),
        },
    }
    return json.dumps(payload, indent=2)


def _github_escape(value: str) -> str:
    """Escape per the workflow-command property grammar."""
    return (
        value.replace("%", "%25")
        .replace("\r", "%0D")
        .replace("\n", "%0A")
        .replace(":", "%3A")
        .replace(",", "%2C")
    )


def _github_escape_message(value: str) -> str:
    return value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def render_github(result: LintResult) -> str:
    lines: List[str] = []
    for diag in result.findings:
        props = (
            f"file={_github_escape(diag.path)},"
            f"line={diag.line},col={diag.col},"
            f"title={_github_escape(diag.code)}"
        )
        lines.append(
            f"::error {props}::{_github_escape_message(diag.message)}"
        )
    lines.append(_summary_line(result))
    return "\n".join(lines)


def render(result: LintResult, fmt: str) -> str:
    if fmt == "text":
        return render_text(result)
    if fmt == "json":
        return render_json(result)
    if fmt == "github":
        return render_github(result)
    raise ValueError(f"unknown output format {fmt!r} (choose from {FORMATS})")
