"""Framework behaviour of ``repro.staticcheck``: ``# noqa``
suppression, output formats, the one parse per file, the CLI, and the
acceptance gate that the repo's own source lints clean.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.staticcheck import iter_python_files, lint_paths, noqa_codes, render

REPO_ROOT = Path(__file__).resolve().parent.parent

BAIT = "def converged(cost):\n    return cost == 0.5\n"


def write(tmp_path: Path, name: str, source: str) -> Path:
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# The acceptance gate: the repo lints clean with every rule enabled.
# ---------------------------------------------------------------------------
def test_repo_lints_clean_with_all_rules():
    result = lint_paths(
        [REPO_ROOT / "src", REPO_ROOT / "benchmarks"],
        root=REPO_ROOT,
    )
    assert result.findings == [], "\n".join(d.format() for d in result.findings)
    assert len(result.checked_files) > 50
    assert result.context is not None and result.context.obs is not None


def test_source_names_no_asyncio_api_newer_than_the_declared_floor():
    """pyproject.toml declares Python >= 3.10; only 3.11 is installed
    here, so the floor is guarded by name: ``asyncio.timeout``,
    ``TaskGroup`` and ``Runner`` arrived in 3.11."""
    import re

    assert 'requires-python = ">=3.10"' in (REPO_ROOT / "pyproject.toml").read_text()
    newer = re.compile(r"asyncio\.(timeout|TaskGroup|Runner)\b")
    offenders = [
        f"{path.relative_to(REPO_ROOT)}:{number}: {line.strip()}"
        for path in sorted((REPO_ROOT / "src").rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if newer.search(line)
    ]
    assert offenders == []


# ---------------------------------------------------------------------------
# noqa suppression
# ---------------------------------------------------------------------------
def test_noqa_comment_parsing():
    assert noqa_codes("x = 1") is None
    assert noqa_codes("x = 1  # noqa") == frozenset()
    assert noqa_codes("x = 1  # noqa: REMO401") == {"REMO401"}
    assert noqa_codes("x = 1  # NOQA: remo401, REMO421") == {"REMO401", "REMO421"}
    assert noqa_codes("x = 1  # noqa: REMO421 -- single writer") == {"REMO421"}


def test_noqa_suppresses_matching_code(tmp_path):
    bad = write(tmp_path, "bad.py", "def f(cost):\n    return cost == 0.5  # noqa: REMO401\n")
    result = lint_paths([bad], root=tmp_path)
    assert result.findings == []
    assert [d.code for d in result.suppressed_noqa] == ["REMO401"]


def test_bare_noqa_suppresses_everything(tmp_path):
    bad = write(tmp_path, "bad.py", "def f(cost):\n    return cost == 0.5  # noqa\n")
    assert lint_paths([bad], root=tmp_path).findings == []


def test_noqa_for_other_code_does_not_suppress(tmp_path):
    bad = write(tmp_path, "bad.py", "def f(cost):\n    return cost == 0.5  # noqa: REMO402\n")
    assert [d.code for d in lint_paths([bad], root=tmp_path).findings] == ["REMO401"]


# ---------------------------------------------------------------------------
# Output formats
# ---------------------------------------------------------------------------
def test_text_format(tmp_path):
    bad = write(tmp_path, "bad.py", BAIT)
    out = render(lint_paths([bad], root=tmp_path), "text")
    assert "bad.py:2:12: REMO401" in out
    assert out.endswith("staticcheck: FAIL (1 file(s) checked, 1 finding(s))")


def test_json_format_schema(tmp_path):
    bad = write(tmp_path, "bad.py", BAIT)
    payload = json.loads(render(lint_paths([bad], root=tmp_path), "json"))
    assert payload["version"] == 2 and payload["ok"] is False
    (finding,) = payload["findings"]
    assert set(finding) == {"path", "line", "col", "code", "message"}
    assert finding["code"] == "REMO401"
    assert set(payload["counts"]) == {"findings", "by_code", "suppressed_noqa"}
    assert payload["counts"]["by_code"] == {"REMO401": 1}
    assert payload["counts"]["findings"] == 1


def test_github_format_annotations(tmp_path):
    bad = write(tmp_path, "bad.py", BAIT)
    out = render(lint_paths([bad], root=tmp_path), "github")
    line = out.splitlines()[0]
    assert line.startswith("::error ")
    assert "file=bad.py" in line and "line=2" in line and "title=REMO401" in line
    assert "::" in line.split("title=REMO401", 1)[1]


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        render(lint_paths([write(tmp_path, "x.py", "x = 1\n")], root=tmp_path), "sarif")


# ---------------------------------------------------------------------------
# The analysis context: built from the trees the rules run on
# ---------------------------------------------------------------------------
@pytest.fixture
def parse_calls(monkeypatch):
    """Filenames of every ``ast.parse`` call made while the fixture lives."""
    calls = []
    real_parse = ast.parse

    def counting_parse(*args, **kwargs):
        calls.append(kwargs.get("filename"))
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    return calls


def test_each_file_is_parsed_once(parse_calls):
    """N files cost N parses, plus one for the obs manifest when it is
    not among the targets."""
    fixtures = REPO_ROOT / "tests" / "staticcheck_fixtures"
    manifest = REPO_ROOT / "src" / "repro" / "obs" / "names.py"
    n = len(iter_python_files([fixtures]))
    assert n > 10

    lint_paths([fixtures], root=REPO_ROOT)
    assert len(parse_calls) == n + 1
    assert parse_calls[-1] == str(manifest.resolve())

    parse_calls.clear()
    result = lint_paths([fixtures, manifest], root=REPO_ROOT)
    assert len(parse_calls) == n + 1 == len(result.checked_files)
    assert result.context is not None and result.context.obs is not None


def test_no_manifest_no_extra_parse(tmp_path, parse_calls):
    for name in ("a.py", "b.py", "c.py"):
        write(tmp_path, name, "async def go():\n    return 1\n")
    result = lint_paths([tmp_path], root=tmp_path)
    assert len(parse_calls) == 3
    assert result.context is not None and result.context.obs is None
    assert "go" in result.context.async_names


def test_context_extracts_obs_manifest():
    ctx = lint_paths(
        [REPO_ROOT / "src" / "repro" / "obs" / "names.py"], root=REPO_ROOT
    ).context
    assert ctx is not None and ctx.obs is not None
    assert "messages_sent" in ctx.obs.metrics
    assert "agent.wave" in ctx.obs.spans
    assert "collector" in ctx.obs.lanes
    assert "node-" in ctx.obs.lane_prefixes
    assert "node_lane" in ctx.obs.lane_helpers


# ---------------------------------------------------------------------------
# CLI (repro lint)
# ---------------------------------------------------------------------------
def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "clean.py", "x = 1\n")
    write(tmp_path, "dirty.py", BAIT)
    assert cli_main(["lint", "clean.py"]) == 0
    assert cli_main(["lint", "dirty.py"]) == 1
    out = capsys.readouterr().out
    assert "REMO401" in out and "staticcheck: FAIL" in out
    assert cli_main(["lint", "no/such/path"]) == 2
    assert cli_main(["lint", "--rule", "REMO999", "clean.py"]) == 2


def test_cli_github_format(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "dirty.py", BAIT)
    assert cli_main(["lint", "--format", "github", "dirty.py"]) == 1
    assert capsys.readouterr().out.startswith("::error ")
