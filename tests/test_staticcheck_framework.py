"""Framework behaviour of ``repro.staticcheck``: suppression (noqa +
baseline), output formats, the context cache, the CLI, and the
acceptance gate that the repo's own source lints clean.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.staticcheck import (
    AnalysisContext,
    Baseline,
    LintDiagnostic,
    lint_paths,
    noqa_codes,
    render,
)

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


def test_shipped_baseline_is_empty():
    baseline = Baseline.load(REPO_ROOT / "staticcheck-baseline.json")
    assert baseline.budgets == {}


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
# Baseline
# ---------------------------------------------------------------------------
def test_baseline_absorbs_exactly_its_budget(tmp_path):
    bad = write(tmp_path, "bad.py", BAIT)
    first = lint_paths([bad], root=tmp_path)
    baseline = Baseline.from_diagnostics(first.findings)

    # Same findings: fully absorbed.
    again = lint_paths([bad], root=tmp_path, baseline=baseline)
    assert again.findings == []
    assert [d.code for d in again.suppressed_baseline] == ["REMO401"]

    # A second instance of the same defect exceeds the budget.
    worse = write(
        tmp_path, "bad.py", BAIT + "def again(cost):\n    return cost == 0.5\n"
    )
    result = lint_paths([worse], root=tmp_path, baseline=baseline)
    assert len(result.findings) == 1 and len(result.suppressed_baseline) == 1


def test_baseline_fingerprints_survive_line_moves(tmp_path):
    bad = write(tmp_path, "bad.py", BAIT)
    baseline = Baseline.from_diagnostics(lint_paths([bad], root=tmp_path).findings)
    shifted = write(tmp_path, "bad.py", "# a comment pushing lines down\n\n" + BAIT)
    assert lint_paths([shifted], root=tmp_path, baseline=baseline).findings == []


def test_baseline_round_trips_through_json(tmp_path):
    diag = LintDiagnostic(path="a.py", line=3, col=1, code="REMO401", message="m")
    baseline = Baseline.from_diagnostics([diag, diag])
    path = tmp_path / "baseline.json"
    baseline.save(path)
    loaded = Baseline.load(path)
    assert loaded.budgets == {diag.fingerprint(): 2}
    assert json.loads(path.read_text())["version"] == 1


def test_baseline_rejects_unknown_version(tmp_path):
    path = write(tmp_path, "baseline.json", '{"version": 99, "findings": {}}')
    with pytest.raises(ValueError):
        Baseline.load(path)


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
    assert payload["version"] == 1 and payload["ok"] is False
    (finding,) = payload["findings"]
    assert set(finding) == {
        "path", "line", "col", "code", "message", "severity", "fingerprint",
    }
    assert finding["code"] == "REMO401" and finding["severity"] == "error"
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
# Context cache
# ---------------------------------------------------------------------------
def test_context_cache_reused_when_hashes_match(tmp_path):
    src = write(tmp_path, "mod.py", "async def go():\n    return 1\n")
    cache = tmp_path / "ctx.json"
    first = AnalysisContext.load_or_build(cache, [src], tmp_path)
    assert cache.exists() and "go" in first.async_names
    stamp = cache.stat().st_mtime_ns
    second = AnalysisContext.load_or_build(cache, [src], tmp_path)
    assert cache.stat().st_mtime_ns == stamp  # reused, not rebuilt
    assert second.async_names == first.async_names


def test_context_cache_rebuilt_on_change(tmp_path):
    src = write(tmp_path, "mod.py", "async def go():\n    return 1\n")
    cache = tmp_path / "ctx.json"
    AnalysisContext.load_or_build(cache, [src], tmp_path)
    write(tmp_path, "mod.py", "async def stop():\n    return 2\n")
    rebuilt = AnalysisContext.load_or_build(cache, [src], tmp_path)
    assert "stop" in rebuilt.async_names and "go" not in rebuilt.async_names


def test_context_extracts_obs_manifest():
    ctx = AnalysisContext.build(
        [REPO_ROOT / "src" / "repro" / "obs" / "names.py"], REPO_ROOT
    )
    assert ctx.obs is not None
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


def test_cli_write_baseline_then_clean(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "dirty.py", BAIT)
    assert cli_main(["lint", "--write-baseline", "dirty.py"]) == 0
    assert (tmp_path / "staticcheck-baseline.json").exists()
    capsys.readouterr()
    assert cli_main(["lint", "dirty.py"]) == 0  # grandfathered
    assert "1 baselined" in capsys.readouterr().out


def test_cli_github_format(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "dirty.py", BAIT)
    assert cli_main(["lint", "--format", "github", "dirty.py"]) == 1
    assert capsys.readouterr().out.startswith("::error ")


def test_cli_context_cache(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "clean.py", "x = 1\n")
    assert cli_main(["lint", "--context-cache", "ctx.json", "clean.py"]) == 0
    assert (tmp_path / "ctx.json").exists()
    assert cli_main(["lint", "--context-cache", "ctx.json", "clean.py"]) == 0
