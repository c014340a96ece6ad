"""Every REMO4xx rule fires on its bait fixture and stays quiet on the
clean one (``tests/staticcheck_fixtures/``).

Fixtures are linted with only the rule under test enabled, rooted at
the repo so the obs manifest (``src/repro/obs/names.py``) is available
to the REMO43x rules.  A meta-test pins the registry to the fixture
map, so adding a rule without fixtures fails loudly.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.staticcheck import (
    SYNTAX_ERROR_CODE,
    all_rule_classes,
    describe_rules,
    lint_paths,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "staticcheck_fixtures"

#: code -> (bait fixture, clean fixture); REMO400 is runner-emitted and
#: exercised separately on a generated broken file.
RULE_FIXTURES = {
    "REMO401": ("remo401_bad.py", "remo401_ok.py"),
    "REMO402": ("remo402_bad.py", "remo402_ok.py"),
    "REMO403": ("remo403_bad.py", "remo403_ok.py"),
    "REMO411": ("remo411_bad.py", "remo411_ok.py"),
    "REMO412": ("remo412_bad.py", "remo412_ok.py"),
    "REMO413": ("remo413_bad.py", "remo413_ok.py"),
    "REMO415": ("remo415_bad.py", "remo415_ok.py"),
    "REMO421": ("remo421_bad.py", "remo421_ok.py"),
    "REMO431": ("remo431_bad.py", "remo431_ok.py"),
    "REMO432": ("remo432_bad.py", "remo432_ok.py"),
    "REMO433": ("remo433_bad.py", "remo433_ok.py"),
    "REMO434": ("remo434_bad.py", "remo434_ok.py"),
    "REMO435": ("remo435_bad.py", "remo435_ok.py"),
}

#: Fixtures whose bait contains more than one instance of the defect.
EXPECTED_BAD_COUNTS = {
    "REMO401": 2,
    "REMO402": 3,
    "REMO403": 3,
    "REMO411": 2,
    "REMO415": 3,
    "REMO431": 3,
    "REMO432": 2,
    "REMO433": 2,
    "REMO434": 2,
    "REMO435": 2,
}


def run_rule(code: str, fixture: str):
    return lint_paths([FIXTURES / fixture], root=REPO_ROOT, codes=[code])


@pytest.mark.parametrize("code", sorted(RULE_FIXTURES))
def test_rule_fires_on_bait(code):
    bad, _ok = RULE_FIXTURES[code]
    result = run_rule(code, bad)
    assert result.findings, f"{code} stayed silent on {bad}"
    assert {d.code for d in result.findings} == {code}
    assert len(result.findings) == EXPECTED_BAD_COUNTS.get(code, 1)
    for diag in result.findings:
        assert diag.line > 0 and diag.col > 0
        assert diag.path.endswith(bad)


@pytest.mark.parametrize("code", sorted(RULE_FIXTURES))
def test_rule_quiet_on_clean_fixture(code):
    _bad, ok = RULE_FIXTURES[code]
    result = run_rule(code, ok)
    assert result.findings == [], [d.format() for d in result.findings]


@pytest.mark.parametrize("code", sorted(RULE_FIXTURES))
def test_clean_fixtures_pass_every_rule(code):
    """The ok fixtures are globally clean, not just clean for their own
    rule -- so the suite's bait/clean split stays honest."""
    _bad, ok = RULE_FIXTURES[code]
    result = lint_paths([FIXTURES / ok], root=REPO_ROOT)
    assert result.findings == [], [d.format() for d in result.findings]


def test_syntax_error_reported_as_remo400(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n", encoding="utf-8")
    result = lint_paths([broken], root=tmp_path)
    assert [d.code for d in result.findings] == [SYNTAX_ERROR_CODE]
    assert "does not parse" in result.findings[0].message


def test_registry_matches_fixture_map():
    registered = {cls.code for cls in all_rule_classes()}
    assert registered == set(RULE_FIXTURES)
    described = {info.code for info in describe_rules()}
    assert described == registered | {SYNTAX_ERROR_CODE}


def test_every_rule_has_metadata():
    for cls in all_rule_classes():
        info = cls.info()
        assert info.title and info.family and info.hint, info.code
