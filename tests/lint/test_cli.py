"""CLI contract: exit codes, rendering, --json."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"
BAD_FIXTURES = sorted(FIXTURES.rglob("bad_*.py"))
GOOD_FIXTURES = sorted(FIXTURES.rglob("good_*.py"))


@pytest.mark.parametrize(
    "path", BAD_FIXTURES, ids=[p.parent.name for p in BAD_FIXTURES]
)
def test_each_rule_violation_fixture_fails_with_location(path, capsys):
    exit_code = main([str(path)])
    out = capsys.readouterr().out
    assert exit_code == 1
    # file:line plus the rule id, per the acceptance criteria
    rel = path.relative_to(Path(__file__).resolve().parents[2])
    assert f"{rel.as_posix()}:" in out
    assert f"[{_rule_of(path)}]" in out


@pytest.mark.parametrize(
    "path", GOOD_FIXTURES, ids=[p.parent.name for p in GOOD_FIXTURES]
)
def test_good_fixtures_exit_zero(path):
    assert main([str(path)]) == 0


def _rule_of(path: Path) -> str:
    return {
        "layering": "layering",
        "wallclock": "no-wall-clock",
        "randomness": "no-ambient-randomness",
        "taxonomy": "error-taxonomy",
        "crashpoint": "crash-point-discipline",
        "metrics": "metrics-naming",
        "clock_advance": "clock-advance-discipline",
        "shared_state": "shared-state-discipline",
        "callback_purity": "completion-callback-purity",
        "frame_discipline": "frame-discipline",
    }[path.parent.name]


def test_json_output_is_machine_readable(capsys):
    path = FIXTURES / "taxonomy" / "bad_raise.py"
    exit_code = main(["--json", str(path)])
    findings = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    assert {f["rule"] for f in findings} == {"error-taxonomy"}
    assert all(
        {"path", "line", "col", "rule", "message", "hint"} <= set(f)
        for f in findings
    )


def test_default_walk_is_clean_in_strict_mode(capsys):
    # The acceptance criterion: the whole repo lints clean.
    assert main([]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_missing_path_is_a_usage_error(capsys):
    assert main(["definitely/not/a/path.py"]) == 2
    assert "no such path" in capsys.readouterr().err


def test_list_rules_names_all_seven(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "layering", "no-wall-clock", "no-ambient-randomness",
        "error-taxonomy", "crash-point-discipline", "metrics-naming",
        "clock-advance-discipline",
    ):
        assert rule_id in out


def test_list_rules_names_the_concurrency_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "shared-state-discipline", "completion-callback-purity",
        "frame-discipline",
    ):
        assert rule_id in out
