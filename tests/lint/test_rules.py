"""Per-rule fixtures: every bad snippet is flagged, every good one clean.

Each fixture under ``fixtures/`` impersonates a repro module through a
``# lint-fixture-module:`` header and marks each expected violation
with a trailing ``# lint-expect: <rule-id>`` comment; the harness
asserts the linter reports exactly the marked (line, rule) pairs —
no misses, no extras.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.lint.framework import lint_paths, repo_root
from repro.lint.rules.layering import LAYER_DEPS, validate_dag

FIXTURES = Path(__file__).resolve().parent / "fixtures"

_EXPECT_RE = re.compile(r"#\s*lint-expect:\s*([\w, .-]+)")


def expected_findings(path: Path) -> set[tuple[int, str]]:
    expected: set[tuple[int, str]] = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = _EXPECT_RE.search(line)
        if match:
            for rule_id in match.group(1).split(","):
                expected.add((lineno, rule_id.strip()))
    return expected


def actual_findings(path: Path) -> set[tuple[int, str]]:
    result = lint_paths([path], root=repo_root())
    return {(finding.line, finding.rule) for finding in result.findings}


ALL_FIXTURES = sorted(FIXTURES.rglob("*.py"))
BAD_FIXTURES = [p for p in ALL_FIXTURES if p.name.startswith("bad_")]
GOOD_FIXTURES = [p for p in ALL_FIXTURES if p.name.startswith("good_")]


def test_every_rule_has_a_bad_and_a_good_fixture():
    rules_covered = {p.parent.name for p in BAD_FIXTURES}
    assert rules_covered == {
        "layering", "wallclock", "randomness",
        "taxonomy", "crashpoint", "metrics", "clock_advance",
        "shared_state", "callback_purity", "frame_discipline",
    }
    assert {p.parent.name for p in GOOD_FIXTURES} == rules_covered


@pytest.mark.parametrize(
    "path", BAD_FIXTURES, ids=[p.parent.name for p in BAD_FIXTURES]
)
def test_bad_fixture_is_flagged_exactly(path):
    expected = expected_findings(path)
    assert expected, f"{path} has no lint-expect markers"
    assert actual_findings(path) == expected


@pytest.mark.parametrize(
    "path", GOOD_FIXTURES, ids=[p.parent.name for p in GOOD_FIXTURES]
)
def test_good_fixture_is_clean(path):
    assert actual_findings(path) == set()


# ---------------------------------------------------------- layer DAG


def test_layer_dag_is_acyclic():
    order = validate_dag()
    assert set(order) == set(LAYER_DEPS)
    # every package appears after all of its dependencies
    position = {package: index for index, package in enumerate(order)}
    for package, deps in LAYER_DEPS.items():
        for dep in deps:
            assert position[dep] < position[package]


def test_layer_dag_declares_every_source_package():
    packages = {
        child.name
        for child in (repo_root() / "src" / "repro").iterdir()
        if child.is_dir() and (child / "__init__.py").exists()
    }
    assert packages == set(LAYER_DEPS), (
        "src/repro packages and the declared layer DAG diverged; "
        "update repro.lint.rules.layering.LAYER_DEPS deliberately"
    )


def test_layer_dag_rejects_declared_cycles(monkeypatch):
    monkeypatch.setitem(LAYER_DEPS, "common", {"cluster"})
    with pytest.raises(ValueError, match="cycle"):
        validate_dag()


def test_injected_back_edge_is_rejected(tmp_path):
    # The CI negative check in file form: a disk_service module that
    # imports the file service must produce a layering finding.
    snippet = tmp_path / "snippet.py"
    snippet.write_text(
        "# lint-fixture-module: repro.disk_service.injected\n"
        "from repro.file_service.server import FileServer\n"
    )
    result = lint_paths([snippet], root=repo_root())
    assert [f.rule for f in result.findings] == ["layering"]
    assert result.findings[0].line == 2
