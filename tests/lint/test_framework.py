"""Framework mechanics: suppressions, module naming, parsing."""

from __future__ import annotations

from pathlib import Path

from repro.lint.framework import (
    FRAMEWORK_RULE,
    lint_paths,
    lint_source,
    module_name_for,
    parse_module,
    repo_root,
)

BAD_RAISE = 'raise Exception("boom")\n'


class TestSuppressions:
    def test_inline_suppression_silences_the_finding(self):
        findings = lint_source(
            BAD_RAISE.rstrip("\n")
            + "  # repro-lint: allow[error-taxonomy] fixture exercising it\n",
            module="repro.common.fake",
        )
        assert findings == []

    def test_standalone_suppression_covers_next_line(self):
        findings = lint_source(
            "# repro-lint: allow[error-taxonomy] fixture exercising it\n"
            + BAD_RAISE,
            module="repro.common.fake",
        )
        assert findings == []

    def test_suppression_without_reason_is_a_finding(self):
        findings = lint_source(
            BAD_RAISE.rstrip("\n") + "  # repro-lint: allow[error-taxonomy]\n",
            module="repro.common.fake",
        )
        rules = {finding.rule for finding in findings}
        # the original violation still stands, plus the framework report
        assert rules == {FRAMEWORK_RULE, "error-taxonomy"}

    def test_suppression_of_unknown_rule_is_a_finding(self):
        findings = lint_source(
            "x = 1  # repro-lint: allow[not-a-rule] whatever\n",
            module="repro.common.fake",
        )
        assert [finding.rule for finding in findings] == [FRAMEWORK_RULE]

    def test_directive_inside_string_literal_is_ignored(self):
        # Only real comments count: a directive smuggled into a string
        # neither suppresses nor registers.
        findings = lint_source(
            'doc = "# repro-lint: allow[error-taxonomy] nope"\n' + BAD_RAISE,
            module="repro.common.fake",
        )
        assert [finding.rule for finding in findings] == ["error-taxonomy"]

    def test_suppression_only_silences_the_named_rule(self):
        findings = lint_source(
            BAD_RAISE.rstrip("\n")
            + "  # repro-lint: allow[metrics-naming] wrong rule named\n",
            module="repro.common.fake",
        )
        assert [finding.rule for finding in findings] == ["error-taxonomy"]


class TestModuleNaming:
    def test_src_file_maps_to_dotted_module(self):
        root = repo_root()
        path = root / "src" / "repro" / "simdisk" / "disk.py"
        assert module_name_for(path, root) == "repro.simdisk.disk"

    def test_package_init_maps_to_package(self):
        root = repo_root()
        path = root / "src" / "repro" / "simdisk" / "__init__.py"
        assert module_name_for(path, root) == "repro.simdisk"

    def test_test_file_has_no_module_name(self):
        root = repo_root()
        assert module_name_for(Path(__file__), root) is None

    def test_fixture_header_overrides_module(self, tmp_path):
        path = tmp_path / "impostor.py"
        path.write_text("# lint-fixture-module: repro.simdisk.impostor\n")
        parsed = parse_module(path, root=repo_root())
        assert parsed.module == "repro.simdisk.impostor"
        assert parsed.package == "simdisk"


class TestParsing:
    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        result = lint_paths([path], root=repo_root())
        assert [finding.rule for finding in result.findings] == [FRAMEWORK_RULE]
        assert "syntax error" in result.findings[0].message

    def test_directory_walk_skips_lint_fixtures(self):
        root = repo_root()
        result = lint_paths([root / "tests" / "lint"], root=root)
        # the deliberately-bad fixtures are excluded from walks
        assert result.findings == []
