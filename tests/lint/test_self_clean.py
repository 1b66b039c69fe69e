"""The repo must lint itself clean: no finding at all (tier-1 gate).

This is the test CI leans on: any layering back-edge, wall-clock read,
ambient RNG, stray exception type, unregistered write site, or malformed
counter name introduced anywhere in ``src/`` or ``tests/`` fails the
suite with the offending file:line in the assertion message.
"""

from __future__ import annotations

from repro.lint import lint_paths
from repro.lint.framework import repo_root


def test_src_and_tests_are_clean_in_strict_mode():
    root = repo_root()
    result = lint_paths([root / "src", root / "tests"], root=root)
    rendered = "\n".join(finding.render() for finding in result.findings)
    assert result.findings == [], f"repro.lint findings:\n{rendered}"
    # sanity: the walk actually covered the tree
    assert result.files > 100
