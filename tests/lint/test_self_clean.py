"""The repo must lint itself clean: no finding at all (tier-1 gate).

This is the test CI leans on: any layering back-edge, wall-clock read,
ambient RNG, stray exception type, unregistered write site, or malformed
counter name introduced anywhere in ``src/`` or ``tests/`` fails the
suite with the offending file:line in the assertion message.
"""

from __future__ import annotations

from repro.lint import lint_paths
from repro.lint.framework import iter_python_files, parse_module, repo_root

#: Every inline suppression under ``src/``, as (file, rule id); DESIGN.md
#: §7 names each one and why.
SRC_SUPPRESSIONS = {
    ("src/repro/simdisk/disk.py", "crash-point-discipline"),
    ("src/repro/tools/racecheck.py", "completion-callback-purity"),
    ("src/repro/transactions/agent.py", "error-taxonomy"),
}


def test_src_and_tests_are_clean_in_strict_mode():
    root = repo_root()
    result = lint_paths([root / "src", root / "tests"], root=root)
    rendered = "\n".join(finding.render() for finding in result.findings)
    assert result.findings == [], f"repro.lint findings:\n{rendered}"
    # sanity: the walk actually covered the tree
    assert result.files > 100


def test_src_carries_exactly_the_listed_suppressions():
    root = repo_root()
    found = set()
    for path in iter_python_files([root / "src"], root):
        module = parse_module(path, root=root)
        for rule_ids in module.suppressions.values():
            found |= {(module.rel, rule_id) for rule_id in rule_ids}
    assert found == SRC_SUPPRESSIONS
