"""The repo must lint itself clean: no finding at all (tier-1 gate).

This is the test CI leans on: any layering back-edge, wall-clock read,
ambient RNG, stray exception type, unregistered write site, or malformed
counter name introduced anywhere in ``src/`` or ``tests/`` fails the
suite with the offending file:line in the assertion message.
"""

from __future__ import annotations

import ast

from repro.lint.framework import (
    iter_python_files,
    lint_paths,
    parse_module,
    repo_root,
)

#: Every inline suppression under ``src/``, as (file, rule id); DESIGN.md
#: §7 names each one and why.
SRC_SUPPRESSIONS = {
    ("src/repro/simdisk/disk.py", "crash-point-discipline"),
    ("src/repro/tools/racecheck.py", "completion-callback-purity"),
    ("src/repro/transactions/agent.py", "error-taxonomy"),
}

#: The package ``__init__.py`` files that may hold more than a docstring:
#: the ``repro`` facade, and the rules package whose imports register
#: every rule.  DESIGN.md §5 states the rule.
IMPORT_SURFACES = {"src/repro/__init__.py", "src/repro/lint/rules/__init__.py"}


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


def test_a_package_init_holds_only_its_docstring():
    """A name has one import path: the module that defines it (or the
    ``repro`` facade), never a package re-export."""
    root = repo_root()
    offenders = []
    for path in sorted((root / "src" / "repro").rglob("__init__.py")):
        rel = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        statements = tree.body
        if ast.get_docstring(tree) is not None:
            statements = statements[1:]
        if statements and rel not in IMPORT_SURFACES:
            offenders.append(rel)
    assert offenders == []
