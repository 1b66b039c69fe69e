"""Command line front end: ``python -m repro.lint [--json] [paths…]``.

Exit status: 0 when the tree is clean (after suppressions), 1 when any
finding remains, 2 on usage errors.  ``--json`` emits machine-readable
findings for the tooling in CI.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.framework import all_rules, lint_paths, repo_root


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based invariant linter for the RHODOS reproduction.",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src/ and tests/)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit findings as a JSON array on stdout",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    root = repo_root()
    if args.list_rules:
        for rule in all_rules():
            doc = (rule.__doc__ or "").strip().splitlines()
            print(f"{rule.rule_id:24s} {doc[0] if doc else ''}")
        return 0
    if args.paths:
        paths = [Path(p) for p in args.paths]
        missing = [p for p in paths if not p.exists()]
        if missing:
            print(
                "error: no such path: " + ", ".join(map(str, missing)),
                file=sys.stderr,
            )
            return 2
    else:
        paths = [root / "src", root / "tests"]
    result = lint_paths(paths, root=root)

    if args.as_json:
        print(json.dumps([f.to_json() for f in result.findings], indent=2))
    else:
        for finding in result.findings:
            print(finding.render())
        print(
            f"repro.lint: {len(result.findings)} finding(s) in "
            f"{result.files} file(s)"
        )
    return 1 if result.findings else 0
