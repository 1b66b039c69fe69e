"""Render EXPERIMENTS.md's tables from the bench record.

``python -m repro.tools.report [BENCH_prN.json]`` rewrites every
generated block in EXPERIMENTS.md with the table the record (default:
the committed one, :data:`repro.tools.bench.RECORD`) holds under that
block's name, laid out by :func:`repro.tools.bench.format_table` — the
function the benchmarks print through, so a block is exactly what
``python -m repro.tools.bench --only ID --verbose`` prints.  It runs
nothing.  A block names its experiment id and table title::

    <!-- table e1_two_disk_references: E1  Cold whole-file read: ... -->
    ```
    === E1  Cold whole-file read: ... ===
    ...
    ```
    <!-- /table -->

Everything outside the blocks is left alone.  A table in the record
with no block, a block naming no table in the record, and a table with
two blocks are errors: each is named, nothing is written, and the exit
status is 1.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.tools.bench import RECORD, Table, format_table, repo_root

_BLOCK = re.compile(
    r"^(?P<marker><!-- table (?P<experiment>\S+): (?P<title>.+?) -->)\n"
    r".*?^<!-- /table -->$",
    re.MULTILINE | re.DOTALL,
)


def render(document: Dict[str, object], text: str) -> Tuple[str, List[str]]:
    """``text`` with every block filled from ``document``, and the errors."""
    tables: Dict[Tuple[str, str], Table] = {}
    errors: List[str] = []
    for experiment_id, outcome in document["experiments"].items():  # type: ignore[union-attr]
        for table in outcome["tables"]:
            key = (experiment_id, table["title"])
            if key in tables:
                errors.append(f"two tables are named {key[0]}: {key[1]}")
            tables[key] = table
    filled: Set[Tuple[str, str]] = set()

    def fill(match: "re.Match[str]") -> str:
        key = (match["experiment"], match["title"])
        table = tables.get(key)
        if table is None:
            errors.append(f"block names no table in the record: {key[0]}: {key[1]}")
            return match[0]
        if key in filled:
            errors.append(f"table has two blocks: {key[0]}: {key[1]}")
        filled.add(key)
        layout = format_table(table["title"], table["headers"], table["rows"])
        return f"{match['marker']}\n```\n{layout}\n```\n<!-- /table -->"

    rendered = _BLOCK.sub(fill, text)
    errors.extend(
        f"table has no block: {experiment_id}: {title}"
        for experiment_id, title in tables
        if (experiment_id, title) not in filled
    )
    return rendered, errors


def regenerate(record: Path, markdown: Path) -> int:
    """Rewrite ``markdown``'s blocks from ``record``; 0, or 1 on any error."""
    document = json.loads(record.read_text(encoding="utf-8"))
    text = markdown.read_text(encoding="utf-8")
    rendered, errors = render(document, text)
    for error in errors:
        print(f"{markdown.name}: {error}", file=sys.stderr)
    if errors:
        return 1
    if rendered != text:
        markdown.write_text(rendered, encoding="utf-8")
    print(
        f"{len(_BLOCK.findall(rendered))} tables from {record} -> {markdown}"
        f"{'' if rendered != text else ' (unchanged)'}",
        file=sys.stderr,
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.report",
        description="Render EXPERIMENTS.md's tables from a bench record.",
    )
    parser.add_argument(
        "record",
        nargs="?",
        default=str(repo_root() / RECORD),
        help="bench record to render from (default: the committed %(default)s)",
    )
    args = parser.parse_args(argv)
    return regenerate(Path(args.record), repo_root() / "EXPERIMENTS.md")


if __name__ == "__main__":
    raise SystemExit(main())
