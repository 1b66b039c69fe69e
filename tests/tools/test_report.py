"""EXPERIMENTS.md's generated blocks, rendered from a bench record."""

import json

from repro.tools import bench, report

E1 = "E1  Cold whole-file read"
T1 = "T1  Table 1"

DOCUMENT = {
    "experiments": {
        "e1_two": {
            "tables": [
                {"title": E1, "headers": ["file size", "refs"],
                 "rows": [["2 KB", "1"], ["512 KB", "2"]]},
            ],
        },
        "t1_locks": {
            "tables": [
                {"title": T1, "headers": ["held", "req"], "rows": [["None", "ok"]]},
            ],
        },
    },
}

PAGE = f"""# Experiments

## E1

Prose before.

<!-- table e1_two: {E1} -->
```
stale numbers
```
<!-- /table -->

Prose between.

<!-- table t1_locks: {T1} -->
<!-- /table -->

Prose after.
"""


def write(tmp_path, document=DOCUMENT, page=PAGE):
    record, markdown = tmp_path / "BENCH.json", tmp_path / "EXPERIMENTS.md"
    record.write_text(json.dumps(document))
    markdown.write_text(page)
    return record, markdown


class TestRender:
    def test_blocks_are_replaced_in_place_with_what_the_bench_prints(self):
        rendered, errors = report.render(DOCUMENT, PAGE)
        assert errors == []
        e1 = bench.format_table(
            E1, ["file size", "refs"], [["2 KB", "1"], ["512 KB", "2"]]
        )
        block = f"<!-- table e1_two: {E1} -->\n```\n{e1}\n```\n<!-- /table -->"
        assert block in rendered
        assert "stale numbers" not in rendered
        assert "=== T1  Table 1 ===\nheld  req\n---------\nNone  ok\n```" in rendered
        # Everything outside the blocks is untouched, in order.
        outside = [
            line for line in rendered.splitlines() if line.startswith(("#", "Prose"))
        ]
        assert outside == [
            "# Experiments", "## E1", "Prose before.", "Prose between.", "Prose after.",
        ]

    def test_a_second_run_is_a_no_op(self):
        once, _ = report.render(DOCUMENT, PAGE)
        twice, errors = report.render(DOCUMENT, once)
        assert errors == [] and twice == once

    def test_a_table_without_a_block_is_named(self):
        page = PAGE.replace(f"<!-- table t1_locks: {T1} -->\n<!-- /table -->\n", "")
        _, errors = report.render(DOCUMENT, page)
        assert errors == [f"table has no block: t1_locks: {T1}"]

    def test_a_block_naming_no_table_is_named(self):
        page = PAGE + "<!-- table e1_two: E1  Renamed -->\n<!-- /table -->\n"
        _, errors = report.render(DOCUMENT, page)
        assert errors == ["block names no table in the record: e1_two: E1  Renamed"]

    def test_a_table_with_two_blocks_is_named(self):
        page = PAGE + f"<!-- table t1_locks: {T1} -->\n<!-- /table -->\n"
        _, errors = report.render(DOCUMENT, page)
        assert errors == [f"table has two blocks: t1_locks: {T1}"]


class TestRegenerate:
    def test_rewrites_the_file_and_then_leaves_it_alone(self, tmp_path):
        record, markdown = write(tmp_path)
        assert report.regenerate(record, markdown) == 0
        first = markdown.read_text()
        assert first == report.render(DOCUMENT, PAGE)[0]
        assert report.regenerate(record, markdown) == 0
        assert markdown.read_text() == first

    def test_errors_write_nothing_and_exit_non_zero(self, tmp_path, capsys):
        page = PAGE + "<!-- table gone: G1  Removed -->\n<!-- /table -->\n"
        record, markdown = write(tmp_path, page=page)
        assert report.regenerate(record, markdown) == 1
        assert markdown.read_text() == page
        assert "gone: G1  Removed" in capsys.readouterr().err


class TestCommittedReport:
    def test_experiments_md_is_what_the_committed_record_renders(self):
        markdown = bench.repo_root() / "EXPERIMENTS.md"
        document = json.loads((bench.repo_root() / bench.RECORD).read_text())
        text = markdown.read_text(encoding="utf-8")
        rendered, errors = report.render(document, text)
        assert errors == []
        assert rendered == text
