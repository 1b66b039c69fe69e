"""The machine-readable bench runner (``python -m repro.tools.bench``)."""

import json

import pytest

from repro.tools import bench


class TestDiscovery:
    def test_discovers_the_bench_suite(self):
        experiments = bench.discover()
        assert "e1_two_disk_references" in experiments
        assert all(path.name.startswith("bench_") for path in experiments.values())

    def test_smoke_subset_is_a_subset_of_the_suite(self):
        assert set(bench.SMOKE_EXPERIMENTS) <= set(bench.discover())


class TestRunExperiment:
    def test_pass_with_aggregated_instruments(self):
        result = bench.run_experiment(bench.discover()["e14_track_cache"])
        assert result["status"] == "pass"
        assert result["failure"] is None
        assert any(name.startswith("disk.") for name in result["counters"])
        assert "disk" in result["layers"]
        assert result["layers"]["disk"] == sum(
            value for name, value in result["counters"].items()
            if name.split(".", 1)[0] == "disk"
        )
        histogram = next(iter(result["histograms"].values()))
        assert set(histogram) == {"count", "min", "max", "sum", "p50", "p95"}
        assert histogram["min"] <= histogram["p50"] <= histogram["p95"]
        assert histogram["p95"] <= histogram["max"]

    def test_assertion_failure_is_captured_not_raised(self, tmp_path):
        bad = tmp_path / "bench_x1_always_fails.py"
        bad.write_text(
            "def test_claim():\n"
            "    assert (lambda: 1)() == 2, 'claim does not hold'\n"
        )
        result = bench.run_experiment(bad)
        assert result["status"] == "fail"
        assert result["failure"] == "claim does not hold"

    def test_crash_is_captured_as_error(self, tmp_path):
        bad = tmp_path / "bench_x2_crashes.py"
        bad.write_text(
            "def test_boom():\n"
            "    raise RuntimeError('kaboom')\n"
        )
        result = bench.run_experiment(bad)
        assert result["status"] == "error"
        assert result["failure"] == "RuntimeError: kaboom"


class TestRunSuite:
    def test_unknown_id_is_rejected(self):
        with pytest.raises(SystemExit):
            bench.run_suite(["nope_not_real"])

    def test_document_schema(self):
        document = bench.run_suite(["t1_lock_compatibility"])
        assert document["schema_version"] == 1
        assert document["suite"] == "repro-bench"
        outcome = document["experiments"]["t1_lock_compatibility"]
        assert set(outcome) == {
            "status", "failure", "counters", "layers", "histograms", "gauges",
            "tables",
        }


class TestTables:
    def test_every_printed_table_is_recorded_per_experiment(self, capsys):
        document = bench.run_suite(
            ["e14_track_cache", "t1_lock_compatibility"], quiet=False
        )
        printed = capsys.readouterr().out
        recorded = {
            experiment_id: outcome["tables"]
            for experiment_id, outcome in document["experiments"].items()
        }
        assert [table["title"] for table in recorded["t1_lock_compatibility"]] == [
            "T1  Table 1: lock compatibility (measured from the lock manager)"
        ]
        (readahead,) = recorded["e14_track_cache"]
        assert readahead["headers"][0] == "pattern"
        assert [row[0] for row in readahead["rows"]] == [
            "sequential", "strided", "random",
        ]
        # The record holds exactly what was printed, cells as strings.
        for tables in recorded.values():
            for table in tables:
                assert all(
                    isinstance(cell, str) for row in table["rows"] for cell in row
                )
                layout = bench.format_table(
                    table["title"], table["headers"], table["rows"]
                )
                assert layout in printed

    def test_layout_aligns_columns_without_trailing_blanks(self):
        assert bench.format_table("T", ["a", "bb"], [["long", "1"], ["x", "22"]]) == (
            "=== T ===\n"
            "a     bb\n"
            "--------\n"
            "long  1\n"
            "x     22"
        )

    def test_print_table_outside_a_run_records_nothing(self, capsys):
        with bench.recording_tables() as outer:
            with bench.recording_tables() as inner:
                bench.print_table("inner", ["h"], [[1]])
            bench.print_table("outer", ["h"], [[2]])
        bench.print_table("nobody", ["h"], [[3]])
        assert [table["title"] for table in inner] == ["inner"]
        assert [table["title"] for table in outer] == ["outer"]
        assert inner[0]["rows"] == [["1"]]
        assert "=== nobody ===" in capsys.readouterr().out


def _table(title, *headers):
    return {"title": title, "headers": list(headers), "rows": []}


def _m1_like_document():
    return {
        "experiments": {
            "m1": {
                "gauges": {
                    "bench.m1_sequential.wall_us_new": 371000,
                    "bench.m1_sequential.wall_speedup_pct": 552,
                    "disk.0.utilization": 37,
                },
                "tables": [
                    _table("M1  seq", "lane", "host time (ms)"),
                    _table("M1  rate", "refs/host-second"),
                ],
            },
            "e1": {
                "gauges": {},
                "tables": [_table("E1  refs", "file size", "sim time (ms)")],
            },
        },
    }


class TestStripWall:
    def test_strips_only_wall_gauges(self):
        document = _m1_like_document()
        bench.strip_wall(document)
        assert document["experiments"]["m1"]["gauges"] == {
            "disk.0.utilization": 37,
        }
        assert document["experiments"]["e1"]["gauges"] == {}

    def test_strips_host_time_tables_and_nothing_else(self):
        document = _m1_like_document()
        bench.strip_wall(document)
        assert document["experiments"]["m1"]["tables"] == []
        assert document["experiments"]["e1"]["tables"] == [
            _table("E1  refs", "file size", "sim time (ms)")
        ]


class TestCli:
    def test_smoke_writes_deterministic_json(self, tmp_path):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert bench.main(["--only", "e14_track_cache", "--out", str(first)]) == 0
        assert bench.main(["--only", "e14_track_cache", "--out", str(second)]) == 0
        assert first.read_text() == second.read_text()
        document = json.loads(first.read_text())
        assert document["experiments"]["e14_track_cache"]["status"] == "pass"

    def test_list_exits_clean(self, capsys):
        assert bench.main(["--list"]) == 0
        listed = capsys.readouterr().out.split()
        assert "e1_two_disk_references" in listed
