"""Detector semantics on hand-built monitors: what is and isn't a race."""

from __future__ import annotations

import pytest

from repro.analysis.happens_before import HBGraph, detect, report, validate
from repro.analysis.monitor import AccessMonitor


def two_unordered_writers() -> AccessMonitor:
    """Tasks 1 and 2, siblings under main, both writing cell 5."""
    monitor = AccessMonitor()
    shared = object()
    monitor.open_task("writer-a")
    monitor.write(shared, 5, site="a.put")
    monitor.close_task()
    monitor.open_task("writer-b")
    monitor.write(shared, 5, site="b.put")
    monitor.close_task()
    return monitor


class TestHBGraph:
    def test_direct_and_transitive_order(self):
        graph = HBGraph(4, [(0, 1), (1, 3)])
        assert graph.ordered(0, 1)
        assert graph.ordered(0, 3)  # transitive
        assert graph.ordered(1, 3)
        assert not graph.ordered(1, 2)
        assert graph.ordered(2, 2)  # reflexive

    def test_direction_agnostic(self):
        graph = HBGraph(3, [(0, 2)])
        assert graph.ordered(2, 0) == graph.ordered(0, 2)

    def test_malformed_edge_rejected(self):
        with pytest.raises(ValueError):
            HBGraph(2, [(1, 1)])
        with pytest.raises(ValueError):
            HBGraph(2, [(0, 5)])


class TestDetect:
    def test_unordered_write_write_is_a_race(self):
        monitor = two_unordered_writers()
        findings = detect(monitor)
        assert len(findings) == 1
        finding = findings[0]
        assert {finding.first.site, finding.second.site} == {"a.put", "b.put"}
        assert finding.pairs == 1

    def test_an_edge_between_the_writers_clears_it(self):
        monitor = two_unordered_writers()
        monitor._edge(1, 2)
        assert detect(monitor) == []

    def test_read_read_is_never_a_race(self):
        monitor = AccessMonitor()
        shared = object()
        monitor.open_task("reader-a")
        monitor.read(shared, 5, site="a.get")
        monitor.close_task()
        monitor.open_task("reader-b")
        monitor.read(shared, 5, site="b.get")
        monitor.close_task()
        assert detect(monitor) == []

    def test_disjoint_intervals_do_not_conflict(self):
        monitor = AccessMonitor()
        shared = object()
        monitor.open_task("low")
        monitor.write(shared, 0, 4, site="low.put")
        monitor.close_task()
        monitor.open_task("high")
        monitor.write(shared, 4, 8, site="high.put")
        monitor.close_task()
        assert detect(monitor) == []

    def test_whole_structure_access_overlaps_everything(self):
        monitor = AccessMonitor()
        shared = object()
        monitor.open_task("scanner")
        monitor.read_all(shared, site="scan")
        monitor.close_task()
        monitor.open_task("writer")
        monitor.write(shared, 1_000_000, site="put")
        monitor.close_task()
        assert len(detect(monitor)) == 1

    def test_same_task_conflicts_are_program_ordered(self):
        monitor = AccessMonitor()
        shared = object()
        monitor.write(shared, 5, site="put")
        monitor.read(shared, 5, site="get")
        assert detect(monitor) == []

    def test_pair_count_aggregates_one_signature(self):
        monitor = AccessMonitor()
        shared = object()
        monitor.open_task("writer")
        monitor.write(shared, 0, 10, site="put")
        monitor.close_task()
        for index in range(3):
            monitor.open_task(f"reader{index}")
            monitor.read(shared, index, site="get")
            monitor.close_task()
        findings = detect(monitor)
        assert len(findings) == 1
        assert findings[0].pairs == 3


class TestValidateAndReport:
    def test_clean_monitor_validates_empty(self):
        monitor = two_unordered_writers()
        assert validate(monitor) == []

    def test_time_travel_is_reported(self):
        times = iter([5, 0])
        monitor = AccessMonitor(now_fn=lambda: next(times))
        monitor.open_task("early")  # stamped 5
        monitor.rejoin("later")  # stamped 0: the segment went backward
        problems = validate(monitor)
        assert problems and "back in time" in problems[0]

    def test_report_shape_and_determinism(self):
        monitor = two_unordered_writers()
        first = report(monitor, detect(monitor))
        second = report(monitor, detect(monitor))
        assert first == second
        assert first["tasks"] == 3
        assert first["hb_violations"] == []
        assert len(first["findings"]) == 1
        endpoint = first["findings"][0]["first"]
        assert set(endpoint) == {
            "task", "task_label", "kind", "lo", "hi", "time_us", "site"
        }
