"""Unit coverage of the access monitor: tasks, edges, chains, recording."""

from __future__ import annotations

import pytest

from repro.analysis.monitor import (
    ALL_CELLS_HI,
    AccessMonitor,
    NULL_MONITOR,
    active,
    install,
    uninstall,
)
from repro.analysis import monitor as monitor_module


class TestTasks:
    def test_mainline_is_task_zero(self):
        monitor = AccessMonitor()
        assert monitor.current() == 0
        assert monitor.task_labels[0] == "main"

    def test_open_task_binds_to_opener_by_default(self):
        monitor = AccessMonitor()
        tid = monitor.open_task("child")
        assert (0, tid) in monitor.edges
        assert monitor.current() == tid
        monitor.close_task()
        assert monitor.current() == 0

    def test_bind_false_records_only_the_afters(self):
        monitor = AccessMonitor()
        spawn = monitor.open_task("spawner")
        monitor.close_task()
        with monitor.task("event", after=(spawn,), bind=False) as tid:
            assert monitor.current() == tid
        assert (spawn, tid) in monitor.edges
        assert (0, tid) not in monitor.edges

    def test_rejoin_splits_the_segment(self):
        monitor = AccessMonitor()
        branch = monitor.open_task("branch")
        monitor.close_task()
        joined = monitor.rejoin("join", after=(branch,))
        assert monitor.current() == joined
        assert (0, joined) in monitor.edges  # old segment feeds the new one
        assert (branch, joined) in monitor.edges

    def test_barrier_orders_after_every_existing_task(self):
        monitor = AccessMonitor()
        tasks = []
        for index in range(3):
            tasks.append(monitor.open_task(f"t{index}"))
            monitor.close_task()
        barrier = monitor.rejoin("pre", ())  # split once first
        barrier = monitor.barrier("restart")
        for task in tasks:
            assert (task, barrier) in monitor.edges

    def test_close_never_pops_the_mainline(self):
        monitor = AccessMonitor()
        monitor.close_task()
        monitor.close_task()
        assert monitor.current() == 0

    def test_backward_edge_is_rejected(self):
        monitor = AccessMonitor()
        with pytest.raises(ValueError):
            monitor._edge(3, 1)


class TestChain:
    def test_consecutive_chain_members_get_an_edge(self):
        monitor = AccessMonitor()
        resource = object()
        first = monitor.open_task("a")
        monitor.chain(resource)
        monitor.close_task()
        second = monitor.open_task("b")
        monitor.chain(resource)
        monitor.close_task()
        assert (first, second) in monitor.edges

    def test_parent_resuming_after_child_skips_backward_pair(self):
        monitor = AccessMonitor()
        resource = object()
        child = monitor.open_task("child")
        monitor.chain(resource)
        monitor.close_task()
        # mainline (task 0) touches the chain after its own child did:
        # no backward edge, no exception, chain advances
        monitor.chain(resource)
        later = monitor.open_task("later")
        monitor.chain(resource)
        assert (0, later) in monitor.edges
        assert all(src < dst for src, dst in monitor.edges)
        assert (child, 0) not in monitor.edges

    def test_distinct_names_are_distinct_chains(self):
        monitor = AccessMonitor()
        resource = object()
        first = monitor.open_task("a")
        monitor.chain(resource, name="x")
        monitor.close_task()
        second = monitor.open_task("b")
        monitor.chain(resource, name="y")
        monitor.close_task()
        assert (first, second) not in monitor.edges


class TestCompletions:
    def test_settled_task_is_recorded(self):
        monitor = AccessMonitor()
        completion = object()
        tid = monitor.open_task("finisher")
        monitor.note_settled(completion)
        monitor.close_task()
        assert monitor.settled_task(completion) == tid
        assert monitor.settled_task(object()) is None


class TestRecording:
    def test_intervals_and_kinds(self):
        monitor = AccessMonitor()
        structure = object()
        monitor.read(structure, 3, site="s.read")
        monitor.write(structure, 5, 9, site="s.write")
        monitor.read_all(structure, site="s.scan")
        kinds = [(a.lo, a.hi, a.kind) for a in monitor.accesses]
        assert kinds == [(3, 4, "r"), (5, 9, "w"), (0, ALL_CELLS_HI, "r")]

    def test_duplicate_accesses_dedup_within_a_task(self):
        monitor = AccessMonitor()
        structure = object()
        for _ in range(5):
            monitor.write(structure, 1, site="s.put")
        assert len(monitor.accesses) == 1
        monitor.open_task("other")
        monitor.write(structure, 1, site="s.put")
        assert len(monitor.accesses) == 2

    def test_key_accesses_intern_per_structure_cells(self):
        monitor = AccessMonitor()
        structure = object()
        monitor.key_write(structure, "alpha", name="dir", site="d.put")
        monitor.key_write(structure, "beta", name="dir", site="d.put")
        monitor.key_read(structure, "alpha", name="dir", site="d.get")
        cells = [(a.lo, a.kind) for a in monitor.accesses]
        assert cells == [(0, "w"), (1, "w"), (0, "r")]

    def test_structure_labels_are_deterministic(self):
        monitor = AccessMonitor()
        structure = object()
        monitor.read(structure, 0, name="protection", site="x")
        assert monitor.structure_labels == ["object.protection#0"]

    def test_time_stamps_come_from_now_fn(self):
        ticks = iter(range(10, 100, 10))
        monitor = AccessMonitor(now_fn=lambda: next(ticks))
        structure = object()
        monitor.read(structure, 0, site="x")
        assert monitor.accesses[0].time_us == 10


class TestInstall:
    def test_null_monitor_is_default_and_inert(self):
        assert active() is NULL_MONITOR
        assert not active().enabled
        with active().task("ignored") as tid:
            assert tid == 0
        active().read(object(), 0)
        assert active().rejoin("x") == 0
        assert active().barrier("x") == 0

    def test_install_uninstall_roundtrip(self):
        monitor = AccessMonitor()
        try:
            assert install(monitor) is monitor
            assert active() is monitor
            with pytest.raises(RuntimeError):
                install(AccessMonitor())
        finally:
            uninstall()
        assert monitor_module.active() is NULL_MONITOR
        uninstall()  # idempotent
