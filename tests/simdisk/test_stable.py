"""Stable storage: careful replicated writes survive every single fault."""

import pytest

from repro.chaos.trace import CrashPointMonitor
from repro.common.clock import SimClock
from repro.common.errors import DiskCrashedError, DiskError
from repro.common.metrics import Metrics
from repro.simdisk.disk import SimDisk
from repro.simdisk.geometry import DiskGeometry
from repro.simdisk.stable import StableStore


def build_store():
    clock = SimClock()
    metrics = Metrics()
    mirror_a = SimDisk("a", DiskGeometry.small(), clock, metrics)
    mirror_b = SimDisk("b", DiskGeometry.small(), clock, metrics)
    return StableStore(mirror_a, mirror_b), mirror_a, mirror_b


def store_with(n):
    store, _, _ = build_store()
    for index in range(n):
        store.put(f"k{index}", b"v" * 9)  # 2 sectors each
    return store


def refill(store, n):
    for index in range(n):
        store.put(f"new{index}", b"w" * 9)
    return [store._directory[f"new{index}"][0] for index in range(n)]


class TestBasics:
    def test_put_get_round_trip(self):
        store, _, _ = build_store()
        store.put("fit:10", b"structural data")
        assert store.get("fit:10") == b"structural data"

    def test_overwrite_updates(self):
        store, _, _ = build_store()
        store.put("k", b"v1")
        store.put("k", b"v2")
        assert store.get("k") == b"v2"

    def test_missing_key_raises(self):
        store, _, _ = build_store()
        with pytest.raises(KeyError):
            store.get("nothing")

    def test_contains_and_keys(self):
        store, _, _ = build_store()
        store.put("x", b"1")
        store.put("y", b"2")
        assert "x" in store
        assert "z" not in store
        assert sorted(store.keys()) == ["x", "y"]

    def test_delete(self):
        store, _, _ = build_store()
        store.put("k", b"v")
        store.delete("k")
        assert "k" not in store
        with pytest.raises(KeyError):
            store.get("k")

    def test_delete_missing_is_noop(self):
        store, _, _ = build_store()
        store.delete("never-existed")

    def test_empty_payload(self):
        store, _, _ = build_store()
        store.put("empty", b"")
        assert store.get("empty") == b""

    def test_large_payload(self):
        store, _, _ = build_store()
        blob = bytes(range(256)) * 64  # 16 KB
        store.put("big", blob)
        assert store.get("big") == blob

    def test_slot_reuse_after_delete(self):
        store, _, _ = build_store()
        store.put("a", b"x" * 100)
        store.delete("a")
        high_water = store._next_sector
        store.put("b", b"y" * 100)
        assert store._next_sector == high_water  # tombstoned slot reused


class TestSurvival:
    def test_read_survives_one_mirror_crash(self):
        store, mirror_a, mirror_b = build_store()
        store.put("k", b"precious")
        mirror_a.crash()
        assert store.get("k") == b"precious"
        mirror_a.repair()
        mirror_b.crash()
        assert store.get("k") == b"precious"

    def test_both_mirrors_down_is_an_error(self):
        store, mirror_a, mirror_b = build_store()
        store.put("k", b"v")
        mirror_a.crash()
        mirror_b.crash()
        with pytest.raises(DiskError):
            store.get("k")

    def test_crash_between_mirror_writes_keeps_old_or_new(self):
        """The careful-write guarantee at every crash point."""
        for crash_at in (1, 2):
            store, mirror_a, mirror_b = build_store()
            store.put("k", b"OLD")
            mirror_a.faults.crash_after_writes(crash_at) if crash_at == 1 else (
                mirror_b.faults.crash_after_writes(1)
            )
            try:
                store.put("k", b"NEW")
            except DiskCrashedError:
                pass
            mirror_a.repair()
            mirror_b.repair()
            store.recover()
            assert store.get("k") in (b"OLD", b"NEW")

    def test_recover_repairs_diverged_mirrors(self):
        store, mirror_a, mirror_b = build_store()
        store.put("k", b"v1")
        mirror_b.crash()
        try:
            store.put("k", b"v2")
        except DiskCrashedError:
            pass
        mirror_b.repair()
        repaired = store.recover()
        assert repaired >= 1
        mirror_a.crash()  # force read from B: must now hold v2
        assert store.get("k") == b"v2"

    def test_recover_on_healthy_store_is_noop(self):
        store, _, _ = build_store()
        store.put("k", b"v")
        assert store.recover() == 0


class TestDirectoryRebuild:
    def test_rebuild_finds_records(self):
        store, _, _ = build_store()
        store.put("one", b"1")
        store.put("two", b"22")
        store.put("three", b"333")
        store.delete("two")
        found = store.rebuild_directory()
        assert found == 2
        assert store.get("one") == b"1"
        assert store.get("three") == b"333"
        assert "two" not in store

    def test_rebuild_keeps_latest_version(self):
        store, _, _ = build_store()
        store.put("k", b"x" * 600)  # 2+ sectors
        store.put("k", b"y")  # smaller: may move slots
        store.rebuild_directory()
        assert store.get("k") == b"y"

    @pytest.mark.parametrize("rebuilt", [False, True])
    def test_a_relocation_that_tore_falls_back_to_the_old_copy(self, rebuilt):
        """The move's header lands on mirror A, its payload tears and
        mirror B is never written: the old copy, intact on both
        mirrors, is the record — whether recovery kept the in-memory
        directory or rebuilt it from the headers."""
        store, mirror_a, mirror_b = build_store()
        store.put("k", b"oldoldold")
        monitor = CrashPointMonitor().attach(mirror_a, mirror_b)
        monitor.arm(1)
        with pytest.raises(DiskCrashedError):
            store.put("k", b"n" * 2000)  # relocates to a 5-sector slot
        assert 0 < monitor.torn_sectors(1, 5) < 5
        for mirror in (mirror_a, mirror_b):
            mirror.repair()
        if rebuilt:
            assert store.rebuild_directory() == 1
        store.recover()
        assert store.get("k") == b"oldoldold"
        assert store._free == {5: [2]}  # the torn slot, free again

    def test_a_put_after_a_fallback_outranks_the_torn_header(self):
        """The torn move's header stays in the slot recovery freed; the
        key's next put must carry a higher version, or a rebuild takes
        the torn copy (equal version, lower sector) for the record."""
        store, mirror_a, mirror_b = build_store()
        store.put("pad", b"p" * 2000)  # 5 sectors at 0
        store.put("k", b"oldoldold")  # 2 sectors at 5
        store.delete("pad")
        monitor = CrashPointMonitor().attach(mirror_a, mirror_b)
        monitor.arm(1)
        with pytest.raises(DiskCrashedError):
            store.put("k", b"n" * 2000)  # moves to the free slot at 0
        for mirror in (mirror_a, mirror_b):
            mirror.repair()
        store.recover()
        store.put("k", b"newer")  # in place at 5
        store.rebuild_directory()
        assert store._directory["k"] == (5, 2)
        store.recover()
        assert store.get("k") == b"newer"

    def test_a_rebuild_frees_a_superseded_copy_and_counts_keys(self):
        store, _, _ = build_store()
        store.put("k", b"x" * 9)  # 2 sectors at 0
        store.put("k", b"y" * 2000)  # moves to 5 sectors at 2
        store.put("j", b"")  # 1 sector
        assert store._free == {2: [0]}
        assert store.rebuild_directory() == 2
        store.recover()
        assert store._free == {2: [0]}
        assert store.get("k") == b"y" * 2000

    def test_a_tombstone_frees_every_older_copy_of_its_key(self):
        store, _, _ = build_store()
        store.put("k", b"x" * 9)  # 2 sectors at 0
        store.put("k", b"y" * 2000)  # moves to 5 sectors at 2
        store.delete("k")  # tombstones 2
        assert store.rebuild_directory() == 0
        store.recover()
        assert "k" not in store
        assert store._free[2] == [0]

    @pytest.mark.parametrize("rebuilt", [True, False])
    def test_a_key_whose_first_write_tore_survives_its_next_rebuild(self, rebuilt):
        """A torn first copy leaves a header with no record behind it;
        recovery drops the key, and the key's next put must outrank that
        header when the directory is rebuilt from the mirrors again —
        whether the first recovery rebuilt the directory or kept it."""
        store, mirror_a, mirror_b = build_store()
        monitor = CrashPointMonitor().attach(mirror_a, mirror_b)
        monitor.arm(1)
        with pytest.raises(DiskCrashedError):
            store.put("k", b"x" * 2000)
        assert 0 < monitor.torn_sectors(1, 5) < 5  # the header landed
        for mirror in (mirror_a, mirror_b):
            mirror.repair()
        if rebuilt:
            store.rebuild_directory()
        store.recover()
        assert "k" not in store
        store.put("k", b"y" * 2000)
        store.rebuild_directory()
        store.recover()
        assert store.get("k") == b"y" * 2000

    def test_two_torn_moves_fall_back_to_the_intact_copy_after_a_rebuild(self):
        """Each torn move leaves a newer header behind; a rebuild must
        try every live copy, newest first, not only the two newest."""
        store, mirror_a, mirror_b = build_store()
        store.put("k", b"oldoldold")  # 2 sectors at 0
        for size, n_sectors in ((2000, 5), (3000, 7)):
            monitor = CrashPointMonitor().attach(mirror_a, mirror_b)
            monitor.arm(1)
            with pytest.raises(DiskCrashedError):
                store.put("k", b"n" * size)  # moves to a new slot
            assert 0 < monitor.torn_sectors(1, n_sectors) < n_sectors
            for mirror in (mirror_a, mirror_b):
                mirror.repair()
            store.recover()
            assert store.get("k") == b"oldoldold"
        assert store.rebuild_directory() == 1
        store.recover()
        assert store.get("k") == b"oldoldold"
        assert store._free == {5: [2], 7: [7]}  # both torn slots
        assert store._older == {}


class TestNoSlotLeaks:
    """Every slot a key stops needing is free again: after a delete
    and a rebuild, after a torn first write, after repeated moves, and
    after a delete or forget in the middle of a move."""

    def test_a_rebuild_frees_every_sector_of_a_deleted_slot(self):
        store = store_with(5)  # 2-sector slots at 0, 2, .., 8
        for index in (1, 2, 3):
            store.delete(f"k{index}")
        store.rebuild_directory()
        store.recover()
        assert store._free == {2: [2, 4, 6]}
        assert refill(store, 3) == [2, 4, 6]

    @pytest.mark.parametrize("rebuilt", [False, True])
    def test_a_torn_first_write_frees_its_slot(self, rebuilt):
        store, mirror_a, mirror_b = build_store()
        monitor = CrashPointMonitor().attach(mirror_a, mirror_b)
        monitor.arm(1)
        with pytest.raises(DiskCrashedError):
            store.put("k", b"x" * 2000)  # 5 sectors at 0
        assert 0 < monitor.torn_sectors(1, 5) < 5  # the header landed
        for mirror in (mirror_a, mirror_b):
            mirror.repair()
        if rebuilt:
            store.rebuild_directory()
        store.recover()
        assert "k" not in store
        assert store._free == {5: [0]}
        assert store._next_sector == 5

    def test_a_first_write_with_no_header_frees_its_sectors_on_a_rebuild(self):
        store, mirror_a, mirror_b = build_store()
        store.put("j", b"")  # 1 sector at 0
        mirror_a.faults.crash_after_writes(1)  # tears a 2-sector write to 0
        with pytest.raises(DiskCrashedError):
            store.put("k", b"x" * 9)  # 2 sectors at 1
        assert store._scan_slot(1) is None  # no header on either mirror
        for mirror in (mirror_a, mirror_b):
            mirror.repair()
        store.rebuild_directory()
        store.recover()
        assert sorted(store.keys()) == ["j"]
        assert store._free == {1: [1, 2]}

    def test_two_moves_before_recovery_free_both_old_slots(self):
        """Mirror B is down for two moves of one key: both old slots
        wait for the move that lands, and recovery frees both."""
        store, mirror_a, mirror_b = build_store()
        store.put("k", b"x" * 9)  # 2 sectors at 0
        mirror_b.crash()
        for size in (2000, 3000):  # 5 sectors at 2, then 7 at 7
            with pytest.raises(DiskCrashedError):
                store.put("k", b"y" * size)
        mirror_b.repair()
        store.recover()
        assert store.get("k") == b"y" * 3000
        assert store._free == {5: [2], 2: [0]}
        assert store._older == {}

    @pytest.mark.parametrize("drop", ["delete", "forget"])
    def test_dropping_a_key_mid_move_frees_its_old_slot(self, drop):
        store, mirror_a, mirror_b = build_store()
        store.put("k", b"x" * 9)  # 2 sectors at 0
        mirror_b.crash()
        with pytest.raises(DiskCrashedError):
            store.put("k", b"y" * 2000)  # 5 sectors at 2, on mirror A only
        getattr(store, drop)("k")
        mirror_b.repair()
        store.recover()
        assert "k" not in store
        assert store._free == {2: [0], 5: [2]}


class TestPlacement:
    """A put takes the lowest free slot of its size, whatever order the
    slots were freed in."""

    @pytest.mark.parametrize("order", [(1, 2, 3), (3, 2, 1), (2, 3, 1)])
    def test_forgotten_slots_are_reused_lowest_first(self, order):
        store = store_with(5)
        for index in order:
            store.forget(f"k{index}")
        assert refill(store, 3) == [2, 4, 6]

    def test_deleted_slots_are_reused_lowest_first(self):
        store = store_with(5)
        for index in (1, 3):
            store.delete(f"k{index}")
        assert refill(store, 2) == [2, 6]

    def test_a_completed_relocation_frees_its_old_slot_in_order(self):
        store = store_with(3)
        store.forget("k2")  # slot 4
        store.put("k0", b"x" * 2000)  # moves off slot 0
        store.forget("k1")  # slot 2
        assert refill(store, 3) == [0, 2, 4]

    def test_slots_freed_by_a_rebuild_are_reused_lowest_first(self):
        store = store_with(5)
        for index in (3, 1, 2):
            store.put(f"k{index}", b"x" * 2000)  # moves off its slot
        store.rebuild_directory()
        store.recover()
        assert refill(store, 3) == [2, 4, 6]
