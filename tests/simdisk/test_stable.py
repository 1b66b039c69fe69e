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
