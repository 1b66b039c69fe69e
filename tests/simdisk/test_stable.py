"""Stable storage: careful replicated writes survive every single fault."""

import random

import pytest

from repro.chaos.trace import CrashPointMonitor
from repro.common.clock import SimClock
from repro.common.errors import DiskCrashedError, DiskError
from repro.common.metrics import Metrics
from repro.simdisk.disk import SimDisk
from repro.simdisk.geometry import DiskGeometry
from repro.simdisk.stable import StableStore, _parse_head


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
        assert store.free_slots() == [(2, 5)]  # the torn slot, free again

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
        assert store.free_slots() == [(0, 2)]
        assert store.rebuild_directory() == 2
        store.recover()
        assert store.free_slots() == [(0, 2)]
        assert store.get("k") == b"y" * 2000

    def test_a_tombstone_frees_every_older_copy_of_its_key(self):
        store, _, _ = build_store()
        store.put("k", b"x" * 9)  # 2 sectors at 0
        store.put("k", b"y" * 2000)  # moves to 5 sectors at 2
        store.delete("k")  # tombstones 2
        assert store.rebuild_directory() == 0
        store.recover()
        assert "k" not in store
        assert store.free_slots() == [(0, 2)]
        # Slot 0 still holds the first copy, so the tombstone stays.
        assert store._tombs == {"k": (2, 5)}

    def test_a_deleted_key_stays_deleted_when_an_old_copy_survives(self):
        """A completed move frees the old slot with the first copy still
        in it, so the tombstone's slot stays allocated: the next put of
        its size cannot overwrite the tombstone, and a rebuild cannot
        bring the key back."""
        store, _, _ = build_store()
        store.put("k0", b"x" * 10)  # 2 sectors at 0
        store.put("k0", b"y" * 1500)  # moves to 4 sectors at 2; 0 freed
        store.delete("k0")  # tombstones 2
        assert store._tombs == {"k0": (2, 4)}
        store.put("k1", b"z" * 1500)
        assert store._directory["k1"] == (6, 4)
        store.rebuild_directory()
        store.recover()
        assert "k0" not in store
        assert store.get("k1") == b"z" * 1500

    def test_a_held_tombstone_is_freed_once_a_put_lands_over_the_old_copy(self):
        store, mirror_a, _ = build_store()
        store.put("k0", b"x" * 10)
        store.put("k0", b"y" * 1500)
        store.delete("k0")
        rest_head_at(mirror_a, 64)
        store.put("j", b"w" * 10)  # over k0's first copy
        assert store._directory["j"] == (0, 2)
        assert store._tombs == {}
        assert store.free_slots() == [(2, 4)]
        store.rebuild_directory()
        store.recover()
        assert sorted(store.keys()) == ["j"]

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
        assert store.free_slots() == [(2, 5), (7, 7)]  # both torn slots
        assert store._older == {}


def headers_at(store, start):
    """``(magic, key, version)`` of the header at ``start`` on each mirror."""
    return [
        _parse_head(mirror.read_sectors(start, 1))[:3]
        for mirror in (store.mirror_a, store.mirror_b)
    ]


class TestOneSequence:
    """Every header's version is the next number of one store-wide
    sequence, and the higher version wins a slot whatever its keys: a
    tombstone that moved into a freed slot may reach one mirror only,
    the other still holding another key's header.  The schedule is one
    the fuzzer found: k1's tombstone lands in k1's slot at 0, which it
    then frees; k0's tombstone moves there and mirror A dies under it."""

    def run_schedule(self):
        store, mirror_a, mirror_b = build_store()
        store.put("k1", b"\x01" * 10)  # 2 sectors at 0
        for value in (2, 3, 4):
            store.put("k0", bytes([value]) * 10)
        store.put("k0", b"\x05" * 1500)
        store.put("k2", b"\x06" * 10)
        for value in (7, 8):
            store.put("k0", bytes([value]) * 10)
        store.delete("k1")
        mirror_a.faults.crash_after_writes(3)
        for value in (9, 10):
            store.put("k0", bytes([value]) * 10)
        store.delete("k0")  # mirror B's copy is enough
        for mirror in (mirror_a, mirror_b):
            mirror.repair()
        return store

    def test_an_acknowledged_delete_survives_a_rebuild(self):
        store = self.run_schedule()
        assert store.rebuild_directory() == 1
        store.recover()
        assert sorted(store.keys()) == ["k2"]
        assert store.get("k2") == b"\x06" * 10

    def test_the_later_tombstone_wins_a_slot_of_two_keys(self):
        """Mirror A holds k1's tombstone, B k0's later one: per-key
        versions cannot order them, and preferring a live record or a
        tombstone cannot choose between them."""
        store = self.run_schedule()
        (_, key_a, version_a), (_, key_b, version_b) = headers_at(store, 0)
        assert (key_a, key_b) == ("k1", "k0") and version_a < version_b
        assert store._scan_slot(0) == ("k0", version_b, 2, True)


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
        assert store.free_slots() == [(2, 2), (4, 2), (6, 2)]
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
        assert store.free_slots() == [(0, 5)]
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
        # One 2-sector slot, which the next 2-sector record reuses.
        assert store.free_slots() == [(1, 2)]
        store.put("k", b"x" * 9)
        assert store._directory["k"] == (1, 2)
        assert store.free_slots() == []

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
        assert store.free_slots() == [(0, 2), (2, 5)]
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
        if drop == "forget":
            assert store.free_slots() == [(0, 2), (2, 5)]
        else:  # slot 0 still holds the first copy, so the tombstone stays
            assert store.free_slots() == [(0, 2)]
            assert store._tombs == {"k": (2, 5)}


def rest_head_at(mirror, sector):
    """Leave ``mirror``'s head at ``sector`` of cylinder 0, the way a
    one-sector read that ends there does."""
    mirror.read_sectors(sector - 1, 1)


class TestPlacement:
    """A put takes the slot the mirrors reach first: of its key's own
    slot, the free slots of its size and fresh space past the last
    slot, the one the timing model charges least from mirror A's head;
    equal charges go to the lowest start."""

    @pytest.mark.parametrize(
        "head, order", [(2, [2, 4, 6]), (3, [4, 6, 10]), (5, [6, 10, 12])]
    )
    def test_each_put_takes_the_slot_the_head_reaches_first(self, head, order):
        store = store_with(5)  # 2-sector slots at 0, 2, .., 8
        for index in (1, 2, 3):
            store.forget(f"k{index}")
        rest_head_at(store.mirror_a, head)
        # Each put leaves the head at the end of the slot it took; fresh
        # space at 10 is a candidate once no more than 4 sectors are free.
        assert refill(store, 3) == order

    def test_deleted_slots_are_reused_where_the_head_reaches_them(self):
        store = store_with(5)
        for index in (1, 3):
            store.delete(f"k{index}")  # no older copy: no tombstone held
        rest_head_at(store.mirror_a, 6)
        # Then fresh space at 10 is two slots of rotation from the head.
        assert refill(store, 2) == [6, 10]

    def test_slots_freed_by_a_rebuild_are_reused_where_the_head_reaches_them(
        self,
    ):
        store = store_with(5)
        for index in (3, 1, 2):
            store.put(f"k{index}", b"x" * 2000)  # moves off its slot
        store.rebuild_directory()
        store.recover()
        assert [slot for slot in store.free_slots() if slot[1] == 2] == [
            (2, 2), (4, 2), (6, 2)
        ]
        for head, start in ((5, 6), (1, 2), (3, 4)):
            rest_head_at(store.mirror_a, head)
            store.put(f"new{start}", b"w" * 9)
            assert store._directory[f"new{start}"] == (start, 2)

    def test_the_key_keeps_its_slot_when_it_is_the_cheapest(self):
        store = store_with(3)  # k0 at 0, k1 at 2, k2 at 4
        store.forget("k1")
        rest_head_at(store.mirror_a, 64)  # angle 0: slot 0 comes first
        store.put("k0", b"z" * 9)
        assert store._directory["k0"] == (0, 2)
        assert store.free_slots() == [(2, 2)]
        assert store._older == {}

    def test_a_put_moves_to_the_free_slot_the_head_reaches_first(self):
        store = store_with(3)
        store.forget("k1")
        rest_head_at(store.mirror_a, 2)
        store.put("k0", b"z" * 9)
        assert store._directory["k0"] == (2, 2)
        assert store.free_slots() == [(0, 2)]  # both new copies landed

    def test_fresh_space_is_taken_when_the_head_rests_at_it(self):
        store = store_with(3)  # the last put left the head at 6
        store.forget("k1")
        assert refill(store, 1) == [6]

    @pytest.mark.parametrize("order", [("k1", "k33"), ("k33", "k1")])
    def test_equal_charges_go_to_the_lowest_start(self, order):
        store = store_with(36)  # 2-sector slots at 0, 2, .., 70
        for key in order:
            store.forget(key)  # slots 2 and 66: one angle, one cylinder
        rest_head_at(store.mirror_a, 2)
        assert refill(store, 1) == [2]


class TestGrowthBound:
    """Fresh space past the last slot is a candidate by choice only
    while the area holds fewer free sectors than allocated ones; a
    record whose size no free slot has takes it anyway."""

    def test_relocating_puts_on_a_fixed_key_set_stay_within_the_bound(self):
        """Churn-shaped: many FIT-sized records, a small tail rewritten
        after each put and one large base every third, each record
        keeping its size, with reads that move the head between puts."""
        rng = random.Random(7)
        store, _, _ = build_store()
        sizes = {f"fit{index}": 2000 for index in range(60)}
        sizes.update({"tail": 1000, "base": 60_000})
        for key, size in sizes.items():
            store.put(key, bytes(size))
        live = sum(n_sectors for _, n_sectors in store._directory.values())
        slot_sizes = {n_sectors for _, n_sectors in store._directory.values()}
        moves = 0
        for step in range(3000):
            key = rng.choice(list(sizes)[:60]) if step % 3 else "base"
            before = store._directory[key]
            store.put(key, bytes([step % 256]) * sizes[key])
            moves += store._directory[key] != before
            store.put("tail", bytes([step % 256]) * sizes["tail"])
            if rng.random() < 0.5:
                store.get(rng.choice(list(sizes)))
            assert store._next_sector <= 2 * live + sum(slot_sizes)
        assert moves > 1000
        assert store.rebuild_directory() == len(sizes)

    def test_an_old_slot_is_reused_once_both_new_copies_land(self):
        store, mirror_a, mirror_b = build_store()
        store.put("k0", b"x" * 9)  # 2 sectors at 0
        store.put("k1", b"x" * 9)  # 2 sectors at 2; the head rests at 4
        mirror_b.crash()
        with pytest.raises(DiskCrashedError):
            store.put("k0", b"y" * 9)  # moves to fresh space at 4
        assert store._older == {"k0": [(0, 2)]}
        rest_head_at(mirror_a, 64)
        mirror_b.repair()
        store.put("j", b"z" * 9)  # slot 0 holds k0's only durable copy
        assert store._directory["j"] == (6, 2)
        store.recover()
        assert store.free_slots() == [(0, 2)]
        rest_head_at(mirror_a, 64)
        store.put("j", b"w" * 9)
        assert store._directory["j"] == (0, 2)
        assert store.get("k0") == b"y" * 9
