"""The RAID tier's algebra and redundancy contracts, unit-tested.

Four claims carry the design (DESIGN.md §14) and each gets direct
coverage here: the chunk -> (member, physical) mapping is a bijection
over the data area (metadata and parity chunks excluded); the on-disk
superblock and journal records survive a pack/parse round trip and
reject every torn or foreign blob; degraded reads are *byte-identical*
to optimal reads for arbitrary write histories with any single member
down (the hypothesis property the acceptance gate names); and the
background rebuild restores OPTIMAL content-exactly, even when its own
target dies mid-rebuild.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.clock import SimClock
from repro.common.errors import BadAddressError, MediaError
from repro.common.metrics import Metrics
from repro.simdisk.disk import SimDisk
from repro.simdisk.geometry import DiskGeometry
from repro.simdisk.raid import (
    ArrayFailedError,
    ArrayState,
    RaidRebuilder,
    StripedVolume,
    _pack_journal,
    _pack_superblock,
    _parse_journal,
    _parse_superblock,
)

#: 64 sectors per member; chunk 4 -> 16 physical chunks, 2 of metadata.
SMALL = DiskGeometry(cylinders=4, heads=2, sectors_per_track=8)
SECTOR = SMALL.sector_size


def make_array(level="raid5", members=4, chunk=4):
    clock, metrics = SimClock(), Metrics()
    drives = [
        SimDisk(f"m{i}", SMALL, clock, metrics) for i in range(members)
    ]
    array = StripedVolume(
        "t", drives, level=level, chunk_sectors=chunk, metrics=metrics
    )
    return array, drives, metrics


def data_chunks(array):
    return array.geometry.total_sectors // array.chunk_sectors


class TestLayoutAlgebra:
    @pytest.mark.parametrize("level", ["raid0", "raid1", "raid5"])
    def test_mapping_round_trips_over_the_whole_data_area(self, level):
        array, _, _ = make_array(level=level)
        seen = set()
        for chunk in range(data_chunks(array)):
            member, physical = array.chunk_to_member(chunk)
            assert physical >= array.meta_chunks
            assert physical < array.member_chunks
            assert array.member_to_chunk(member, physical) == chunk
            seen.add((member, physical))
        # Injective: no two logical chunks share a physical placement.
        assert len(seen) == data_chunks(array)

    @pytest.mark.parametrize("level", ["raid0", "raid1", "raid5"])
    def test_metadata_area_is_unmapped(self, level):
        array, _, _ = make_array(level=level)
        for member in range(len(array.members)):
            for physical in range(array.meta_chunks):
                assert array.member_to_chunk(member, physical) is None
            assert array.member_to_chunk(member, array.member_chunks) is None

    def test_parity_rotates_and_is_unmapped(self):
        array, _, _ = make_array(level="raid5")
        rows = array.member_chunks - array.meta_chunks
        holders = set()
        for row in range(rows):
            parity = array.parity_member(row)
            holders.add(parity)
            assert (
                array.member_to_chunk(parity, array.meta_chunks + row)
                is None
            )
        # Left-asymmetric rotation visits every member.
        assert holders == set(range(len(array.members)))

    def test_bad_addresses_raise(self):
        array, _, _ = make_array()
        with pytest.raises(BadAddressError):
            array.chunk_to_member(-1)
        with pytest.raises(BadAddressError):
            array.member_to_chunk(99, 2)

    def test_stripe_boundary_io_is_byte_exact(self):
        array, _, _ = make_array(level="raid5", chunk=4)
        shadow = bytearray(array.geometry.total_sectors * SECTOR)
        row_bytes = 3 * 4 * SECTOR  # data columns x chunk x sector
        spans = [
            (0, 4 * SECTOR),                    # exactly one chunk
            (4 * SECTOR - 7, 14),               # straddles a chunk edge
            (row_bytes - SECTOR, 2 * SECTOR),   # straddles a row edge
            (2 * row_bytes + 5, row_bytes),     # a full row, misaligned
        ]
        for fill, (offset, length) in enumerate(spans, start=1):
            lo = offset // SECTOR
            hi = -(-(offset + length) // SECTOR)
            data = bytearray(array.read_sectors(lo, hi - lo))
            data[offset - lo * SECTOR : offset - lo * SECTOR + length] = (
                bytes([fill]) * length
            )
            array.write_sectors(lo, bytes(data))
            shadow[lo * SECTOR : hi * SECTOR] = data
        whole = array.read_sectors(0, array.geometry.total_sectors)
        assert whole == bytes(shadow)

    def test_optimal_parity_invariant_holds_raw(self):
        array, drives, _ = make_array(level="raid5", chunk=4)
        array.write_sectors(8, bytes(range(256)) * 20)  # 10 sectors
        chunk_sectors = array.chunk_sectors
        for row in range(array.member_chunks - array.meta_chunks):
            physical = (array.meta_chunks + row) * chunk_sectors
            acc = bytes(chunk_sectors * SECTOR)
            for drive in drives:
                raw = drive.read_sectors(physical, chunk_sectors)
                acc = bytes(a ^ b for a, b in zip(acc, raw))
            assert acc == bytes(len(acc)), f"row {row} parity broken"


class TestOnDiskCodecs:
    def test_superblock_round_trip(self):
        blob = _pack_superblock(5, 4, 16, 2, epoch=7, failed_bits=0b0010,
                                rebuilding_bits=0b1000, sector_size=SECTOR)
        assert len(blob) == SECTOR
        parsed = _parse_superblock(
            blob, level=5, n_members=4, chunk_sectors=16, member_index=2
        )
        assert parsed == (7, 0b0010, 0b1000)

    def test_superblock_rejects_foreign_and_torn(self):
        blob = _pack_superblock(5, 4, 16, 2, epoch=7, failed_bits=0,
                                rebuilding_bits=0, sector_size=SECTOR)
        common = dict(level=5, n_members=4, chunk_sectors=16)
        # Same bytes, different slot: the identity check refuses it.
        assert _parse_superblock(blob, member_index=3, **common) is None
        # One flipped byte: the CRC refuses it.
        torn = bytes([blob[0] ^ 0xFF]) + blob[1:]
        assert _parse_superblock(torn, member_index=2, **common) is None
        assert _parse_superblock(bytes(SECTOR), member_index=2, **common) is None

    def test_journal_round_trip_and_rejection(self):
        payload = bytes(range(256)) * 8
        blob = _pack_journal(1, 5, 2, 3, epoch=9, payload=payload,
                             sector_size=SECTOR)
        assert len(blob) == SECTOR
        import zlib
        assert _parse_journal(blob) == (1, 5, 2, 3, zlib.crc32(payload))
        assert _parse_journal(bytes(SECTOR)) is None
        # A torn byte inside the record body breaks the CRC.
        assert _parse_journal(bytes([blob[0] ^ 1]) + blob[1:]) is None


#: (start_sector, n_sectors, fill) histories; starts are taken modulo
#: the array's actual logical capacity (the logical geometry rounds to
#: a rectangular shape, so it can sit below the raw data capacity).
def write_ops(total_sectors):
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=total_sectors - 1),
            st.integers(min_value=1, max_value=24),
            st.integers(min_value=1, max_value=255),
        ),
        min_size=1,
        max_size=12,
    )


class TestDegradedEquivalence:
    """The acceptance property: one member down changes nothing a
    reader can observe — reconstruction is byte-identical."""

    @given(ops=write_ops(56 * 3), failed=st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_raid5_degraded_reads_match_optimal(self, ops, failed):
        array, _, _ = make_array(level="raid5", members=4, chunk=4)
        total = array.geometry.total_sectors
        shadow = bytearray(total * SECTOR)
        for start, n, fill in ops:
            start %= total
            n = min(n, total - start)
            data = bytes([fill]) * (n * SECTOR)
            array.write_sectors(start, data)
            shadow[start * SECTOR : (start + n) * SECTOR] = data
        array.fail_member(failed)
        assert array.state is ArrayState.DEGRADED
        assert array.read_sectors(0, total) == bytes(shadow)

    @given(ops=write_ops(56), failed=st.integers(min_value=0, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_raid1_degraded_reads_match_optimal(self, ops, failed):
        array, _, _ = make_array(level="raid1", members=3, chunk=4)
        total = array.geometry.total_sectors
        shadow = bytearray(total * SECTOR)
        for start, n, fill in ops:
            start %= total
            n = min(n, total - start)
            data = bytes([fill]) * (n * SECTOR)
            array.write_sectors(start, data)
            shadow[start * SECTOR : (start + n) * SECTOR] = data
        array.fail_member(failed)
        assert array.state is ArrayState.DEGRADED
        assert array.read_sectors(0, total) == bytes(shadow)

    @given(ops=write_ops(56 * 3), failed=st.integers(min_value=0, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_degraded_writes_survive_rebuild(self, ops, failed):
        """Writes issued *while* degraded are intact after replace +
        rebuild returns the array to OPTIMAL."""
        array, _, _ = make_array(level="raid5", members=4, chunk=4)
        total = array.geometry.total_sectors
        array.fail_member(failed)
        shadow = bytearray(total * SECTOR)
        for start, n, fill in ops:
            start %= total
            n = min(n, total - start)
            data = bytes([fill]) * (n * SECTOR)
            array.write_sectors(start, data)
            shadow[start * SECTOR : (start + n) * SECTOR] = data
        array.replace_member(failed, blank=True)
        RaidRebuilder(array, chunks_per_step=8).run_cycle()
        assert array.state is ArrayState.OPTIMAL
        assert array.read_sectors(0, total) == bytes(shadow)


class TestRecoverFromSuperblocks:
    def test_membership_survives_a_restart(self):
        array, drives, _ = make_array(level="raid5")
        array.write_sectors(0, b"\x5a" * (20 * SECTOR))
        array.fail_member(1)
        epoch = array.epoch
        # Machine restart: every drive goes dark, then comes back; the
        # superblocks are the only memory.
        array.crash()
        for drive in drives:
            if drive.crashed:
                drive.repair()
        array.repair()
        array.recover(resync=True)
        assert array.failed_members == (1,)
        assert array.state is ArrayState.DEGRADED
        assert array.epoch > epoch
        assert array.read_sectors(0, 20)[: 20 * SECTOR] == b"\x5a" * (
            20 * SECTOR
        )

    def test_interrupted_rebuild_restarts_from_scratch(self):
        array, drives, _ = make_array(level="raid5")
        array.write_sectors(0, b"\x77" * (30 * SECTOR))
        array.fail_member(2)
        array.replace_member(2, blank=True)
        RaidRebuilder(array, chunks_per_step=2).step()
        assert array.rebuild_target == 2
        array.crash()
        for drive in drives:
            if drive.crashed:
                drive.repair()
        array.repair()
        array.recover()
        # The half-rebuilt member is stale again, not half-trusted.
        assert array.rebuild_target is None
        assert array.failed_members == (2,)
        assert array.read_sectors(0, 30) == b"\x77" * (30 * SECTOR)


class TestRebuildLifecycle:
    def test_rebuild_restores_optimal_with_foreground_writes(self):
        array, _, metrics = make_array(level="raid5")
        total = array.geometry.total_sectors
        shadow = bytearray(total * SECTOR)

        def put(start, n, fill):
            data = bytes([fill]) * (n * SECTOR)
            array.write_sectors(start, data)
            shadow[start * SECTOR : (start + n) * SECTOR] = data

        put(0, 40, 0xAA)
        array.fail_member(0)
        put(20, 10, 0xBB)
        array.replace_member(0, blank=True)
        rebuilder = RaidRebuilder(array, chunks_per_step=2)
        fill = 1
        while not rebuilder.done:
            rebuilder.step()
            # Interleave writes below and above the watermark so both
            # the write-through and the stale-column paths run.
            put(4, 2, fill)
            put(120, 2, fill)
            fill += 1
        assert array.state is ArrayState.OPTIMAL
        assert rebuilder.progress_percent() == 100
        assert array.read_sectors(0, total) == bytes(shadow)
        assert metrics.get("raid.t.rebuild.chunks") > 0

    def test_losing_the_target_cancels_the_rebuild(self):
        array, _, _ = make_array(level="raid5")
        array.write_sectors(0, b"\x11" * (24 * SECTOR))
        array.fail_member(3)
        array.replace_member(3, blank=True)
        RaidRebuilder(array, chunks_per_step=1).step()
        assert array.state is ArrayState.REBUILDING
        # The replacement drive dies too: back to DEGRADED — never
        # FAILED, three healthy members still hold everything.
        array.fail_member(3)
        assert array.state is ArrayState.DEGRADED
        assert array.rebuild_target is None
        assert array.read_sectors(0, 24) == b"\x11" * (24 * SECTOR)
        # A second replacement goes the whole way.
        array.replace_member(3, blank=True)
        RaidRebuilder(array, chunks_per_step=8).run_cycle()
        assert array.state is ArrayState.OPTIMAL

    def test_redundancy_exhaustion_fails_loudly(self):
        array, _, _ = make_array(level="raid5")
        array.write_sectors(0, b"\x42" * (8 * SECTOR))
        array.fail_member(0)
        array.fail_member(2)
        assert array.state is ArrayState.FAILED
        with pytest.raises(ArrayFailedError):
            array.read_sectors(0, 8)
        with pytest.raises(ArrayFailedError):
            array.write_sectors(0, bytes(SECTOR))

    def test_replace_guards(self):
        array, _, _ = make_array(level="raid5")
        with pytest.raises(ValueError):
            array.replace_member(1)  # not failed
        array.fail_member(1)
        array.replace_member(1, blank=True)
        array.fail_member(2)
        with pytest.raises(ValueError):
            array.replace_member(2)  # one rebuild at a time
        raid0, _, _ = make_array(level="raid0")
        with pytest.raises(ValueError):
            raid0.replace_member(0)


def filled_array(level, members):
    """An array holding a known pattern, and where logical sector 0 lives."""
    array, drives, metrics = make_array(level=level, members=members)
    total = array.geometry.total_sectors
    data = bytes((7 * i + i // SECTOR) % 256 for i in range(total * SECTOR))
    array.write_sectors(0, data)
    holder, chunk = array.chunk_to_member(0)
    return array, drives, metrics, data, holder, chunk * array.chunk_sectors


def member_refs(metrics, drives):
    """(references, writes) summed over the member drives."""
    return (
        sum(metrics.get(f"disk.{d.disk_id}.references") for d in drives),
        sum(metrics.get(f"disk.{d.disk_id}.writes") for d in drives),
    )


REDUNDANT = [("raid1", 2), ("raid5", 4)]


class TestMediaRepair:
    """A media error under a reference read is healed from redundancy;
    a sector that a rewrite cannot heal retires its member."""

    @pytest.mark.parametrize("level,members", REDUNDANT)
    def test_latent_error_is_healed_in_place(self, level, members):
        array, drives, metrics, data, holder, physical = filled_array(
            level, members
        )
        drives[holder].faults.schedule_media_error(physical)
        epoch = array.epoch
        refs, writes = member_refs(metrics, drives)
        assert array.read_sectors(0, 2) == data[: 2 * SECTOR]
        after = member_refs(metrics, drives)
        # One reference per peer, the rewrite, and the verifying read.
        peers = 1 if level == "raid1" else members - 1
        assert (after[0] - refs, after[1] - writes) == (peers + 2, 1)
        assert metrics.get("raid.t.media_repairs") == 1
        assert array.state is ArrayState.OPTIMAL
        assert (array.epoch, array.failed_members) == (epoch, ())
        # The member serves the range itself again: one reference, its own.
        own = metrics.get(f"disk.m{holder}.reads")
        assert array.read_sectors(0, 2) == data[: 2 * SECTOR]
        assert metrics.get(f"disk.m{holder}.reads") == own + 1
        assert member_refs(metrics, drives) == (after[0] + 1, after[1])

    @pytest.mark.parametrize("level,members", REDUNDANT)
    def test_unrepairable_sector_retires_the_member(self, level, members):
        array, drives, metrics, data, holder, physical = filled_array(
            level, members
        )
        drives[holder].faults.mark_bad(physical)  # a rewrite does not heal it
        epoch = array.epoch
        changes = []
        array.on_state_change = lambda old, new: changes.append((old, new))
        assert array.read_sectors(0, 2) == data[: 2 * SECTOR]
        assert array.state is ArrayState.DEGRADED
        assert changes == [(ArrayState.OPTIMAL, ArrayState.DEGRADED)]
        assert array.failed_members == (holder,)
        assert array.epoch == epoch + 1
        assert metrics.get("raid.t.media_repairs") == 0
        for index, drive in enumerate(drives):
            if index == holder:
                assert drive.crashed
                continue
            parsed = _parse_superblock(
                drive.read_sectors(0, 1), level=array.level,
                n_members=members, chunk_sectors=array.chunk_sectors,
                member_index=index,
            )
            assert parsed == (array.epoch, 1 << holder, 0)
        total = array.geometry.total_sectors
        assert array.read_sectors(0, total) == data

    def test_raid0_has_nothing_to_repair_from(self):
        array, drives, metrics, _, holder, physical = filled_array("raid0", 2)
        drives[holder].faults.schedule_media_error(physical)
        writes = member_refs(metrics, drives)[1]
        with pytest.raises(MediaError):
            array.read_sectors(0, 2)
        assert array.state is ArrayState.OPTIMAL
        assert member_refs(metrics, drives)[1] == writes

    @pytest.mark.parametrize("level,members", REDUNDANT + [("raid0", 2)])
    @pytest.mark.parametrize("fault", ["schedule_media_error", "mark_bad"])
    def test_in_passing_read_never_references(self, level, members, fault):
        """Track readahead is free of disk references by contract: over
        a failing sector it reconstructs through the peers' own
        in-passing reads or re-raises — no repair, no retirement."""
        array, drives, metrics, data, holder, physical = filled_array(
            level, members
        )
        getattr(drives[holder].faults, fault)(physical)
        before = member_refs(metrics, drives), array.epoch
        if level == "raid0":
            with pytest.raises(MediaError):
                array.read_in_passing(0, 2)
        else:
            assert array.read_in_passing(0, 2) == data[: 2 * SECTOR]
        assert (member_refs(metrics, drives), array.epoch) == before
        assert array.state is ArrayState.OPTIMAL
        assert array.failed_members == ()
        assert metrics.get("raid.t.media_repairs") == 0

    def test_in_passing_read_reraises_when_a_peer_fails_too(self):
        array, drives, metrics, _, holder, physical = filled_array("raid5", 4)
        drives[holder].faults.schedule_media_error(physical)
        drives[(holder - 1) % 4].faults.schedule_media_error(physical + 1)
        before = member_refs(metrics, drives), array.epoch
        with pytest.raises(MediaError):
            array.read_in_passing(0, 2)
        assert (member_refs(metrics, drives), array.epoch) == before
        assert array.state is ArrayState.OPTIMAL

    @pytest.mark.parametrize("level,members", REDUNDANT)
    def test_dead_survivor_is_noted_before_the_error_surfaces(
        self, level, members
    ):
        """The peer a repair needs is down and the array has not noticed:
        the loss is recorded (degraded, epoch, listener) and the range's
        media error surfaces — never "volume down" from a serving array."""
        array, drives, _, data, holder, physical = filled_array(level, members)
        drives[holder].faults.schedule_media_error(physical)
        dead = (holder + 1) % members
        drives[dead].crash()
        epoch = array.epoch
        changes = []
        array.on_state_change = lambda old, new: changes.append((old, new))
        with pytest.raises(MediaError):
            array.read_sectors(0, 2)
        assert array.state is ArrayState.DEGRADED
        assert array.failed_members == (dead,)
        assert array.epoch == epoch + 1
        assert changes == [(ArrayState.OPTIMAL, ArrayState.DEGRADED)]
        # Ranges the latent error does not touch are still served.
        lo = array.chunk_sectors * (1 if level == "raid1" else members - 1)
        assert array.read_sectors(lo, 2) == data[lo * SECTOR : (lo + 2) * SECTOR]
