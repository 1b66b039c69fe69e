"""The disk server: allocation, the five service functions, stability."""

import pytest

from repro.common.errors import BadAddressError, DiskFullError
from repro.disk_service.addresses import Extent
from repro.disk_service.server import DiskServer, Source, Stability, SyncMode
from tests.conftest import build_disk_server

from repro.common.clock import SimClock
from repro.common.metrics import Metrics


@pytest.fixture
def server():
    return build_disk_server(SimClock(), Metrics())


def payload(extent: Extent, fill: int = 0xAB) -> bytes:
    return bytes([fill]) * extent.byte_size


class TestAllocation:
    def test_contiguous_allocation(self, server):
        extent = server.allocate(5)
        assert isinstance(extent, Extent)
        assert extent.length == 5
        assert server.bitmap.is_allocated_run(extent)

    def test_allocate_block_is_four_fragments(self, server):
        extent = server.allocate_block()
        assert extent.length == 4
        assert server.allocate_block(3).length == 12

    def test_allocations_do_not_overlap(self, server):
        extents = [server.allocate(3) for _ in range(50)]
        for i, a in enumerate(extents):
            for b in extents[i + 1 :]:
                assert not a.overlaps(b)

    def test_free_and_reuse(self, server):
        extent = server.allocate(10)
        server.free(extent)
        assert server.free_fragments == server.n_fragments
        again = server.allocate(10)
        assert again == extent  # best-fit finds the same hole

    def test_free_coalesces_neighbours(self, server):
        a = server.allocate(4)
        b = server.allocate(4)
        c = server.allocate(4)
        assert b.start == a.end and c.start == b.end
        server.free(a)
        server.free(c)
        server.free(b)  # merges with both sides
        server.extent_table.check_against(server.bitmap)
        run = server.bitmap.run_containing(a.start)
        assert run is not None and run.length >= 12

    def test_disk_full(self, server):
        server.allocate(server.n_fragments)
        with pytest.raises(DiskFullError):
            server.allocate(1)

    def test_fragmented_contiguous_request_fails(self):
        server = build_disk_server(SimClock(), Metrics())
        # Allocate everything, then free every other fragment.
        whole = server.allocate(server.n_fragments)
        for fragment in range(0, server.n_fragments, 2):
            server.free(Extent(fragment, 1))
        with pytest.raises(DiskFullError):
            server.allocate(2)

    def test_try_allocate_at(self, server):
        first = server.allocate(4)
        extension = server.try_allocate_at(first.end, 4)
        assert extension == Extent(first.end, 4)
        # Now taken: a second attempt must fail politely.
        assert server.try_allocate_at(first.end, 4) is None
        server.extent_table.check_against(server.bitmap)

    def test_try_allocate_at_out_of_range(self, server):
        assert server.try_allocate_at(server.n_fragments - 1, 5) is None

    def test_zero_fragment_request_rejected(self, server):
        with pytest.raises(BadAddressError):
            server.allocate(0)


class TestGetPut:
    def test_round_trip(self, server):
        extent = server.allocate(3)
        server.put(extent, payload(extent))
        assert server.get(extent) == payload(extent)

    def test_contiguous_get_is_one_disk_reference(self, server):
        """Paper section 4: any operation on a set of contiguous
        blocks/fragments is one single reference to the disk."""
        extent = server.allocate(16)  # 4 blocks
        server.put(extent, payload(extent))
        before = server.metrics.get("disk.0.references")
        server.get(extent, use_cache=False)
        assert server.metrics.get("disk.0.references") == before + 1

    def test_put_length_must_match(self, server):
        extent = server.allocate(2)
        with pytest.raises(BadAddressError):
            server.put(extent, b"short")

    def test_out_of_range_extent(self, server):
        with pytest.raises(BadAddressError):
            server.get(Extent(server.n_fragments, 1))


class TestStability:
    def test_both_saves_original_and_stable(self, server):
        extent = server.allocate(1)
        server.put(extent, payload(extent), stability=Stability.BOTH)
        assert server.get(extent) == payload(extent)
        assert server.get(extent, source=Source.STABLE) == payload(extent)

    def test_stable_only_is_a_shadow(self, server):
        """Shadow pages go exclusively to stable storage: the original
        location is untouched."""
        extent = server.allocate(1)
        server.put(extent, payload(extent, 0x11))
        server.put(extent, payload(extent, 0x22), stability=Stability.STABLE_ONLY)
        assert server.get(extent, use_cache=False) == payload(extent, 0x11)
        assert server.get(extent, source=Source.STABLE) == payload(extent, 0x22)

    def test_deferred_stable_write(self, server):
        """sync=BEFORE_STABLE returns before the stable save; the save
        happens at the next flush."""
        extent = server.allocate(1)
        server.put(
            extent,
            payload(extent),
            stability=Stability.BOTH,
            sync=SyncMode.BEFORE_STABLE,
        )
        assert server.pending_stable_writes == 1
        server.flush()
        assert server.pending_stable_writes == 0
        assert server.get(extent, source=Source.STABLE) == payload(extent)

    def test_deferred_write_drained_by_stable_read(self, server):
        extent = server.allocate(1)
        server.put(
            extent,
            payload(extent),
            stability=Stability.BOTH,
            sync=SyncMode.BEFORE_STABLE,
        )
        assert server.get(extent, source=Source.STABLE) == payload(extent)

    def test_release_stable(self, server):
        extent = server.allocate(1)
        server.put(extent, payload(extent), stability=Stability.STABLE_ONLY)
        server.release_stable(extent)
        with pytest.raises(KeyError):
            server.get(extent, source=Source.STABLE)


class TestRecovery:
    def test_bitmap_survives_via_checkpoint(self, server):
        extents = [server.allocate(4) for _ in range(5)]
        server.checkpoint_free_space()
        free_before = server.free_fragments
        server.recover()
        assert server.free_fragments == free_before
        for extent in extents:
            assert server.bitmap.is_allocated_run(extent)
        server.extent_table.check_against(server.bitmap)

    def test_recover_without_checkpoint_resets(self, server):
        server.allocate(4)
        server.recover()  # no checkpoint was taken
        assert server.free_fragments == server.n_fragments

    def test_recover_drops_pending_stable_writes(self, server):
        extent = server.allocate(1)
        server.put(
            extent,
            payload(extent),
            stability=Stability.STABLE_ONLY,
            sync=SyncMode.BEFORE_STABLE,
        )
        server.recover()
        assert server.pending_stable_writes == 0


def record_stable_keys(server):
    """Every stable-storage key ``server`` puts from here on, in order."""
    keys = []
    put = server.stable.put

    def recording(key, data):
        keys.append(key)
        put(key, data)

    server.stable.put = recording
    return keys


#: The free-space log's two records: the base (the whole bitmap) and
#: the tail (the changes since).
FREE_SPACE_KEYS = ("bitmap", "bitmap.tail")


def free_space_records(keys):
    return [key for key in keys if key in FREE_SPACE_KEYS]


class TestADeferredStableCopySettlesFirst:
    """Free space settles before the copy that counts: the main copy of
    a put that writes its stable copy at once, the stable copy of one
    that defers it (a FIT whose main copy goes beside the settle)."""

    def test_a_deferred_put_leaves_the_settle_to_its_stable_copy(self, server):
        server.flush()
        extent = server.allocate(1)
        keys = record_stable_keys(server)
        server.put(
            extent,
            payload(extent),
            stability=Stability.BOTH,
            sync=SyncMode.BEFORE_STABLE,
        )
        assert keys == []
        server.drain_stable()
        assert keys == ["bitmap.tail", f"ext:{extent.start}:1"]
        assert server.is_mirrored_fragment(extent.start)

    def test_a_put_that_writes_its_stable_copy_settles_at_once(self, server):
        server.flush()
        extent = server.allocate(1)
        keys = record_stable_keys(server)
        server.put(extent, payload(extent), stability=Stability.BOTH)
        assert keys == ["bitmap.tail", f"ext:{extent.start}:1"]

    def test_a_later_deferral_replaces_the_earlier_copy(self, server):
        server.flush()
        extent = server.allocate_block()
        keys = record_stable_keys(server)
        for fill in range(20):
            server.put(
                extent,
                payload(extent, fill),
                stability=Stability.BOTH,
                sync=SyncMode.BEFORE_STABLE,
            )
        assert server.pending_stable_writes == 1
        server.drain_stable()
        assert keys == ["bitmap.tail", f"ext:{extent.start}:{extent.length}"]
        assert server.get(extent, source=Source.STABLE) == payload(extent, 19)
        assert server.is_mirrored_fragment(extent.start)


class TestFlushSettlesFreeSpace:
    """Free space is written only when it changed: a tail record of the
    changes, or the whole bitmap as a base — a new volume's first flush
    (its format), or a rebase when the tail is full."""

    def test_a_fresh_servers_first_flush_writes_the_base(self, server):
        keys = record_stable_keys(server)
        server.flush()
        assert free_space_records(keys) == ["bitmap"]

    def test_a_flush_with_no_toggle_since_the_checkpoint_writes_none(self, server):
        server.allocate(4)
        server.checkpoint_free_space()
        keys = record_stable_keys(server)
        server.flush()
        assert free_space_records(keys) == []

    def test_a_clean_flush_writes_no_free_space(self, server):
        server.flush()
        extent = server.allocate(1)
        server.put(extent, payload(extent), stability=Stability.BOTH)
        keys = record_stable_keys(server)
        server.flush()
        assert free_space_records(keys) == []

    def test_an_allocate_then_a_flush_writes_exactly_one_tail(self, server):
        server.flush()
        keys = record_stable_keys(server)
        server.allocate(4)
        server.flush()
        server.flush()
        assert free_space_records(keys) == ["bitmap.tail"]

    def test_an_allocate_then_a_stable_put_writes_one_small_tail(self, server):
        server.flush()
        extent = server.allocate(1)
        keys = record_stable_keys(server)
        written = {
            mirror: server.metrics.get(f"disk.0.stable_{mirror}.sectors_written")
            for mirror in "ab"
        }
        server.put(extent, payload(extent), stability=Stability.BOTH)
        assert keys == ["bitmap.tail", f"ext:{extent.start}:1"]
        for mirror in "ab":
            sectors = server.metrics.get(f"disk.0.stable_{mirror}.sectors_written")
            # the FIT-like record is a header sector plus its payload
            tail = sectors - written[mirror] - (1 + extent.n_sectors)
            assert 0 < tail <= 3

    def test_a_scratch_allocate_and_its_free_write_none(self, server):
        server.flush()
        keys = record_stable_keys(server)
        server.free(server.allocate(4, scratch=True))
        server.flush()
        assert free_space_records(keys) == []

    def test_the_free_fragments_gauge_is_live_after_a_clean_flush(self, server):
        gauge = "disk_server.0.free_fragments"
        server.flush()
        server.allocate(4, scratch=True)
        server.flush()  # scratch space never makes free space stale
        assert server.metrics.get_gauge(gauge) == server.n_fragments - 4


class TestScratchExtents:
    """Tentative space is a delta on the checkpoint, never part of it."""

    @staticmethod
    def bitmap_puts(server):
        return server.metrics.get("disk.0.stable_a.writes")

    def test_taking_and_returning_scratch_leaves_the_checkpoint_fresh(self, server):
        server.flush()
        writes = self.bitmap_puts(server)
        extent = server.allocate(3, scratch=True)
        block = server.allocate_block(1, scratch=True)
        assert server.scratch_extents() == sorted(
            [(extent.start, 3), (block.start, 4)]
        )
        server.free(extent)
        server.free(block)
        server.settle_free_space()
        assert self.bitmap_puts(server) == writes
        assert server.scratch_extents() == []
        assert server.free_fragments == server.n_fragments

    def test_a_checkpoint_saves_scratch_as_free_space(self, server):
        kept = server.allocate(4)
        scratch = server.allocate(4, scratch=True)
        server.checkpoint_free_space()
        assert server.bitmap.is_allocated_run(scratch)
        server.recover()
        assert server.bitmap.is_allocated_run(kept)
        assert server.bitmap.is_free_run(scratch)
        assert server.scratch_extents() == []
        server.extent_table.check_against(server.bitmap)

    def test_reclaim_takes_a_listed_extent_out_of_free_space_again(self, server):
        scratch = server.allocate(4, scratch=True)
        server.checkpoint_free_space()
        server.recover()
        server.reclaim_scratch(scratch)
        assert server.bitmap.is_allocated_run(scratch)
        assert server.scratch_extents() == [(scratch.start, 4)]
        server.extent_table.check_against(server.bitmap)
        server.reclaim_scratch(scratch)  # already held: nothing changes
        assert server.scratch_extents() == [(scratch.start, 4)]

    def test_low_scratch_goes_where_an_ordinary_allocation_would(self, server):
        low = server.allocate(4, scratch=True, high=False)
        high = server.allocate(4, scratch=True)
        server.free(low)
        assert server.allocate(4) == low
        assert high.start > low.end

    def test_free_and_adopt_take_scratch_piece_by_piece(self, server):
        server.flush()
        kept = server.allocate(4)
        grown = server.try_allocate_at(kept.end, 8, scratch=True)
        assert server.scratch_extents() == [(grown.start, 8)]
        # One free across the ordinary extent and the scratch one's head.
        server.free(Extent(kept.start, 6))
        assert server.scratch_extents() == [(grown.start + 2, 6)]
        server.adopt(Extent(grown.start + 2, 3))
        assert server.scratch_extents() == [(grown.start + 5, 3)]
        server.settle_free_space()
        server.recover()
        assert server.bitmap.is_allocated_run(Extent(grown.start + 2, 3))
        assert server.free_fragments == server.n_fragments - 3
        server.extent_table.check_against(server.bitmap)

    def test_adopt_makes_the_extent_durable_before_the_next_stable_put(self, server):
        scratch = server.allocate_block(1, scratch=True)
        server.adopt(scratch)
        assert server.scratch_extents() == []
        fit = server.allocate(1)
        server.put(fit, payload(fit), stability=Stability.BOTH)
        server.recover()
        assert server.bitmap.is_allocated_run(scratch)
        server.adopt(scratch)  # a redo adopts again
        with pytest.raises(BadAddressError):
            server.adopt(Extent(fit.end, 1))  # free space


class TestChecksums:
    """PR 6: every put seals a per-fragment CRC; every get verifies it."""

    def test_put_records_a_checksum_per_fragment(self, server):
        extent = server.allocate(3)
        server.put(extent, payload(extent))
        assert server.checksummed_fragments() == list(
            range(extent.start, extent.end)
        )
        for fragment in range(extent.start, extent.end):
            assert server.has_checksum(fragment)
            assert server.recorded_checksum(fragment) is not None
            assert not server.is_unreconciled(fragment)

    def test_rot_raises_checksum_error_with_both_crcs(self, server):
        from repro.common.errors import ChecksumError

        extent = server.allocate(1)
        server.put(extent, payload(extent))
        recorded = server.recorded_checksum(extent.start)
        server.disk.corrupt_at(extent.first_sector, 0, 0x80)
        with pytest.raises(ChecksumError) as excinfo:
            server.get(extent, use_cache=False)
        assert f"0x{recorded:08x}" in str(excinfo.value)
        assert server.metrics.get("disk_server.0.checksum_failures") == 1

    def test_rot_in_a_wide_read_names_the_rotten_fragment(self, server):
        from repro.common.errors import ChecksumError

        extent = server.allocate(4)
        server.put(extent, payload(extent))
        rotten = extent.start + 2
        server.disk.corrupt_at(Extent(rotten, 1).first_sector, 5, 0x01)
        with pytest.raises(ChecksumError) as excinfo:
            server.get(extent, use_cache=False)
        assert f"fragment {rotten}" in str(excinfo.value)

    def test_stable_source_reads_are_not_checksum_verified(self, server):
        """The stable copy has its own duplex protection; only main
        reads go through the CRC path."""
        extent = server.allocate(1)
        server.put(extent, payload(extent), stability=Stability.BOTH)
        server.disk.corrupt_at(extent.first_sector, 0, 0xFF)
        assert server.get(extent, source=Source.STABLE) == payload(extent)


class TestChecksumReconciliation:
    """Post-crash arbitration of stale checkpointed checksums."""

    def test_flush_checkpoints_and_recover_reloads_checksums(self, server):
        extent = server.allocate(2)
        server.put(extent, payload(extent))
        recorded = [
            server.recorded_checksum(f) for f in range(extent.start, extent.end)
        ]
        server.flush()
        server.recover()
        assert [
            server.recorded_checksum(f) for f in range(extent.start, extent.end)
        ] == recorded
        assert all(
            server.is_unreconciled(f) for f in range(extent.start, extent.end)
        )

    def test_clean_read_reconciles(self, server):
        extent = server.allocate(1)
        server.put(extent, payload(extent))
        server.flush()
        server.recover()
        assert server.get(extent, use_cache=False) == payload(extent)
        assert not server.is_unreconciled(extent.start)

    def test_post_checkpoint_rewrite_drops_stale_entry(self, server):
        """A fragment legitimately rewritten after the checkpoint must
        not read as rot: the basic service makes no content promise for
        in-flux data, so the stale entry is dropped, not raised."""
        extent = server.allocate(1)
        server.put(extent, payload(extent, 0x01))
        server.flush()
        server.put(extent, payload(extent, 0x02))  # after the checkpoint
        server.recover()
        assert server.get(extent, use_cache=False) == payload(extent, 0x02)
        assert server.metrics.get("disk_server.0.checksums_reconciled") == 1
        assert server.metrics.get("disk_server.0.checksum_failures") == 0
        assert not server.has_checksum(extent.start)  # no promise left

    def test_torn_mirrored_write_is_read_repaired_from_stable(self, server):
        """Mirrored fragments arbitrate the crash window against their
        stable copy: main diverging from stable means the BOTH put tore
        between its two writes, and the extent rolls back in place."""
        extent = server.allocate(1)
        server.put(extent, payload(extent, 0x01), stability=Stability.BOTH)
        server.flush()
        # Tear: main rewritten below the put path, stable left behind.
        server.disk.write_sectors(
            extent.first_sector, payload(extent, 0x02)
        )
        server.recover()
        assert server.get(extent, use_cache=False) == payload(extent, 0x01)
        assert server.metrics.get("disk_server.0.read_repairs") == 1
        # The repair re-sealed everything: reads are clean and settled.
        assert server.get(extent, use_cache=False) == payload(extent, 0x01)
        assert not server.is_unreconciled(extent.start)

    def test_repair_from_stable_restores_and_reseals(self, server):
        extent = server.allocate(2)
        server.put(extent, payload(extent, 0x07), stability=Stability.BOTH)
        server.disk.corrupt_sectors(extent.first_sector, 2)
        assert server.repair_from_stable(extent) == payload(extent, 0x07)
        assert server.get(extent, use_cache=False) == payload(extent, 0x07)
        assert server.metrics.get("disk_server.0.stable_repairs") == 1
        assert server.is_mirrored_fragment(extent.start)
