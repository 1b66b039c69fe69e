"""The track cache: rest-of-track readahead, LRU, write-through."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import BadSectorError, ChecksumError, SectorAlignmentError
from repro.common.frames import service_frame
from repro.common.metrics import Metrics
from repro.disk_service.cache import TrackCache
from repro.simdisk.disk import SimDisk
from repro.simdisk.geometry import DiskGeometry
from tests.conftest import build_disk_server, build_file_server


def build(readahead=True, capacity_tracks=4):
    clock = SimClock()
    metrics = Metrics()
    disk = SimDisk("t", DiskGeometry(cylinders=8, heads=2, sectors_per_track=16),
                   clock, metrics)
    cache = TrackCache(
        disk, metrics, capacity_tracks=capacity_tracks, readahead=readahead,
        name="cache",
    )
    return cache, disk, metrics


class TestReadPath:
    def test_miss_then_hit(self):
        cache, disk, metrics = build()
        disk.write_sectors(0, b"\x01" * 512 * 2)
        assert cache.read(0, 2) == b"\x01" * 1024
        refs = metrics.get("disk.t.references")
        assert cache.read(0, 2) == b"\x01" * 1024  # hit: no new reference
        assert metrics.get("disk.t.references") == refs
        assert metrics.get("cache.hits") == 1
        assert metrics.get("cache.misses") == 1

    def test_readahead_caches_rest_of_track(self):
        """Paper section 4: the disk service caches the rest of the data
        from the same track to satisfy subsequent requests."""
        cache, disk, metrics = build()
        disk.write_sectors(0, bytes(range(16)) * 512)
        cache.read(0, 2)  # miss: sectors 0-1 read, 2-15 cached in passing
        refs = metrics.get("disk.t.references")
        cache.read(4, 4)  # same track: must be a hit
        assert metrics.get("disk.t.references") == refs
        assert metrics.get("cache.hits") == 1

    def test_no_readahead_means_next_sectors_miss(self):
        cache, disk, metrics = build(readahead=False)
        cache.read(0, 2)
        refs = metrics.get("disk.t.references")
        cache.read(4, 4)
        assert metrics.get("disk.t.references") == refs + 1

    def test_request_at_track_end_has_nothing_to_readahead(self):
        cache, disk, metrics = build()
        cache.read(14, 2)  # last two sectors of track 0
        assert metrics.get("disk.t.readahead_sectors") == 0

    def test_cross_track_read(self):
        cache, disk, _ = build()
        disk.write_sectors(14, b"\x05" * 512 * 4)  # spans track 0 -> 1
        assert cache.read(14, 4) == b"\x05" * 2048

    def test_partial_hit_fetches_only_missing(self):
        cache, disk, metrics = build(readahead=False)
        cache.read(0, 2)
        refs = metrics.get("disk.t.references")
        cache.read(0, 4)  # sectors 0-1 cached, 2-3 not: one more reference
        assert metrics.get("disk.t.references") == refs + 1

    def test_a_bad_sector_ends_the_readahead_not_the_read(self):
        cache, disk, metrics = build()
        sectors = [bytes([index]) * 512 for index in range(16)]
        disk.write_sectors(0, b"".join(sectors))
        disk.faults.mark_bad(10)
        # Sector 10 lies in the rest of the track, which nobody asked for.
        assert cache.read(0, 4) == b"".join(sectors[:4])
        assert metrics.get("disk.t.readahead_sectors") == 0
        assert cache.read(4, 2) == b"".join(sectors[4:6])  # a miss, not poison
        with pytest.raises(BadSectorError):
            cache.read(10, 1)


class TestReadaheadAfterTheReply:
    """Paper section 4: only what the request needs "immediately"; "then"
    the rest of the track.  The reply does not wait for the readahead;
    the drive does."""

    def test_the_reply_does_not_wait_for_the_rest_of_the_track(self):
        timed = {}
        for readahead in (True, False):
            cache, disk, metrics = build(readahead=readahead)
            cache.read(0, 2)
            timed[readahead] = (disk.clock.now_us, disk.timeline.busy_until_us)
        (reply, busy), (plain_reply, plain_busy) = timed[True], timed[False]
        assert reply == plain_reply == plain_busy
        assert busy > reply  # the drive reads on: 14 sectors in passing

    def test_the_next_reference_waits_behind_the_readahead(self):
        cache, disk, metrics = build()
        cache.read(0, 2)
        track_end = disk.timeline.busy_until_us
        assert disk.clock.now_us < track_end
        start, _ = disk.timeline.charge(10)
        assert start == track_end

    def test_a_hit_waits_until_its_sectors_passed_the_head(self):
        """A sector read in passing is cached at once but exists only once
        the head has passed it: a hit on it waits until then, and the
        wait is the caller's, not the drive's."""
        cache, disk, metrics = build()
        cache.read(0, 2)
        reply, busy = disk.clock.now_us, disk.timeline.busy_until_us
        total = disk.timeline.busy_total_us
        cache.read(2, 2)  # the first two sectors after the reply
        assert reply < disk.clock.now_us == disk.passing_times(3, 1)[0] < busy
        cache.read(14, 2)  # the last two: the track end
        assert disk.clock.now_us == busy
        assert metrics.get("cache.hits") == 2
        assert disk.timeline.busy_until_us == busy
        assert disk.timeline.busy_total_us == total
        cache.read(2, 2)  # long since passed: free
        assert disk.clock.now_us == busy

    def test_in_a_frame_the_hit_moves_the_cursor_not_the_clock(self):
        cache, disk, metrics = build()
        cache.read(0, 2)
        reply, busy = disk.clock.now_us, disk.timeline.busy_until_us
        with service_frame(disk.clock) as frame:
            cache.read(14, 2)
            assert frame.cursor_us == busy > reply
        assert disk.clock.now_us == reply
        assert disk.timeline.busy_until_us == busy

    def test_a_cold_two_kilobyte_read_waits_for_its_data_block(self):
        """E1's first row: one reference reads the FIT fragment (8,634 us
        on the medium drive); the data block is the 16 sectors after it
        on the track, read in passing, so the reply waits for them to
        pass the head (+16 slots of 173.6 us), not for the track end
        (+60 slots, where the reply was when it waited for the whole
        readahead)."""
        clock, metrics = SimClock(), Metrics()
        server = build_file_server(clock, metrics)  # the medium drive
        name = server.create()
        server.write(name, 0, b"e" * 2048)
        server.flush()
        server.recover()
        refs, start = metrics.get("disk.0.references"), clock.now_us
        assert server.read(name, 0, 2048) == b"e" * 2048
        assert metrics.get("disk.0.references") - refs == 1
        assert clock.now_us - start == 8_634 + 2_778
        assert server.disk.disk.timeline.busy_until_us - start == 8_634 + 10_417


class TestWritePath:
    def test_write_through_updates_disk_and_cache(self):
        cache, disk, metrics = build()
        cache.read(0, 2)
        cache.write_through(0, b"\x09" * 512)
        assert disk.read_sectors(0, 1) == b"\x09" * 512
        refs = metrics.get("disk.t.references")
        assert cache.read(0, 1) == b"\x09" * 512  # cached copy refreshed
        assert metrics.get("disk.t.references") == refs

    def test_misaligned_write_is_rejected(self):
        """Regression: a non-sector-multiple payload used to have its
        tail silently dropped by the disk while the cache kept the full
        buffer — later reads returned bytes that were never on disk."""
        cache, disk, metrics = build()
        with pytest.raises(SectorAlignmentError):
            cache.write_through(0, b"\x07" * 700)

    def test_misaligned_write_leaves_disk_and_cache_untouched(self):
        cache, disk, metrics = build()
        disk.write_sectors(0, b"\x01" * 512)
        cache.read(0, 1)
        with pytest.raises(SectorAlignmentError):
            cache.write_through(0, b"\x07" * (512 + 9))
        assert disk.read_sectors(0, 1) == b"\x01" * 512
        assert cache.read(0, 1) == b"\x01" * 512  # no stale suffix cached

    def test_empty_write_is_rejected(self):
        cache, disk, metrics = build()
        with pytest.raises(SectorAlignmentError):
            cache.write_through(0, b"")

    def test_aligned_write_still_accepted(self):
        cache, disk, metrics = build()
        cache.write_through(2, b"\x08" * 1024)
        assert disk.read_sectors(2, 2) == b"\x08" * 1024


class TestEviction:
    def test_lru_eviction_by_track(self):
        cache, disk, metrics = build(readahead=False, capacity_tracks=2)
        cache.read(0, 1)  # track 0
        cache.read(16, 1)  # track 1
        cache.read(32, 1)  # track 2: evicts track 0
        assert metrics.get("cache.evictions") == 1
        refs = metrics.get("disk.t.references")
        cache.read(0, 1)  # track 0 must miss again
        assert metrics.get("disk.t.references") == refs + 1

    def test_touch_refreshes_lru(self):
        cache, disk, metrics = build(readahead=False, capacity_tracks=2)
        cache.read(0, 1)
        cache.read(16, 1)
        cache.read(0, 1)  # touch track 0
        cache.read(32, 1)  # evicts track 1, not 0
        refs = metrics.get("disk.t.references")
        cache.read(0, 1)
        assert metrics.get("disk.t.references") == refs  # still cached

    def test_invalidate(self):
        cache, disk, metrics = build()
        cache.read(0, 2)
        cache.invalidate()
        assert cache.cached_sector_count() == 0
        refs = metrics.get("disk.t.references")
        cache.read(0, 2)
        assert metrics.get("disk.t.references") == refs + 1


class TestVerificationDrops:
    """PR 6: a checksum-failed block must never live in (or be served
    from) the track cache — companion to the alignment regressions
    above, which defend the same invariant for the write path."""

    def _rotten_server(self):
        metrics = Metrics()
        server = build_disk_server(SimClock(), metrics)
        extent = server.allocate(1)
        server.put(extent, b"\xaa" * extent.byte_size)
        server.cache.invalidate()  # force the next read to hit the platter
        server.disk.corrupt_at(extent.first_sector, 100, 0x0F)
        return server, extent, metrics

    def test_failed_read_does_not_leave_corrupt_sectors_cached(self):
        server, extent, metrics = self._rotten_server()
        with pytest.raises(ChecksumError):
            server.get(extent)  # cached-path read: misses, fetches rot
        # The miss stored the rotten track before verification could
        # run; the failure path must have dropped those sectors again.
        cache_name = f"disk_cache.{server.disk.disk_id}"
        assert metrics.get(f"{cache_name}.verification_drops") >= extent.n_sectors
        with pytest.raises(ChecksumError):
            server.get(extent)
        # Two loud failures, zero serves from cache: each attempt had
        # to re-read the platter (a miss), never a poisoned hit.
        assert metrics.get(f"{cache_name}.hits") == 0

    def test_repair_after_failure_serves_clean_bytes_from_cache(self):
        server, extent, metrics = self._rotten_server()
        with pytest.raises(ChecksumError):
            server.get(extent)
        fresh = b"\xbb" * extent.byte_size
        server.put(extent, fresh)  # rewrite re-seals the checksum
        assert server.get(extent) == fresh  # miss: dropped sectors re-read
        refs = metrics.get(f"disk.{server.disk.disk_id}.references")
        assert server.get(extent) == fresh  # now a clean cache hit
        assert metrics.get(f"disk.{server.disk.disk_id}.references") == refs

    def test_bypass_read_also_drops_poisoned_cache_entries(self):
        """A ``use_cache=False`` read (the scrubber's) that fails its
        checksum must still evict any stale copy the cache holds."""
        server, extent, metrics = self._rotten_server()
        cache = server.cache
        # Simulate an earlier miss having cached the rotten sectors.
        cache.read(extent.first_sector, extent.n_sectors)
        assert cache.cached_sector_count() > 0
        with pytest.raises(ChecksumError):
            server.get(extent, use_cache=False)
        probe = cache._all_cached(extent.first_sector, extent.n_sectors)
        assert not probe
