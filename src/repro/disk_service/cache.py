"""The disk service's track cache.

Paper section 4: "the RHODOS disk service implements its own caching
strategy.  This service retrieves only those blocks/fragments from a
disk track which are necessary to immediately fulfill the requirement
of a read request.  Then the disk service caches the rest of the data
from the same track ... in order to satisfy any subsequent requests to
read data from blocks/fragments pertaining to the same track."

The requester waits only for the first part: the rest of the track is
read in passing after the reply, keeping the drive busy until the
track end (:meth:`~repro.simdisk.disk.SimDisk.read_in_passing`), so
the drive's next reference waits behind it and the requester does not.
A sector read in passing is cached at once but served no earlier than
it passed the head: a hit on it waits until then, and the wait moves
only the caller's time, not the drive's.

The cache is sector-granular, evicted track-at-a-time in LRU order.
Writes go through to the disk and update any cached copy, so the cache
is never stale.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict

from repro.analysis import monitor as _monitor
from repro.common.errors import MediaError, SectorAlignmentError
from repro.common.frames import charge_elapsed, frame_now
from repro.common.metrics import Metrics
from repro.simdisk.disk import SimDisk


class TrackCache:
    """LRU cache of disk sectors with rest-of-track readahead.

    Args:
        disk: the disk being cached.
        metrics: counter registry (counters under ``<name>.*``).
        capacity_tracks: maximum tracks held before LRU eviction.
        readahead: cache the rest of the final track of each missed
            read (the paper's strategy); disable to measure its value
            (experiment E14).
        name: metric prefix, e.g. ``disk_cache.0``.
    """

    def __init__(
        self,
        disk: SimDisk,
        metrics: Metrics,
        *,
        capacity_tracks: int = 128,
        readahead: bool = True,
        name: str = "disk_cache",
    ) -> None:
        self.disk = disk
        self.metrics = metrics
        self.capacity_tracks = max(1, capacity_tracks)
        self.readahead = readahead
        self.name = name
        self._c_hits = metrics.counter(f"{name}.hits")
        self._c_misses = metrics.counter(f"{name}.misses")
        # track -> {sector -> data}; OrderedDict gives LRU order.
        self._tracks: "OrderedDict[int, Dict[int, bytes]]" = OrderedDict()
        # track -> {sector -> when it passed the head}, for the sectors
        # of that track read in passing.
        self._passed: Dict[int, Dict[int, int]] = {}

    # ------------------------------------------------------------ api

    def read(self, start: int, n_sectors: int) -> bytes:
        """Read sectors through the cache.

        A fully cached request is a hit (no disk reference); it waits
        until every sector of it read in passing has passed the head.
        On a miss the needed range is read in one disk reference, the
        one the caller waits for; with readahead on, the remainder of
        the last track is then captured in passing and cached, after
        the reply (the drive stays busy, the caller does not wait); a
        media error there ends the readahead, not the read.
        """
        _monitor.active().read(self, start, start + n_sectors, site="cache.read")
        if self._all_cached(start, n_sectors):
            self._c_hits.add()
            self._touch(start, n_sectors)
            self._wait_until_passed(start, n_sectors)
            return self._assemble(start, n_sectors)
        self._c_misses.add()
        data = self.disk.read_sectors(start, n_sectors)
        self._store(start, data)
        if self.readahead:
            self._readahead_rest_of_track(start + n_sectors - 1)
        return data

    def write_through(self, start: int, data: bytes) -> None:
        """Write to disk and refresh any cached copies of these sectors.

        The payload must be a whole number of sectors: the refresh loop
        is sector-granular, so a partial tail could never update its
        cached sector and would leave a stale suffix to be served by
        later reads.  Misaligned payloads raise
        :class:`~repro.common.errors.SectorAlignmentError` before any
        byte reaches disk or cache.
        """
        size = self.disk.geometry.sector_size
        if len(data) == 0 or len(data) % size != 0:
            raise SectorAlignmentError(
                f"{self.name}: write of {len(data)} bytes at sector {start} "
                f"is not a positive multiple of the {size}-byte sector size"
            )
        _monitor.active().write(
            self, start, start + len(data) // size, site="cache.write_through"
        )
        self.disk.write_sectors(start, data)
        for index in range(len(data) // size):
            sector = start + index
            track = self.disk.track_of(sector)
            cached = self._tracks.get(track)
            if cached is not None and sector in cached:
                cached[sector] = bytes(data[index * size : (index + 1) * size])

    def invalidate(self) -> None:
        """Drop every cached sector (e.g. after disk recovery)."""
        _monitor.active().write_all(self, site="cache.invalidate")
        self._tracks.clear()
        self._passed.clear()

    def drop_sectors(self, start: int, n_sectors: int) -> int:
        """Evict a sector range (a read of it failed verification).

        The disk server calls this before raising
        :class:`~repro.common.errors.ChecksumError`: bytes that failed
        their checksum must never be served from the cache later, and a
        miss-path read may already have stored them.  Returns how many
        cached sectors were dropped.
        """
        _monitor.active().write(
            self, start, start + n_sectors, site="cache.drop_sectors"
        )
        dropped = 0
        for sector in range(start, start + n_sectors):
            track = self.disk.track_of(sector)
            cached = self._tracks.get(track)
            if cached is not None and cached.pop(sector, None) is not None:
                dropped += 1
                self._passed.get(track, {}).pop(sector, None)
                if not cached:
                    del self._tracks[track]
                    self._passed.pop(track, None)
        if dropped:
            self.metrics.add(f"{self.name}.verification_drops", dropped)
        return dropped

    def cached_sector_count(self) -> int:
        return sum(len(sectors) for sectors in self._tracks.values())

    # ------------------------------------------------------ internal

    def _all_cached(self, start: int, n_sectors: int) -> bool:
        for sector in range(start, start + n_sectors):
            track = self.disk.track_of(sector)
            cached = self._tracks.get(track)
            if cached is None or sector not in cached:
                return False
        return True

    def _assemble(self, start: int, n_sectors: int) -> bytes:
        pieces = []
        for sector in range(start, start + n_sectors):
            track = self.disk.track_of(sector)
            pieces.append(self._tracks[track][sector])
        return b"".join(pieces)

    def _touch(self, start: int, n_sectors: int) -> None:
        seen = set()
        for sector in range(start, start + n_sectors):
            track = self.disk.track_of(sector)
            if track not in seen:
                seen.add(track)
                self._tracks.move_to_end(track)

    def _store(self, start: int, data: bytes) -> None:
        size = self.disk.geometry.sector_size
        _monitor.active().write(
            self, start, start + len(data) // size, site="cache.store"
        )
        for index in range(len(data) // size):
            sector = start + index
            track = self.disk.track_of(sector)
            bucket = self._tracks.get(track)
            if bucket is None:
                bucket = {}
                self._tracks[track] = bucket
                self._evict_if_needed()
            else:
                self._tracks.move_to_end(track)
            bucket[sector] = bytes(data[index * size : (index + 1) * size])

    def _readahead_rest_of_track(self, last_sector: int) -> None:
        track = self.disk.track_of(last_sector)
        _, track_end = self.disk.track_bounds(track)
        first_uncovered = last_sector + 1
        if first_uncovered >= track_end:
            return
        n_rest = track_end - first_uncovered
        try:
            rest = self.disk.read_in_passing(first_uncovered, n_rest)
        except MediaError:
            # A sector nobody asked for ends the readahead, not the read.
            return
        self._store(first_uncovered, rest)
        self._passed.setdefault(track, {}).update(
            zip(
                range(first_uncovered, track_end),
                self.disk.passing_times(first_uncovered, n_rest),
            )
        )

    def _wait_until_passed(self, start: int, n_sectors: int) -> None:
        """Move the caller's time to when the last of these sectors
        read in passing passed the head (the drive is not charged)."""
        ready = 0
        for sector in range(start, start + n_sectors):
            at = self._passed.get(self.disk.track_of(sector), {}).get(sector, 0)
            if at > ready:
                ready = at
        clock = self.disk.clock
        wait = ready - frame_now(clock)
        if wait > 0:
            charge_elapsed(clock, wait)

    def _evict_if_needed(self) -> None:
        while len(self._tracks) > self.capacity_tracks:
            track, _ = self._tracks.popitem(last=False)
            self._passed.pop(track, None)
            self.metrics.add(f"{self.name}.evictions")
