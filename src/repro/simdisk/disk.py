"""The simulated disk itself.

A :class:`SimDisk` is a sector store combined with the timing model and
fault injector.  Every call to :meth:`read_sectors` or
:meth:`write_sectors` is **one disk reference** — the quantity the
paper's whole design minimises — and charges the modelled service time
to the disk's own :class:`~repro.common.frames.Timeline` (the one
implementation of a charge) while tracking head position across
requests.  With no service frame active
the timeline waits inline (the classic blocking semantics); inside a
frame the charge is deferred, which is what lets requests overlap
across disks.

The reference paths are the hottest code in the whole simulation —
every chaos sweep, availability campaign and driver scales with them —
so they are written for constant per-reference cost (DESIGN.md §13):
service times come from a memo keyed by head position and request,
metric names resolve once at construction into pre-bound handles,
sectors live in a chunked :class:`~repro.simdisk.store.SectorStore`
with O(1) contiguous slicing, and a fault-free disk skips the
per-sector media scans entirely.
"""

from __future__ import annotations

from typing import Optional

from repro.common.clock import SimClock
from repro.common.errors import (
    BadAddressError,
    BadSectorError,
    DiskCrashedError,
    MediaError,
)
from repro.common.frames import Timeline, ceil_us
from repro.common.metrics import Metrics
from repro.common.weak import weak_method
from repro.simdisk.faults import FaultInjector
from repro.simdisk.geometry import DiskGeometry
from repro.simdisk.store import SectorStore
from repro.simdisk.timing import DiskTimingModel

#: The service-time model of every disk (a 1990s 5400 rpm drive); it is
#: frozen, so all disks share it.
_TIMING = DiskTimingModel()


class SimDisk:
    """A sector-addressed simulated disk drive.

    Args:
        disk_id: identifies this drive in metric names (``disk.<id>.*``).
        geometry: physical layout.
        clock: shared simulated clock, advanced by each reference.
        metrics: shared counter registry.
        faults: fault injector; a fresh, quiescent one by default.
    """

    __slots__ = (
        "disk_id",
        "geometry",
        "clock",
        "metrics",
        "faults",
        "timeline",
        "_sectors",
        "_head_cylinder",
        "_head_angular",
        "_prefix",
        "_total_sectors",
        "_service_memo",
        "_memo_get",
        "_store_read",
        "_store_write",
        "_p_reads",
        "_p_writes",
        "_p_sectors_read",
        "_p_sectors_written",
        "_p_readahead",
        "_p_readahead_busy",
        "_p_service",
        "_c_reads",
        "_c_writes",
        "_c_references",
        "_c_sectors_read",
        "_c_sectors_written",
        "_c_readahead_sectors",
        "_c_sectors_corrupted",
        "_c_media_errors",
        "_c_busy_us",
        "_h_service_us",
        "_g_utilization",
        "__weakref__",
    )

    def __init__(
        self,
        disk_id: str,
        geometry: DiskGeometry,
        clock: SimClock,
        metrics: Metrics,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.disk_id = disk_id
        self.geometry = geometry
        self.clock = clock
        self.metrics = metrics
        self.faults = faults or FaultInjector()
        self.timeline = Timeline(clock)
        self._sectors = SectorStore(geometry.sector_size)
        self._head_cylinder = 0
        self._head_angular = 0.0
        self._prefix = f"disk.{disk_id}"
        self._total_sectors = geometry.total_sectors
        # Service-time memo: the timing walk is a pure function of
        # (head position, request), and campaigns hammer a bounded set
        # of (position, request) pairs — sweeps wrap the platter, chaos
        # workloads stride a region — so repeat references skip the
        # whole seek/rotation/transfer computation.  Values are the
        # computed results verbatim, so modelled time is bit-equal with
        # the memo cold, warm, or cleared.
        self._service_memo: dict = {}
        # Bound-method caches for the per-reference loop: the store and
        # the memo dict live exactly as long as the disk and are never
        # replaced, so each lookup below is paid once instead of per
        # reference.  (memo.clear() on overflow keeps the same dict, so
        # the cached .get stays valid.)
        self._memo_get = self._service_memo.get
        self._store_read = self._sectors.read_range
        self._store_write = self._sectors.write_range
        # Deferred per-reference accounting (DESIGN.md §13): the hot
        # paths below accumulate into these plain attributes, and
        # _flush_accounting drains them into the registry before any
        # metrics read.  Counters are commutative and this disk is the
        # sole writer of its histogram and gauge names, so observers
        # cannot tell the difference.
        self._p_reads = 0
        self._p_writes = 0
        self._p_sectors_read = 0
        self._p_sectors_written = 0
        self._p_readahead = 0
        self._p_readahead_busy = 0
        self._p_service: list = []
        # Held weakly: the registry must not keep every disk that ever
        # charged it alive (DESIGN.md §13); __del__ drains what a
        # dropped disk still had pending.
        metrics.register_flush(weak_method(self._flush_accounting))
        # Pre-bound instrument handles: the name f-strings below are the
        # only ones this disk ever formats — every reference afterwards
        # is a handle update with a cached string hash.
        self._c_reads = metrics.counter(f"{self._prefix}.reads")
        self._c_writes = metrics.counter(f"{self._prefix}.writes")
        self._c_references = metrics.counter(f"{self._prefix}.references")
        self._c_sectors_read = metrics.counter(f"{self._prefix}.sectors_read")
        self._c_sectors_written = metrics.counter(
            f"{self._prefix}.sectors_written"
        )
        self._c_readahead_sectors = metrics.counter(
            f"{self._prefix}.readahead_sectors"
        )
        self._c_sectors_corrupted = metrics.counter(
            f"{self._prefix}.sectors_corrupted"
        )
        self._c_media_errors = metrics.counter(f"{self._prefix}.media_errors")
        self._c_busy_us = metrics.counter(f"{self._prefix}.busy_us")
        self._h_service_us = metrics.histogram_handle(
            f"{self._prefix}.service_us"
        )
        self._g_utilization = metrics.gauge_handle(f"{self._prefix}.utilization")

    # ------------------------------------------------------------- io

    def read_sectors(self, start: int, n_sectors: int) -> bytes:
        """Read ``n_sectors`` contiguous sectors in one disk reference."""
        faults = self.faults
        if faults.crashed:
            raise DiskCrashedError(f"{self.disk_id}: disk is crashed")
        if not (0 <= start and 0 < n_sectors
                and start + n_sectors <= self._total_sectors):
            self._check_range(start, n_sectors)
        if faults.bad_sectors or faults._media_errors:
            self._check_media(start, n_sectors)
        # The charge (DESIGN.md §13): _service_lookup documents the
        # memo, and the timeline prices the reference.
        key = (self._head_cylinder, self._head_angular, start, n_sectors)
        hit = self._memo_get(key)
        if hit is None:
            hit = self._service_lookup(key)
        busy, elapsed_int, cylinder, angular = hit
        self._head_cylinder = cylinder
        self._head_angular = angular
        self.timeline.charge_ceiled(busy)
        self._p_service.append(elapsed_int)
        self._p_reads += 1
        self._p_sectors_read += n_sectors
        return self._store_read(start, n_sectors)

    def write_sectors(self, start: int, data: bytes) -> None:
        """Write ``data`` (a whole number of sectors) in one disk reference.

        If the fault injector crashes the disk during this write, a
        prefix of the sectors reaches the platter (a *torn write*) and
        :class:`DiskCrashedError` is raised.
        """
        faults = self.faults
        if faults.crashed:
            raise DiskCrashedError(f"{self.disk_id}: disk is crashed")
        size = self.geometry.sector_size
        n_bytes = len(data)
        if n_bytes == 0 or n_bytes % size != 0:
            raise BadAddressError(
                f"write length {n_bytes} is not a positive multiple of {size}"
            )
        n_sectors = n_bytes // size
        if not (0 <= start and start + n_sectors <= self._total_sectors):
            self._check_range(start, n_sectors)
        # note_write's quiescent-injector fast path, inlined: with no
        # write monitor and no armed crash countdown the answer is
        # always "not torn" (the disk already proved it is not crashed
        # above), so the fault-free hot loop skips the call.
        if faults.monitor is None and faults._crash_after_writes is None:
            torn_at = None
        else:
            torn_at = faults.note_write(
                n_sectors, disk_id=self.disk_id, start=start
            )
        written = n_sectors if torn_at is None else torn_at
        self._store_write(start, data, written)
        # A rewrite remaps latent media errors (only for the sectors
        # that actually reached the platter on a torn write).
        if faults._media_errors:
            faults.heal_range(start, written)
        # The charge (DESIGN.md §13): _service_lookup documents the
        # memo, and the timeline prices the reference.
        key = (self._head_cylinder, self._head_angular, start, n_sectors)
        hit = self._memo_get(key)
        if hit is None:
            hit = self._service_lookup(key)
        busy, elapsed_int, cylinder, angular = hit
        self._head_cylinder = cylinder
        self._head_angular = angular
        self.timeline.charge_ceiled(busy)
        self._p_service.append(elapsed_int)
        self._p_writes += 1
        self._p_sectors_written += written
        if torn_at is not None:
            note = self.faults.last_crash_note
            raise DiskCrashedError(
                f"{self.disk_id}: crashed during write at sector {start} "
                f"({written}/{n_sectors} sectors reached the platter)"
                + (f" [{note}]" if note else "")
            )

    def read_in_passing(self, start: int, n_sectors: int) -> bytes:
        """Read sectors the head will pass over anyway (track readahead).

        Models the disk service's strategy of caching "the rest of the
        data from the same track" after serving a read (paper section
        4): the platter keeps rotating under the head, so these sectors
        cost transfer time at slot rate but **no seek, no rotational
        latency, and no additional disk reference**.  Callers must only
        use this for sectors on the track(s) the preceding read already
        positioned the head on.
        """
        faults = self.faults
        if faults.crashed:
            raise DiskCrashedError(f"{self.disk_id}: disk is crashed")
        self._check_range(start, n_sectors)
        if faults.bad_sectors or faults._media_errors:
            self._check_media(start, n_sectors)
        elapsed = _TIMING.slot_time_us(self.geometry) * n_sectors
        self.timeline.charge(elapsed)
        self._head_angular = (
            self._head_angular + n_sectors
        ) % self.geometry.sectors_per_track
        # Accounting matches _charge: the transfer time keeps the drive
        # busy, so busy_us and the utilization gauge must see it or
        # metrics-derived utilization silently diverges from the gauge
        # under readahead-heavy loads.  No reference counter and no
        # service_us sample: a read in passing is free of seek and
        # latency and is *not* a disk reference.
        self._p_readahead += n_sectors
        self._p_readahead_busy += int(elapsed)
        return self._store_read(start, n_sectors)

    # ------------------------------------------------------ geometry

    def track_of(self, sector: int) -> int:
        return self.geometry.track_of(sector)

    def track_bounds(self, track: int) -> tuple[int, int]:
        return self.geometry.track_bounds(track)

    @property
    def head_cylinder(self) -> int:
        """Cylinder the arm currently rests on (schedulers sort by it)."""
        return self._head_cylinder

    # ------------------------------------------------------- faults

    def corrupt_at(self, sector: int, byte_offset: int, xor_mask: int) -> None:
        """Flip bits of one stored byte *at rest* (silent corruption).

        Models bit-rot on the platter: no disk reference, no timing
        charge, and nothing detects it here — reads return the rotted
        bytes verbatim, and only a layer that recorded a checksum can
        tell.  A later write of the sector overwrites the rot, which is
        why repair-from-redundancy works.
        """
        self.geometry.check_sector(sector)
        size = self.geometry.sector_size
        if not 0 <= byte_offset < size:
            raise BadAddressError(
                f"byte offset {byte_offset} outside the {size}-byte sector"
            )
        if not 0 <= xor_mask <= 0xFF:
            raise BadAddressError(f"xor mask {xor_mask} is not one byte")
        self._sectors.xor_byte(sector, byte_offset, xor_mask)  # repro-lint: allow[crash-point-discipline] at-rest rot is injected platter state, not a write the crash sweep numbers
        self._c_sectors_corrupted.add()

    def corrupt_sectors(self, start: int, n_sectors: int) -> None:
        """Rot each sector of a range deterministically.

        One byte per sector is XOR-flipped; the position and mask are a
        pure function of (fault seed, sector number), so two runs with
        the same seed rot identical bytes — which keeps every report
        downstream byte-deterministic.
        """
        seed = self.faults.seed
        for sector in range(start, start + n_sectors):
            token = (sector + 1) * 2654435761 ^ (seed * 40503)
            offset = token % self.geometry.sector_size
            mask = (token >> 11) % 255 + 1  # never zero: always a real flip
            self.corrupt_at(sector, offset, mask)

    def crash(self) -> None:
        """Take the disk offline immediately (contents persist)."""
        self.faults.crash_now()

    def repair(self) -> None:
        """Bring the disk back online after a crash."""
        self.faults.repair()

    def replace_platter(self) -> None:
        """Swap in a factory-fresh drive behind the same slot.

        Models a whole-disk replacement (the RAID tier's member swap):
        the sector store is discarded — all data gone, unwritten
        sectors read as zeroes — every fault is cleared
        (:meth:`FaultInjector.reset`, keeping a chaos monitor
        attached), and the arm parks at cylinder 0.  The timeline and
        metric handles survive: the slot's history of busy time and
        reference counts belongs to the bay, not the platter.
        """
        self._sectors = SectorStore(self.geometry.sector_size)
        self._store_read = self._sectors.read_range
        self._store_write = self._sectors.write_range
        self._head_cylinder = 0
        self._head_angular = 0.0
        self.faults.reset()

    @property
    def crashed(self) -> bool:
        return self.faults.crashed

    # ------------------------------------------------------ internal

    def _check_media(self, start: int, n_sectors: int) -> None:
        """Raise for the first bad or latently failing sector in range.

        Only called when the injector actually holds media faults (the
        callers guard on ``bad_sectors`` / ``_media_errors``), so a
        fault-free disk never pays these per-sector scans.
        """
        faults = self.faults
        if faults.bad_sectors:
            for sector in range(start, start + n_sectors):
                if faults.is_bad(sector):
                    raise BadSectorError(
                        f"{self.disk_id}: sector {sector} unreadable"
                    )
        if faults._media_errors:
            for sector in range(start, start + n_sectors):
                if faults.media_failing(sector):
                    self._c_media_errors.add()
                    raise MediaError(
                        f"{self.disk_id}: latent media error at sector {sector}"
                    )

    def _check_range(self, start: int, n_sectors: int) -> None:
        if 0 <= start and 0 < n_sectors and start + n_sectors <= self._total_sectors:
            return
        if n_sectors <= 0:
            raise BadAddressError("request must cover at least one sector")
        self.geometry.check_sector(start)
        self.geometry.check_sector(start + n_sectors - 1)

    #: Service-memo entries kept before the table is dropped and
    #: rebuilt; a bound, not an LRU, so hits stay one dict probe.
    _SERVICE_MEMO_LIMIT = 65536

    def _service_lookup(self, key: tuple) -> tuple:
        """Memo miss: run the timing walk and cache its exact outputs.

        ``key`` is ``(head_cylinder, head_angular, start, n_sectors)``
        — with the geometry fixed, the service-time walk is a pure
        function of it.  The cached tuple holds the walk's outputs
        verbatim (ceiled charge, truncated busy_us sample, final head
        position), so modelled time is bit-equal whether the memo is
        cold, warm, or was cleared on overflow.
        """
        cylinder_now, angular_now, start, n_sectors = key
        elapsed, cylinder, angular = _TIMING.service_time_us(
            self.geometry, cylinder_now, angular_now, start, n_sectors
        )
        memo = self._service_memo
        if len(memo) >= self._SERVICE_MEMO_LIMIT:
            memo.clear()
        hit = (ceil_us(elapsed), int(elapsed), cylinder, angular)
        memo[key] = hit
        return hit

    def __del__(self) -> None:
        self._flush_accounting()

    def _flush_accounting(self) -> None:
        """Drain the deferred per-reference accounting into the registry.

        Registered with the metrics registry at construction and run by
        it before any read.  Counter batches add the same totals the
        per-reference adds would have; the service histogram receives
        its samples in recorded order (this disk is the only writer of
        its names); and the utilization gauge is last-write-wins, so
        only the value at the final charge — recomputed here from the
        horizon that charge saw — is observable either way.
        """
        reads, writes = self._p_reads, self._p_writes
        if reads or writes:
            self._p_reads = 0
            self._p_writes = 0
            if reads:
                self._c_reads.add(reads)
                self._c_sectors_read.add(self._p_sectors_read)
                self._p_sectors_read = 0
            if writes:
                # sectors_written flushes even when zero (a write torn
                # at sector 0) so the counter entry appears exactly
                # when a per-reference add would have created it.
                self._c_writes.add(writes)
                self._c_sectors_written.add(self._p_sectors_written)
                self._p_sectors_written = 0
            self._c_references.add(reads + writes)
        service = self._p_service
        charged = bool(service) or self._p_readahead > 0
        if service:
            self._h_service_us.extend(service)
            # busy_us advances by exactly the sample value per charge,
            # so the batch total is the sum of the batch's samples.
            self._c_busy_us.add(sum(service))
            service.clear()
        if self._p_readahead:
            self._c_readahead_sectors.add(self._p_readahead)
            self._c_busy_us.add(self._p_readahead_busy)
            self._p_readahead = 0
            self._p_readahead_busy = 0
        if charged:
            # Only the gauge value at the batch's final charge is
            # observable (last write wins), and right after any charge
            # the utilization horizon max(now, busy_until) is the
            # busy_until that charge just set — still current, because
            # only charges move it.  busy_total likewise has not moved
            # since, so this is exactly the value the final
            # per-reference gauge update would have written.
            tl = self.timeline
            util = tl.busy_total_us * 100 // tl.busy_until_us
            self._g_utilization.set(util if util < 100 else 100)

    def __repr__(self) -> str:
        return (
            f"SimDisk({self.disk_id!r}, {self.geometry.capacity_bytes // (1024 * 1024)}"
            f" MB, crashed={self.crashed})"
        )
