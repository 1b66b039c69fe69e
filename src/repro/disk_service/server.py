"""The disk server: the paper's five service functions.

One disk server per disk (paper section 4).  It owns the authoritative
fragment bitmap, the 64x64 free-extent array, the track cache, and the
stable-storage semantics of ``get``/``put``:

* ``put`` can save data on its **original location only**, **exclusively
  on stable storage** (the shadow-page case), or **both** (the file
  index table case), and the caller chooses whether the call returns
  *before* or *after* the stable write;
* ``get`` reads from **main** storage (default, through the track
  cache) or from **stable** storage.

Any operation on a contiguous extent is one single disk reference —
the property the paper's whole design is organised around.

Free space reaches stable storage through a record log (DESIGN.md §3):
the bitmap is its base, and settling free space — before any
stable-bound put, and at ``flush`` — appends only the ordinary
allocations and frees made since the last settle to its tail.

Media-failure defence (DESIGN.md §11): every put records a per-fragment
CRC-32 and every main-storage get verifies it, raising
:class:`~repro.common.errors.ChecksumError` instead of ever returning
rotted bytes — and evicting them from the track cache first.  The
checksum map and the set of *mirrored* extents (those whose last put
was ``Stability.BOTH``, so the stable copy legitimately equals main)
are checkpointed to stable storage at ``flush``; the background
scrubber uses both to find latent corruption and repair mirrored
extents in place from their stable copy.
"""

from __future__ import annotations

import enum
import struct
import zlib
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis import monitor as _monitor
from repro.common.clock import SimClock
from repro.common.errors import (
    BadAddressError,
    ChecksumError,
    DiskError,
    DiskFullError,
)
from repro.common.frames import frame_now
from repro.common.metrics import Metrics
from repro.common.units import FRAGMENTS_PER_BLOCK
from repro.disk_service.addresses import Extent
from repro.disk_service.bitmap import FragmentBitmap
from repro.disk_service.cache import TrackCache
from repro.disk_service.extent_table import FreeExtentTable
from repro.simdisk.disk import SimDisk
from repro.simdisk.record_log import RecordLog
from repro.simdisk.stable import StableStore


class Stability(enum.Enum):
    """Where ``put`` saves the data (paper section 4)."""

    ORIGINAL_ONLY = "original"
    STABLE_ONLY = "stable"  # shadow page
    BOTH = "both"  # file index table


class SyncMode(enum.Enum):
    """When ``put`` returns relative to the stable write (paper section 4)."""

    BEFORE_STABLE = "before"  # return first, stable write is deferred
    AFTER_STABLE = "after"  # stable write completes before return


class Source(enum.Enum):
    """Where ``get`` reads from (paper section 4)."""

    MAIN = "main"
    STABLE = "stable"


def _stable_key(extent: Extent) -> str:
    return f"ext:{extent.start}:{extent.length}"


#: Bytes per fragment (2 KB): the checksum granule.
_FRAGMENT_BYTES = Extent(0, 1).byte_size

#: Stable-storage record holding the protection checkpoint.
PROTECTION_KEY = "protection"
_PROTECTION_MAGIC = b"RPRT"

#: Name of the free-space record log: its base is the bitmap.
FREE_SPACE_LOG = "bitmap"
# one free-space change in a tail delta: allocated ? | start I | length I
_SPACE_CHANGE = struct.Struct("<?II")


def _encode_protection(
    checksums: Dict[int, int], mirrored: Set[Tuple[int, int]]
) -> bytes:
    """Serialise the checksum map + mirrored-extent set, sorted (so the
    record — and everything downstream — is byte-deterministic)."""
    parts = [
        _PROTECTION_MAGIC,
        struct.pack("<II", len(checksums), len(mirrored)),
    ]
    for fragment in sorted(checksums):
        parts.append(struct.pack("<II", fragment, checksums[fragment]))
    for start, length in sorted(mirrored):
        parts.append(struct.pack("<II", start, length))
    return b"".join(parts)


def _decode_protection(
    blob: bytes,
) -> Tuple[Dict[int, int], Set[Tuple[int, int]]]:
    """Inverse of :func:`_encode_protection`; raises ValueError on junk."""
    if blob[:4] != _PROTECTION_MAGIC or len(blob) < 12:
        raise ValueError("not a protection record")
    n_checksums, n_mirrored = struct.unpack_from("<II", blob, 4)
    expected = 12 + 8 * (n_checksums + n_mirrored)
    if len(blob) != expected:
        raise ValueError("protection record length mismatch")
    offset = 12
    checksums: Dict[int, int] = {}
    for _ in range(n_checksums):
        fragment, crc = struct.unpack_from("<II", blob, offset)
        checksums[fragment] = crc
        offset += 8
    mirrored: Set[Tuple[int, int]] = set()
    for _ in range(n_mirrored):
        start, length = struct.unpack_from("<II", blob, offset)
        mirrored.add((start, length))
        offset += 8
    return checksums, mirrored


class DiskServer:
    """Free-space management + cached, stability-aware block I/O for one disk.

    Args:
        disk: the simulated drive this server fronts.
        stable: the mirrored stable store for this drive's vital data.
        clock: shared simulated clock.
        metrics: shared counter registry.
        cache_tracks: track-cache capacity; 0 disables the cache.
        readahead: enable rest-of-track readahead (paper's strategy).
        extent_rows / extent_columns: free-extent array dimensions
            (64x64 in the paper; configurable for ablation A1).
    """

    def __init__(
        self,
        disk: SimDisk,
        stable: StableStore,
        clock: SimClock,
        metrics: Metrics,
        *,
        cache_tracks: int = 128,
        readahead: bool = True,
        extent_rows: int = 64,
        extent_columns: int = 64,
    ) -> None:
        self.disk = disk
        self.stable = stable
        self.clock = clock
        self.metrics = metrics
        self.n_fragments = disk.geometry.capacity_bytes // Extent(0, 1).byte_size
        self.bitmap = FragmentBitmap(self.n_fragments)
        self.extent_table = FreeExtentTable(extent_rows, extent_columns)
        self.extent_table.refill(self.bitmap)
        self._cache: Optional[TrackCache] = (
            TrackCache(
                disk,
                metrics,
                capacity_tracks=cache_tracks,
                readahead=readahead,
                name=f"disk_cache.{disk.disk_id}",
            )
            if cache_tracks > 0
            else None
        )
        # Deferred stable writes: (key, data, marks_mirrored).
        self._pending_stable: List[Tuple[str, bytes, bool]] = []
        #: fragment -> CRC-32 of its last successful main write.
        self._checksums: Dict[int, int] = {}
        #: Extents whose stable copy legitimately equals main (last put
        #: was Stability.BOTH) — the scrubber's repair candidates.
        #: Shadow pages (STABLE_ONLY) are deliberately excluded: their
        #: stable copy is *supposed* to diverge from main.
        self._mirrored: Set[Tuple[int, int]] = set()
        #: fragment -> the mirrored extent covering it.
        self._mirrored_fragments: Dict[int, Tuple[int, int]] = {}
        #: Fragments whose recorded checksum predates the last crash.
        #: A post-crash mismatch on one of these cannot be arbitrated
        #: locally (rot vs. an in-flux write the crash tore), so unless
        #: the fragment is mirrored the stale entry is dropped, not
        #: raised — redundancy covers that window (DESIGN.md §11).
        self._unreconciled: Set[int] = set()
        #: Free space on stable storage: the bitmap as a base plus a
        #: tail of the changes since.  Any stable-bound put settles it
        #: first: vital structures (FITs, indirect blocks) must never
        #: become durable while referencing fragments the durable free
        #: space still considers free, or recovery would hand those
        #: fragments out again (the crash sweep proves this ordering).
        #: A new volume has no base: its first flush or stable-bound put
        #: writes the bitmap (its format).
        self.free_space_log = RecordLog(stable, FREE_SPACE_LOG)
        #: The ordinary allocations and frees made since free space was
        #: last settled, oldest first: (allocated, start, length).
        self._space_delta: List[Tuple[bool, int, int]] = []
        #: start -> length of every extent handed out with
        #: ``scratch=True`` and neither freed nor adopted since: the
        #: tentative data items of transactions in flight.  They are
        #: allocated in the live bitmap and free in every checkpoint of
        #: it, so neither taking nor returning one makes the checkpoint
        #: stale; the intentions list that names them is their only
        #: durable record (see :meth:`reclaim_scratch`).
        self._scratch: Dict[int, int] = {}
        self._prefix = f"disk_server.{disk.disk_id}"
        # Pre-bound instrument handles for the two service entry points
        # every request passes through; colder sites (recoveries,
        # checkpoints, flushes) keep the formatted-name convenience API.
        self._c_gets = self.metrics.counter(f"{self._prefix}.gets")
        self._c_puts = self.metrics.counter(f"{self._prefix}.puts")
        self._h_get_us = self.metrics.histogram_handle(f"{self._prefix}.get_us")
        self._h_put_us = self.metrics.histogram_handle(f"{self._prefix}.put_us")
        # Set by DiskPipeline when the overlapped request path is wired.
        self.pipeline: Optional[object] = None

    def _serial(self) -> None:
        """Happens-before: the disk server is one serial process.

        The paper's disk server is a single process per disk; every
        entry-point invocation is a message it handles in order, so
        consecutive invocations are chained.  Batch *bodies* are not an
        invocation (their mutual order is the scheduler's dequeue
        chain, recorded by the pipeline) — only the entry points a
        batch calls internally (checkpoints, repairs) join the chain.
        """
        _monitor.active().chain(self)

    # ------------------------------------------------------ allocate

    def allocate(
        self,
        n_fragments: int,
        *,
        scratch: bool = False,
    ) -> Extent:
        """Allocate one contiguous run of ``n_fragments`` fragments.

        Raises :class:`DiskFullError` if no contiguous run of that size
        exists — the paper's disk service only ever hands out
        contiguous runs; a caller that can live with less asks again
        for a shorter one.

        ``scratch=True`` is for tentative data items and shadow pages.
        The extent is placed at the high end of free space, so
        short-lived allocations do not punch holes into the low region
        where files grow contiguously, and it stays out of the durable
        bitmap: a crash returns it to free space unless a surviving
        intentions list has recovery :meth:`reclaim_scratch` it.  The
        holder ends that state with :meth:`free` or :meth:`adopt`.
        """
        if n_fragments < 1:
            raise BadAddressError("must allocate at least one fragment")
        self._serial()
        self.metrics.add(f"{self._prefix}.allocations")
        return self._allocate_contiguous(n_fragments, scratch=scratch)

    def allocate_block(self, n_blocks: int = 1, *, scratch: bool = False) -> Extent:
        """Allocate ``n_blocks`` contiguous 8 KB blocks (paper: allocate-block)."""
        if n_blocks < 1:
            raise BadAddressError("must allocate at least one block")
        self._serial()
        return self._allocate_contiguous(
            n_blocks * FRAGMENTS_PER_BLOCK, scratch=scratch
        )

    def try_allocate_at(self, start: int, n_fragments: int) -> Optional[Extent]:
        """Allocate exactly ``[start, start + n_fragments)`` if it is free.

        Used by the file service to grow a file contiguously with its
        existing blocks (which is what keeps the FIT contiguity counts
        large).  Returns None — without error — when any fragment of
        the range is taken or out of bounds.
        """
        if start < 0 or start + n_fragments > self.n_fragments or n_fragments < 1:
            return None
        self._serial()
        extent = Extent(start, n_fragments)
        if not self._claim(extent):
            return None
        self._note_space_change(True, extent)
        self.metrics.add(f"{self._prefix}.allocations")
        return extent

    def adopt(self, extent: Extent) -> None:
        """Turn a scratch extent into an ordinary allocation.

        The shadow-page commit step on the free-space side: the
        tentative item's extent is about to become a block of the file,
        so it joins the durable free space at the next settle — and the
        FIT that references the extent is a stable-bound put, so
        free-space-before-structure holds.
        Idempotent (crash redo adopts again): an extent that is not
        scratch is already an ordinary allocation — recorded since the
        last settle, or durable, as when :meth:`reclaim_scratch` found
        it allocated — so adopting it records nothing.
        """
        self._serial()
        if not self.bitmap.is_allocated_run(extent):
            raise BadAddressError(f"cannot adopt {extent}: not allocated")
        if self._forget_scratch(extent):
            self._note_space_change(True, extent)

    def reclaim_scratch(self, extent: Extent) -> None:
        """Recovery: re-claim a scratch extent a surviving list names.

        The loaded checkpoint calls the extent free (no checkpoint ever
        contains scratch space), yet it holds an after-image recovery
        is about to read, so it is taken out of free space again before
        anything allocates.  An extent the checkpoint already holds was
        adopted before the crash and stays an ordinary allocation.
        """
        self._serial()
        if self._claim(extent):
            self._note_scratch(extent)

    def scratch_extents(self) -> List[Tuple[int, int]]:
        """(start, length) of every outstanding scratch extent, sorted."""
        self._serial()
        _monitor.active().read_all(
            self, name="scratch", site="server.scratch_extents"
        )
        return sorted(self._scratch.items())

    def free(self, extent: Extent) -> None:
        """Free an extent (paper: free-block), coalescing with neighbours.

        The bitmap is updated and the free-extent array re-indexed so
        the merged maximal run is findable at its full length —
        "generally, several contiguous blocks and fragments are
        allocated or freed simultaneously" (paper section 4).
        """
        self._serial()
        self.bitmap.mark_free(extent)
        if not self._forget_scratch(extent):
            self._note_space_change(False, extent)
        self.metrics.add(f"{self._prefix}.frees")
        # Freed fragments carry no protection: their recorded checksums
        # describe content that no longer exists, and verifying a later
        # reallocation against them would reject legitimate new data.
        _monitor.active().write(
            self, extent.start, extent.end, name="protection",
            site="server.free",
        )
        for fragment in range(extent.start, extent.end):
            self._checksums.pop(fragment, None)
            self._unreconciled.discard(fragment)
        self._unmark_mirrored(extent)
        merged = self.bitmap.run_containing(extent.start)
        assert merged is not None  # we just freed it
        # Remove stale index entries for the runs we merged with.
        if merged.start < extent.start:
            self.extent_table.remove_run(merged.start)
        if merged.end > extent.end:
            self.extent_table.remove_run(extent.end)
        self.extent_table.remove_run(extent.start)
        self.extent_table.insert_run(merged.start, merged.length)

    # ------------------------------------------------------------ io

    def get(
        self,
        extent: Extent,
        *,
        source: Source = Source.MAIN,
        use_cache: bool = True,
    ) -> bytes:
        """Read a contiguous extent in (at most) one disk reference.

        ``source=Source.STABLE`` retrieves the stable-storage copy that
        a prior ``put(..., stability=STABLE_ONLY or BOTH)`` saved.
        """
        self._serial()
        return self._do_get(extent, source=source, use_cache=use_cache)

    def put(
        self,
        extent: Extent,
        data: bytes,
        *,
        stability: Stability = Stability.ORIGINAL_ONLY,
        sync: SyncMode = SyncMode.AFTER_STABLE,
    ) -> None:
        """Write a contiguous extent in one disk reference (paper: put-block).

        ``stability`` selects original-only / stable-only / both;
        ``sync=BEFORE_STABLE`` defers the stable write (it happens at
        the next ``flush`` or stable read — a crash first loses it,
        which is the semantics the caller signed up for).
        """
        self._serial()
        self._do_put(extent, data, stability=stability, sync=sync)

    def submit_get(
        self,
        extent: Extent,
        *,
        source: Source = Source.MAIN,
        use_cache: bool = True,
        low_priority: bool = False,
    ):
        """Enqueue a read on the attached pipeline; returns a Completion.

        ``low_priority`` requests (the scrubber's) are only served while
        no foreground request is pending.
        """
        if self.pipeline is None:
            raise DiskError(
                f"{self._prefix}: no request pipeline attached (submit_get)"
            )
        return self.pipeline.submit_get(
            extent, source=source, use_cache=use_cache, low_priority=low_priority
        )

    def submit_put(
        self,
        extent: Extent,
        data: bytes,
        *,
        stability: Stability = Stability.ORIGINAL_ONLY,
        sync: SyncMode = SyncMode.AFTER_STABLE,
    ):
        """Enqueue a write on the attached pipeline; returns a Completion."""
        if self.pipeline is None:
            raise DiskError(
                f"{self._prefix}: no request pipeline attached (submit_put)"
            )
        return self.pipeline.submit_put(extent, data, stability=stability, sync=sync)

    def _do_get(
        self,
        extent: Extent,
        *,
        source: Source = Source.MAIN,
        use_cache: bool = True,
    ) -> bytes:
        # Inlined metrics.timer: same exception-inclusive frame-time
        # semantics, no contextmanager machinery on the hot path.
        started = frame_now(self.clock)
        try:
            self._check_extent(extent)
            self._c_gets.add()
            if source is Source.STABLE:
                self._drain_pending()
                return self.stable.get(_stable_key(extent))
            if self._cache is not None and use_cache:
                data = self._cache.read(extent.first_sector, extent.n_sectors)
            else:
                data = self.disk.read_sectors(
                    extent.first_sector, extent.n_sectors
                )
            return self._verify_extent(extent, data)
        finally:
            self._h_get_us.observe(frame_now(self.clock) - started)

    def _do_put(
        self,
        extent: Extent,
        data: bytes,
        *,
        stability: Stability = Stability.ORIGINAL_ONLY,
        sync: SyncMode = SyncMode.AFTER_STABLE,
    ) -> None:
        started = frame_now(self.clock)
        try:
            self._check_extent(extent)
            if len(data) != extent.byte_size:
                raise BadAddressError(
                    f"payload is {len(data)} bytes but extent {extent} holds "
                    f"{extent.byte_size}"
                )
            self._c_puts.add()
            if (
                stability is not Stability.ORIGINAL_ONLY
                and self._free_space_unsettled
            ):
                # Free space first, then the structure referencing the
                # newly allocated fragments.  A crash in between leaks
                # orphans (an fsck warning), never lost blocks (an fsck
                # error).
                self.settle_free_space()
            if stability in (Stability.ORIGINAL_ONLY, Stability.BOTH):
                if self._cache is not None:
                    self._cache.write_through(extent.first_sector, data)
                else:
                    self.disk.write_sectors(extent.first_sector, data)
                self._record_checksums(extent, data)
            # Any overwrite ends the extent's mirrored status until its
            # stable copy is (re)confirmed equal to main below; a
            # STABLE_ONLY put (shadow page) ends it outright.
            self._unmark_mirrored(extent)
            if stability in (Stability.STABLE_ONLY, Stability.BOTH):
                key = _stable_key(extent)
                mirror = stability is Stability.BOTH
                if sync is SyncMode.AFTER_STABLE:
                    self.stable.put(key, data)
                    if mirror:
                        self._mark_mirrored(extent)
                else:
                    _monitor.active().key_write(
                        self, key, name="pending_stable",
                        site="server.defer_stable",
                    )
                    self._pending_stable.append((key, data, mirror))
                    self.metrics.add(f"{self._prefix}.deferred_stable_puts")
        finally:
            self._h_put_us.observe(frame_now(self.clock) - started)

    def release_stable(self, extent: Extent) -> None:
        """Drop the stable-storage copy of an extent (e.g. committed shadow)."""
        self._serial()
        _monitor.active().key_write(
            self, _stable_key(extent), name="pending_stable",
            site="server.release_stable",
        )
        self._pending_stable = [
            entry
            for entry in self._pending_stable
            if entry[0] != _stable_key(extent)
        ]
        self._unmark_mirrored(extent)
        self.stable.delete(_stable_key(extent))

    def flush(self) -> None:
        """Drain deferred stable writes and settle free-space state.

        This is the paper's flush-block made whole-server: after it
        returns, everything the server promised to stable storage is
        there, including free space — written only if it changed.
        """
        self._serial()
        self._drain_pending()
        self.settle_free_space()
        self.metrics.gauge(f"{self._prefix}.free_fragments", self.bitmap.free_count)
        self.checkpoint_protection()
        self.metrics.add(f"{self._prefix}.flushes")

    # ----------------------------------------------------- recovery

    @property
    def _free_space_unsettled(self) -> bool:
        """Whether the durable free space lags the live allocations:
        changes since the last settle, or a new volume with no base."""
        return bool(self._space_delta) or not self.free_space_log.has_base

    def checkpoint_free_space(self) -> None:
        """Write the whole bitmap as the free-space log's new base.

        A rebase: the tail on stable storage goes stale with it.
        Outstanding scratch extents are saved as free space.
        """
        self._serial()
        _monitor.active().write_all(
            self, name="space_delta", site="server.checkpoint_free_space"
        )
        self._space_delta = []
        self.metrics.gauge(f"{self._prefix}.free_fragments", self.bitmap.free_count)
        _monitor.active().read_all(
            self, name="scratch", site="server.checkpoint_free_space"
        )
        self.free_space_log.checkpoint(
            self.bitmap.to_bytes(
                as_free=[Extent(*item) for item in self._scratch.items()]
            )
        )

    def settle_free_space(self) -> None:
        """Make the durable free space the live ordinary allocations.

        Appends the changes since the last settle to the log's tail;
        the whole bitmap is written only as a base — a new volume's
        first, or a rebase when the tail is full.  No change, no write.
        """
        self._serial()
        if not self._free_space_unsettled:
            return
        _monitor.active().write_all(
            self, name="space_delta", site="server.settle_free_space"
        )
        delta = b"".join(_SPACE_CHANGE.pack(*change) for change in self._space_delta)
        if self.free_space_log.has_base and self.free_space_log.append(delta):
            self._space_delta = []
            self.metrics.gauge(
                f"{self._prefix}.free_fragments", self.bitmap.free_count
            )
        else:
            self.checkpoint_free_space()

    def checkpoint_protection(self) -> None:
        """Save the checksum map + mirrored set to stable storage.

        Called by ``flush``: after it, the scrubber of a recovered
        server knows which fragments carry checksums and which extents
        it may repair from their stable copy.
        """
        self._serial()
        _monitor.active().read_all(
            self, name="protection", site="server.checkpoint_protection"
        )
        self.metrics.gauge(
            f"{self._prefix}.checksummed_fragments", len(self._checksums)
        )
        self.stable.put(
            PROTECTION_KEY, _encode_protection(self._checksums, self._mirrored)
        )

    def recover(self) -> None:
        """Rebuild volatile state after a crash.

        Reloads the bitmap from the free-space log — its base, then the
        changes in its tail (a full free disk if the volume was never
        formatted; a tail that does not fit its base raises
        :class:`~repro.common.errors.DiskError`) — which returns every
        scratch extent to free space; the transaction service re-claims
        the ones its surviving intentions lists name — refills the
        free-extent array by scanning it, invalidates the track cache,
        and reloads the protection checkpoint.  Reloaded checksums are marked
        *unreconciled*: the first read of each fragment arbitrates a
        mismatch (stale entry for an in-flux write vs. rot — see
        :meth:`_verify_extent`).  Mirrored entries whose stable record
        vanished (released mid-crash) are pruned.
        """
        self._serial()
        _monitor.active().write_all(
            self, name="protection", site="server.recover"
        )
        try:
            base, deltas = self.free_space_log.load()
        except KeyError:  # never formatted
            self.bitmap = FragmentBitmap(self.n_fragments)
        else:
            self.bitmap = FragmentBitmap.from_bytes(base, self.n_fragments)
            for delta in deltas:
                self._apply_space_delta(delta)
        self.extent_table.refill(self.bitmap)
        if self._cache is not None:
            self._cache.invalidate()
        self._pending_stable.clear()
        _monitor.active().write_all(
            self, name="space_delta", site="server.recover"
        )
        self._space_delta = []
        _monitor.active().write_all(
            self, name="scratch", site="server.recover"
        )
        self._scratch = {}
        self._checksums = {}
        self._mirrored = set()
        self._mirrored_fragments = {}
        self._unreconciled = set()
        try:
            checksums, mirrored = _decode_protection(
                self.stable.get(PROTECTION_KEY)
            )
        except (KeyError, ValueError):
            checksums, mirrored = {}, set()
        if mirrored:
            existing = set(self.stable.keys())
            mirrored = {
                (start, length)
                for start, length in mirrored
                if _stable_key(Extent(start, length)) in existing
            }
        self._checksums = checksums
        self._unreconciled = set(checksums)
        for start, length in mirrored:
            self._mark_mirrored(Extent(start, length))
        self.metrics.add(f"{self._prefix}.recoveries")

    def repair_from_stable(self, extent: Extent) -> bytes:
        """Overwrite a mirrored extent's main copy from its stable copy.

        The scrubber's repair path: the write goes through the normal
        put machinery, so it is a numbered crash point, refreshes the
        checksum, heals latent media errors on the rewritten sectors,
        and updates any cached copy.  The extent is re-marked mirrored
        (main now equals stable by construction).  Raises
        :class:`~repro.common.errors.StableKeyError` if no stable copy
        exists.
        """
        self._serial()
        expected = self.stable.get(_stable_key(extent))
        self._do_put(extent, expected, stability=Stability.ORIGINAL_ONLY)
        self._mark_mirrored(extent)
        self.metrics.add(f"{self._prefix}.stable_repairs")
        return expected

    # ------------------------------------------------------- status

    @property
    def free_fragments(self) -> int:
        return self.bitmap.free_count

    def is_fragment_free(self, fragment: int) -> bool:
        """Whether ``fragment`` is currently free.

        The scrubber's guard: background verification must consult the
        server (the bitmap's serial owner) rather than reach into the
        bitmap directly, so the access is ordered with allocations.
        """
        self._serial()
        _monitor.active().read(
            self.bitmap, fragment, site="server.is_fragment_free"
        )
        return self.bitmap.is_free(fragment)

    def has_checksum(self, fragment: int) -> bool:
        """Whether a CRC is recorded for ``fragment``."""
        self._serial()
        _monitor.active().read(
            self, fragment, name="protection", site="server.has_checksum"
        )
        return fragment in self._checksums

    def checksummed_fragments(self) -> List[int]:
        """Fragments with a recorded CRC, sorted (scrub walk order)."""
        self._serial()
        _monitor.active().read_all(
            self, name="protection", site="server.checksummed_fragments"
        )
        return sorted(self._checksums)

    def recorded_checksum(self, fragment: int) -> Optional[int]:
        """The recorded CRC of ``fragment``, or None (fsck's view)."""
        self._serial()
        _monitor.active().read(
            self, fragment, name="protection", site="server.recorded_checksum"
        )
        return self._checksums.get(fragment)

    def is_unreconciled(self, fragment: int) -> bool:
        """Whether a fragment's checksum awaits post-crash reconciliation.

        True between a recovery and the fragment's first read or write:
        the recorded CRC came from the last checkpoint and may lag an
        in-flux write, so a raw recompute (fsck) cannot treat a
        mismatch as rot yet.
        """
        self._serial()
        _monitor.active().read(
            self, fragment, name="protection", site="server.is_unreconciled"
        )
        return fragment in self._unreconciled

    def mirrored_extents(self) -> List[Tuple[int, int]]:
        """(start, length) of every mirrored extent, sorted."""
        self._serial()
        _monitor.active().read_all(
            self, name="protection", site="server.mirrored_extents"
        )
        return sorted(self._mirrored)

    def is_mirrored_fragment(self, fragment: int) -> bool:
        """Whether ``fragment`` lies inside a mirrored extent."""
        self._serial()
        _monitor.active().read(
            self, fragment, name="protection", site="server.is_mirrored_fragment"
        )
        return fragment in self._mirrored_fragments

    @property
    def cache(self) -> Optional[TrackCache]:
        return self._cache

    @property
    def pending_stable_writes(self) -> int:
        return len(self._pending_stable)

    # ------------------------------------------------------ internal

    def _allocate_contiguous(
        self, n_fragments: int, *, scratch: bool = False
    ) -> Extent:
        run = self.extent_table.take_run(
            n_fragments, self.bitmap, prefer_high=scratch
        )
        if run is None:
            self.extent_table.refill(self.bitmap)
            self.metrics.add(f"{self._prefix}.table_refills")
            run = self.extent_table.take_run(
                n_fragments, self.bitmap, prefer_high=scratch
            )
        if run is None:
            raise DiskFullError(
                f"no contiguous run of {n_fragments} fragments "
                f"({self.bitmap.free_count} free in total)"
            )
        if scratch:
            extent = Extent(run.end - n_fragments, n_fragments)
            self.bitmap.mark_allocated(extent)
            if run.length > n_fragments:
                self.extent_table.insert_run(
                    run.start, run.length - n_fragments
                )
            self._note_scratch(extent)
        else:
            extent = run.take(n_fragments)
            self.bitmap.mark_allocated(extent)
            if run.length > n_fragments:
                self.extent_table.insert_run(
                    extent.end, run.length - n_fragments
                )
            self._note_space_change(True, extent)
        return extent

    def _claim(self, extent: Extent) -> bool:
        """Allocate exactly ``extent`` if all of it is free."""
        if not self.bitmap.is_free_run(extent):
            return False
        # The range sits inside some maximal free run; re-index its pieces.
        run = self.bitmap.run_containing(extent.start)
        assert run is not None
        self.extent_table.remove_run(run.start)
        self.bitmap.mark_allocated(extent)
        if run.start < extent.start:
            self.extent_table.insert_run(run.start, extent.start - run.start)
        if run.end > extent.end:
            self.extent_table.insert_run(extent.end, run.end - extent.end)
        return True

    def _note_space_change(self, allocated: bool, extent: Extent) -> None:
        _monitor.active().write(
            self, extent.start, extent.end, name="space_delta",
            site="server.note_space_change",
        )
        self._space_delta.append((allocated, extent.start, extent.length))

    def _apply_space_delta(self, delta: bytes) -> None:
        """Recovery: replay one tail delta onto the loaded base."""
        try:
            for allocated, start, length in _SPACE_CHANGE.iter_unpack(delta):
                if allocated:
                    self.bitmap.mark_allocated(Extent(start, length))
                else:
                    self.bitmap.mark_free(Extent(start, length))
        except (BadAddressError, struct.error) as exc:
            raise DiskError(
                f"{self._prefix}: a free-space tail delta does not apply "
                f"to its base ({exc})"
            ) from exc

    def _note_scratch(self, extent: Extent) -> None:
        _monitor.active().write(
            self, extent.start, extent.end, name="scratch",
            site="server.note_scratch",
        )
        self._scratch[extent.start] = extent.length

    def _forget_scratch(self, extent: Extent) -> bool:
        """Stop tracking ``extent``; False if it was not scratch.

        A scratch extent is returned or adopted whole, as handed out.
        """
        if extent.start not in self._scratch:
            return False
        _monitor.active().write(
            self, extent.start, extent.end, name="scratch",
            site="server.forget_scratch",
        )
        length = self._scratch.pop(extent.start)
        assert length == extent.length, (
            f"scratch extent ({extent.start}, {length}) given up as {extent}"
        )
        return True

    def _drain_pending(self) -> None:
        _monitor.active().write_all(
            self, name="pending_stable", site="server.drain_pending"
        )
        pending, self._pending_stable = self._pending_stable, []
        for key, data, mirror in pending:
            self.stable.put(key, data)
            if mirror:
                # A deferred BOTH put: its stable copy just caught up
                # with main, so the extent is mirrored from here on.
                _, start, length = key.split(":")
                self._mark_mirrored(Extent(int(start), int(length)))

    def _record_checksums(self, extent: Extent, data: bytes) -> None:
        _monitor.active().write(
            self, extent.start, extent.end, name="protection",
            site="server.record_checksums",
        )
        for index in range(extent.length):
            fragment = extent.start + index
            self._checksums[fragment] = zlib.crc32(
                data[index * _FRAGMENT_BYTES : (index + 1) * _FRAGMENT_BYTES]
            )
            self._unreconciled.discard(fragment)

    def _verify_extent(self, extent: Extent, data: bytes) -> bytes:
        """Check every checksummed fragment of a main-storage read.

        Returns the verified bytes — usually ``data`` unchanged.

        A mismatch on an *unreconciled* checksum (loaded from the last
        pre-crash checkpoint) may just be stale bookkeeping: the
        fragment was legitimately rewritten after the checkpoint, so
        the recorded CRC describes older bytes.  A local checksum
        cannot arbitrate that against rot by itself, so the crash
        window is resolved by redundancy class:

        * a non-mirrored fragment's entry is dropped (the basic
          service makes no content promise for in-flux data) and the
          read proceeds;
        * a *mirrored* fragment is byte-compared against its stable
          copy — agreement re-seals the checksum at the current bytes;
          disagreement means a BOTH put tore between its main and
          stable writes, and the extent is rolled back to the stable
          copy in place (read repair), the caller receiving the
          repaired bytes.

        Every other mismatch is rot or a latent media flip: the
        extent's sectors are evicted from the track cache and
        :class:`~repro.common.errors.ChecksumError` is raised — corrupt
        bytes never reach a caller or linger in the cache.
        """
        _monitor.active().read(
            self, extent.start, extent.end, name="protection",
            site="server.verify_extent",
        )
        if not self._checksums:
            return data
        buffer = data
        for index in range(extent.length):
            fragment = extent.start + index
            expected = self._checksums.get(fragment)
            if expected is None:
                continue
            fragment_bytes = buffer[
                index * _FRAGMENT_BYTES : (index + 1) * _FRAGMENT_BYTES
            ]
            actual = zlib.crc32(fragment_bytes)
            if actual == expected:
                self._unreconciled.discard(fragment)
                continue
            if fragment in self._unreconciled:
                self._unreconciled.discard(fragment)
                if fragment not in self._mirrored_fragments:
                    del self._checksums[fragment]
                    self.metrics.add(f"{self._prefix}.checksums_reconciled")
                    continue
                covering = self._mirrored_fragments.get(fragment)
                stable_bytes = (
                    None
                    if covering is None
                    else self._stable_fragment_bytes(fragment, covering)
                )
                if stable_bytes is None or stable_bytes == fragment_bytes:
                    self._checksums[fragment] = actual
                    self.metrics.add(f"{self._prefix}.checksums_reconciled")
                    continue
                buffer = self._read_repair(extent, buffer, covering)
                continue
            self.metrics.add(f"{self._prefix}.checksum_failures")
            if self._cache is not None:
                self._cache.drop_sectors(extent.first_sector, extent.n_sectors)
            raise ChecksumError(
                f"{self._prefix}: fragment {fragment} failed its checksum "
                f"(recorded 0x{expected:08x}, computed 0x{actual:08x})"
            )
        return buffer

    def _stable_fragment_bytes(
        self, fragment: int, covering: Tuple[int, int]
    ) -> Optional[bytes]:
        """One mirrored fragment's bytes per the stable copy, if any."""
        start, length = covering
        try:
            blob = self.stable.get(_stable_key(Extent(start, length)))
        except KeyError:
            return None
        offset = (fragment - start) * _FRAGMENT_BYTES
        return blob[offset : offset + _FRAGMENT_BYTES]

    def _read_repair(
        self, extent: Extent, buffer: bytes, covering: Tuple[int, int]
    ) -> bytes:
        """Roll a torn mirrored extent back to stable, mid-read.

        Splices the repaired fragments into the read buffer so the
        caller (and the rest of verification) sees the healed bytes.
        """
        mirrored = Extent(*covering)
        repaired = self.repair_from_stable(mirrored)
        self.metrics.add(f"{self._prefix}.read_repairs")
        patched = bytearray(buffer)
        overlap_start = max(extent.start, mirrored.start)
        overlap_end = min(extent.end, mirrored.end)
        for position in range(overlap_start, overlap_end):
            into = (position - extent.start) * _FRAGMENT_BYTES
            from_ = (position - mirrored.start) * _FRAGMENT_BYTES
            patched[into : into + _FRAGMENT_BYTES] = repaired[
                from_ : from_ + _FRAGMENT_BYTES
            ]
        return bytes(patched)

    def _mark_mirrored(self, extent: Extent) -> None:
        _monitor.active().write(
            self, extent.start, extent.end, name="protection",
            site="server.mark_mirrored",
        )
        # Mirrored extents never overlap: whatever this one overlaps
        # retires first, so each fragment has at most one covering extent.
        self._retire_mirrored(extent)
        covering = (extent.start, extent.length)
        self._mirrored.add(covering)
        self._mirrored_fragments.update(
            dict.fromkeys(range(extent.start, extent.end), covering)
        )

    def _unmark_mirrored(self, extent: Extent) -> None:
        """Retire every mirrored extent the write overlaps.

        Overlap (not exact match) matters: once any covered fragment is
        rewritten, main and stable may diverge, and a scrub repair from
        the stale stable copy would *undo* the write.
        """
        _monitor.active().write(
            self, extent.start, extent.end, name="protection",
            site="server.unmark_mirrored",
        )
        self._retire_mirrored(extent)

    def _retire_mirrored(self, extent: Extent) -> None:
        """Drop the mirrored extents covering any fragment of ``extent``."""
        covering = self._mirrored_fragments
        for start, length in {
            covering[fragment]
            for fragment in range(extent.start, extent.end)
            if fragment in covering
        }:
            self._mirrored.discard((start, length))
            for fragment in range(start, start + length):
                del covering[fragment]

    def _check_extent(self, extent: Extent) -> None:
        if extent.end > self.n_fragments:
            raise BadAddressError(
                f"extent {extent} beyond disk of {self.n_fragments} fragments"
            )

    def __repr__(self) -> str:
        return (
            f"DiskServer(disk={self.disk.disk_id!r}, "
            f"free={self.bitmap.free_count}/{self.n_fragments} fragments)"
        )
