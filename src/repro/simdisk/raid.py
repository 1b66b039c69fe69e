"""RAID tier under the disk service: one logical disk over N members.

A :class:`StripedVolume` presents N :class:`~repro.simdisk.disk.SimDisk`
drives as one disk — **raid0** (chunk-interleaved striping), **raid1**
(every member a full mirror) or **raid5** (rotating parity) — and does
two jobs: address translation and redundancy.  DESIGN.md §14 describes
the layer; this docstring keeps what the code does not show.

**Single-reference contract.**  The stripe unit (``chunk_sectors``) is
the largest run a member serves in one reference, and a logical request
decomposes into *at most one* contiguous physical span per member:
consecutive chunks of one member are physically adjacent in every
layout, so a raid5 span over-reads the parity chunks it straddles
rather than splitting the reference.  Member references overlap through
:func:`~repro.common.frames.fan_out`: the spans replay from the fork
point and join at the slowest member.  That holds whoever calls — a
fan-out brings its own frame for a caller that has none — so a
blocking caller waits for the slowest member of each fan-out exactly
as a pipeline's service frame is charged for it, and phases that
depend on each other (reads, journal arm, member writes, journal
clear) stay sequenced, one fan-out after the other.

**The degraded write hole is journalled shut.**  With a stale data
column in a row, that column's bytes exist only as the parity identity
over the survivors, so a crash *between* the member writes of a row
update would silently change what the column reconstructs to — losing
data acked long before the in-flight write.  Before any such update
the array journals the reconstructed old value on the lowest in-sync
member (payload first, then a single-sector header that commits the
record); :meth:`StripedVolume.recover` replays armed records by
recomputing the parity so the stale column reconstructs to its
journalled value again.  Replay is idempotent: after a completed update
the recomputation reproduces the parity already on disk.

**OPTIMAL needs no journal.**  With every member in sync a full resync
recomputes redundancy from data, and only rows torn by an un-acked
in-flight write can differ — those carry no content promise.

**Membership is on disk.**  Every transition (OPTIMAL → DEGRADED →
REBUILDING → OPTIMAL | FAILED) bumps an epoch and rewrites the
survivors' superblocks, so a restart re-learns from the platters which
members are stale: a mirror that missed degraded writes can never be
silently trusted again.

Every physical write goes through one of five registered write sites
(``_member_write`` / ``_parity_write`` / ``_superblock_write`` /
``_journal_write`` / ``RaidRebuilder._write_target``), so the chaos
sweep's crash-point numbering covers parity updates, journal arming and
rebuild traffic like any other platter mutation.
"""

from __future__ import annotations

import enum
import functools
import struct
import zlib
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, TypeVar,
)

from repro.analysis import monitor as _monitor
from repro.common.errors import (
    BadAddressError,
    DiskCrashedError,
    DiskError,
    MediaError,
)
from repro.common.frames import fan_out
from repro.common.metrics import Metrics
from repro.simdisk.disk import SimDisk
from repro.simdisk.geometry import DiskGeometry

_T = TypeVar("_T")


class ArrayFailedError(DiskCrashedError):
    """More members lost than the layout's redundancy covers.

    A :class:`DiskCrashedError` subclass so every existing caller that
    treats a crashed disk as "volume down" needs no new handling — the
    array delivers the same verdict, never stale or corrupt bytes.
    """


class _RetryOp(DiskError):
    """Internal signal: membership changed mid-operation, replay it.

    Raised after a member failure discovered inside an operation has
    been recorded (epoch bumped, superblocks rewritten); the operation
    re-plans against the new membership.  Never escapes the array.
    """


class ArrayState(enum.Enum):
    """Array serving states, ordered by how much redundancy is left."""

    OPTIMAL = 0
    DEGRADED = 1
    REBUILDING = 2
    FAILED = 3


#: Accepted layout names -> on-disk level codes.
LEVELS: Dict[str, int] = {"raid0": 0, "raid1": 1, "raid5": 5}

# ------------------------------------------------ sealed-sector codec
#
# Both on-disk records (superblock, journal header) are one sector:
# a struct body that starts ``magic, version``, its CRC-32, zero fill.

_VERSION = 1
_CRC = struct.Struct("<I")
_SB_MAGIC = b"RHODRAID"
#: magic, version, level, n_members, chunk_sectors, member_index,
#: epoch, failed_bits, rebuilding_bits, reserved
_SB_BODY = struct.Struct("<8sHBBIIQIIQ")
_JR_MAGIC = b"RHODRJNL"
#: magic, version, stale_member, pad, row, lo, n_sectors, epoch,
#: payload_crc
_JR_BODY = struct.Struct("<8sHBBIIIQI")


def _seal(body: bytes, sector_size: int) -> bytes:
    blob = body + _CRC.pack(zlib.crc32(body))
    return blob + bytes(sector_size - len(blob))


def _unseal(raw: bytes, layout: struct.Struct, magic: bytes) -> Optional[tuple]:
    """The fields after ``magic, version``; None if torn, blank or foreign."""
    size = layout.size
    if len(raw) < size + _CRC.size:
        return None
    body = raw[:size]
    if zlib.crc32(body) != _CRC.unpack_from(raw, size)[0]:
        return None
    fields = layout.unpack(body)
    return fields[2:] if fields[:2] == (magic, _VERSION) else None


def _pack_superblock(
    level: int,
    n_members: int,
    chunk_sectors: int,
    member_index: int,
    epoch: int,
    failed_bits: int,
    rebuilding_bits: int,
    sector_size: int,
) -> bytes:
    body = _SB_BODY.pack(
        _SB_MAGIC, _VERSION, level, n_members, chunk_sectors,
        member_index, epoch, failed_bits, rebuilding_bits, 0,
    )
    return _seal(body, sector_size)


def _parse_superblock(
    raw: bytes, *, level: int, n_members: int, chunk_sectors: int,
    member_index: int,
) -> Optional[Tuple[int, int, int]]:
    """``(epoch, failed_bits, rebuilding_bits)`` or None if not ours.

    A blank replacement platter, a foreign disk, or a superblock torn
    by a crash all parse as None — the member is then *stale* and must
    be rebuilt before it is trusted.
    """
    fields = _unseal(raw, _SB_BODY, _SB_MAGIC)
    if fields is None or fields[:4] != (
        level, n_members, chunk_sectors, member_index
    ):
        return None
    return fields[4:7]


def _pack_journal(
    stale: int,
    row: int,
    lo: int,
    n_sectors: int,
    epoch: int,
    payload: bytes,
    sector_size: int,
) -> bytes:
    body = _JR_BODY.pack(
        _JR_MAGIC, _VERSION, stale, 0, row, lo, n_sectors, epoch,
        zlib.crc32(payload),
    )
    return _seal(body, sector_size)


def _parse_journal(raw: bytes) -> Optional[Tuple[int, int, int, int, int]]:
    """``(stale_member, row, lo, n_sectors, payload_crc)`` or None.

    A cleared slot (zeros), a torn header, or a foreign sector all
    parse as None — the journal is then simply inactive.
    """
    fields = _unseal(raw, _JR_BODY, _JR_MAGIC)
    if fields is None:
        return None
    stale, _, row, lo, n_sectors, _, payload_crc = fields
    return stale, row, lo, n_sectors, payload_crc


def _xor(a: bytes, b: bytes) -> bytes:
    return (
        int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
    ).to_bytes(len(a), "little")


def _xor_all(pieces: Iterable[bytes]) -> bytes:
    """XOR of equal-length byte strings — the parity identity.

    Folded pairwise, which is what the hand-written folds this replaced
    cost; accumulating in one integer is cheaper and is left to a
    change that measures it (``repl_raid``'s set-up sits on the meter's
    0.3 s re-timing line — ROADMAP item 2).
    """
    return functools.reduce(_xor, pieces)


def _overlay(base: bytes, offset: int, piece: bytes) -> bytes:
    """``base`` with ``piece`` spliced in at ``offset``."""
    buf = bytearray(base)
    buf[offset : offset + len(piece)] = piece
    return bytes(buf)


class StripedVolume:
    """One logical disk over N member disks with a pluggable RAID layout.

    Duck-types the :class:`~repro.simdisk.disk.SimDisk` surface the
    disk service consumes (``disk_id``, ``geometry``, ``read_sectors``,
    ``write_sectors``, ``read_in_passing``, ``passing_times``,
    ``track_of``, ``track_bounds``, ``head_cylinder``, ``crash``/``repair``/
    ``crashed``), so a :class:`~repro.disk_service.server.DiskServer`
    and its :class:`~repro.disk_service.pipeline.DiskPipeline` stack on
    an array exactly as on a single drive.

    Args:
        array_id: identifies the array in metric names (``raid.<id>.*``).
        members: the member drives — same geometry, same clock.  The
            leading member chunks are reserved for the array metadata
            (superblock + write-intent journal).
        level: ``raid0`` / ``raid1`` / ``raid5``.
        chunk_sectors: sectors per stripe unit (must divide into the
            member capacity at least twice).
        metrics: shared counter registry.
        init: write fresh superblocks (a newly created array).  Pass
            False to assemble from existing platters via :meth:`recover`.
    """

    def __init__(
        self,
        array_id: str,
        members: Sequence[SimDisk],
        *,
        level: str = "raid5",
        chunk_sectors: int = 64,
        metrics: Optional[Metrics] = None,
        init: bool = True,
    ) -> None:
        if level not in LEVELS:
            raise ValueError(f"unknown RAID level {level!r}")
        self.level = LEVELS[level]
        if len(members) < 2:
            raise ValueError("an array needs at least two members")
        if self.level == 5 and len(members) < 3:
            raise ValueError("raid5 needs at least three members")
        if chunk_sectors <= 0:
            raise ValueError("chunk size must be positive")
        base = members[0].geometry
        for member in members:
            if member.geometry.total_sectors != base.total_sectors:
                raise ValueError("members must share one geometry")
            if member.clock is not members[0].clock:
                raise ValueError("members must share one clock")
        self.array_id = array_id
        self.disk_id = array_id
        self.clock = members[0].clock
        self.metrics = metrics if metrics is not None else members[0].metrics
        self.chunk_sectors = chunk_sectors
        self._members: List[SimDisk] = list(members)
        self._n = len(members)
        self._sector_size = base.sector_size
        self._chunk_bytes = chunk_sectors * base.sector_size
        #: Physical chunks per member.
        self.member_chunks = base.total_sectors // chunk_sectors
        #: Member metadata area: sector 0 the superblock, sector 1 the
        #: write-intent journal header, sectors 2.. the journal payload
        #: (up to one full chunk).  Data starts at the chunk after it.
        self._meta_chunks = -(-(2 + chunk_sectors) // chunk_sectors)
        if self.member_chunks <= self._meta_chunks:
            raise ValueError("chunk size leaves no data chunks per member")
        self._data_start = self._meta_chunks * chunk_sectors
        self.data_members = {0: self._n, 1: 1, 5: self._n - 1}[self.level]
        data_sectors = (
            self.data_members
            * (self.member_chunks - self._meta_chunks)
            * chunk_sectors
        )
        cylinders = data_sectors // base.sectors_per_cylinder
        if cylinders < 1:
            raise ValueError("array too small for one logical cylinder")
        #: The logical geometry the disk service sees; capacity is the
        #: data capacity trimmed down to whole cylinders.
        self.geometry = DiskGeometry(
            cylinders=cylinders,
            heads=base.heads,
            sectors_per_track=base.sectors_per_track,
        )
        self._total_sectors = self.geometry.total_sectors
        self._head_cylinder = 0
        # ----------------------------------------------- array state
        self._failed: Set[int] = set()
        self._rebuilding: Optional[int] = None
        #: Physical chunks of the rebuild target already reconstructed
        #: (exclusive bound); writes below it write through.
        self._rebuild_watermark = 0
        self._epoch = 0
        self._state = ArrayState.OPTIMAL
        #: ``listener(old_state, new_state)``; the cluster routes this
        #: into the health registry (the array cannot import recovery —
        #: layering).
        self.on_state_change: Optional[
            Callable[[ArrayState, ArrayState], None]
        ] = None
        # -------------------------------------------------- metrics
        self._prefix = f"raid.{array_id}"
        m = self.metrics
        self._c_reads = m.counter(f"{self._prefix}.reads")
        self._c_writes = m.counter(f"{self._prefix}.writes")
        self._c_degraded_reads = m.counter(f"{self._prefix}.degraded_reads")
        self._c_degraded_writes = m.counter(f"{self._prefix}.degraded_writes")
        self._c_reconstructed = m.counter(
            f"{self._prefix}.segments_reconstructed"
        )
        self._c_parity_writes = m.counter(f"{self._prefix}.parity_writes")
        self._g_state = m.gauge_handle(f"{self._prefix}.state")
        self._g_failed = m.gauge_handle(f"{self._prefix}.failed_members")
        self._g_rebuild = m.gauge_handle(f"{self._prefix}.rebuild_percent")
        self._g_state.set(0)
        self._g_failed.set(0)
        if init:
            self._epoch = 1
            self._write_superblocks(range(self._n))

    # ------------------------------------------------------ identity

    @property
    def members(self) -> Tuple[SimDisk, ...]:
        return tuple(self._members)

    @property
    def meta_chunks(self) -> int:
        """Physical chunks reserved per member for array metadata."""
        return self._meta_chunks

    @property
    def state(self) -> ArrayState:
        return self._state

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def failed_members(self) -> Tuple[int, ...]:
        return tuple(sorted(self._failed))

    @property
    def rebuild_target(self) -> Optional[int]:
        return self._rebuilding

    @property
    def crashed(self) -> bool:
        """Down for callers: redundancy exhausted or every member dark."""
        return self._state is ArrayState.FAILED or all(
            member.crashed for member in self._members
        )

    @property
    def head_cylinder(self) -> int:
        """Logical cylinder of the last request (schedulers sort by it)."""
        return self._head_cylinder

    def track_of(self, sector: int) -> int:
        return self.geometry.track_of(sector)

    def track_bounds(self, track: int) -> Tuple[int, int]:
        return self.geometry.track_bounds(track)

    # ------------------------------------------------ layout algebra

    def chunk_to_member(self, chunk: int) -> Tuple[int, int]:
        """Logical data chunk -> ``(member_index, physical_chunk)``.

        The metadata area (superblock + journal) occupies the first
        physical chunks, so data starts at ``_meta_chunks``.  For raid1
        the image lands on *every* member; the mapping returns member 0
        as the canonical placement.
        """
        if chunk < 0:
            raise BadAddressError(f"chunk {chunk} is negative")
        meta = self._meta_chunks
        if self.level == 0:
            return chunk % self._n, meta + chunk // self._n
        if self.level == 1:
            return 0, meta + chunk
        row, k = divmod(chunk, self._n - 1)
        parity = self.parity_member(row)
        member = k if k < parity else k + 1
        return member, meta + row

    def member_to_chunk(self, member: int, physical_chunk: int) -> Optional[int]:
        """Inverse mapping; None for metadata and parity chunks."""
        if not 0 <= member < self._n:
            raise BadAddressError(f"no member {member}")
        meta = self._meta_chunks
        if physical_chunk < meta or physical_chunk >= self.member_chunks:
            return None
        if self.level == 0:
            return (physical_chunk - meta) * self._n + member
        if self.level == 1:
            return physical_chunk - meta
        row = physical_chunk - meta
        parity = self.parity_member(row)
        if member == parity:
            return None
        k = member if member < parity else member - 1
        return row * (self._n - 1) + k

    def parity_member(self, row: int) -> int:
        """The member holding row ``row``'s parity chunk (raid5).

        Left-asymmetric rotation: row 0 parks parity on the last
        member, each following row moves it one member to the left.
        """
        if self.level != 5:
            raise ValueError("only raid5 has parity rows")
        return (self._n - 1 - row) % self._n

    def _segments(
        self, start: int, n_sectors: int
    ) -> List[Tuple[int, int, int, int]]:
        """Decompose a logical run into ``(member, phys, len, logical)``.

        Consecutive chunks of one member are physically adjacent in
        every layout, so the per-member union of these segments is one
        contiguous span — the single-reference contract.  A raid1 run
        is one segment on the first in-sync mirror (the read placement;
        writes go to every mirror).
        """
        if self.level == 1:
            mirror = min(i for i in range(self._n) if i not in self._failed)
            return [(mirror, self._data_start + start, n_sectors, start)]
        chunk_sectors = self.chunk_sectors
        out: List[Tuple[int, int, int, int]] = []
        sector, end = start, start + n_sectors
        while sector < end:
            chunk, offset = divmod(sector, chunk_sectors)
            length = min(chunk_sectors - offset, end - sector)
            member, physical = self.chunk_to_member(chunk)
            out.append(
                (member, physical * chunk_sectors + offset, length, sector)
            )
            sector += length
        return out

    # ------------------------------------------- the redundancy engine
    #
    # Five primitives, each written once: what a member's span must
    # hold (_reconstruct), the overlapped member fan-out with its read
    # (_read_spans) and write (_write_members) forms, who takes a write
    # (_write_reach), and the replay loop every entry point runs in
    # (_serving).  The levels differ only in the policy around them.

    def _reconstruct(
        self, member: int, physical: int, n_sectors: int, *,
        in_passing: bool = False,
    ) -> bytes:
        """What ``member``'s span must hold, given the other members.

        raid5: the XOR of every other member's same span — the parity
        identity holds for data and parity chunks alike — and only
        while all of them are in sync.  raid1: the copy of the first
        in-sync mirror that serves it.  Peers are read one at a time in
        ascending order; a crashed peer's error escapes to the caller,
        whose policy it is.  Raises :class:`MediaError` when the
        redundancy to do it is not there (always, for raid0).
        """
        peers = [
            i for i in range(self._n) if i != member and i not in self._failed
        ]
        if self.level == 5 and len(peers) == self._n - 1:
            return _xor_all(
                self._reader(peer, in_passing)(physical, n_sectors)
                for peer in peers
            )
        error: Optional[MediaError] = None
        if self.level == 1:
            for peer in peers:
                try:
                    return self._reader(peer, in_passing)(physical, n_sectors)
                except MediaError as exc:
                    error = exc
        raise error or MediaError(
            f"{self.array_id}: no redundancy left for member {member} "
            f"at sector {physical}"
        )

    def _reader(self, index: int, in_passing: bool) -> Callable[[int, int], bytes]:
        """A member's read entry point: a reference, or track readahead."""
        drive = self._members[index]
        return drive.read_in_passing if in_passing else drive.read_sectors

    def _fanout(
        self, calls: List[Tuple[int, Callable[[], object]]], *,
        replay: bool = True,
    ) -> Dict[int, object]:
        """Run member operations as overlapping fan-out branches.

        Returns ``{member_index: value | MediaError}``.  The branches
        replay from the fork point and the fan-out costs the slowest
        member, whoever calls.  Members that crashed are retired once
        every branch has run.
        """
        results: Dict[int, object] = {}
        crashed: List[int] = []
        with fan_out(self.clock) as fork:
            for index, thunk in calls:
                with fork.branch():
                    try:
                        results[index] = thunk()
                    except DiskCrashedError:
                        crashed.append(index)
                    except MediaError as exc:
                        results[index] = exc
        if crashed:
            self._retire(crashed, replay=replay)
        return results

    def _read_spans(
        self, spans: Dict[int, Tuple[int, int]], *, in_passing: bool = False
    ) -> Dict[int, bytes]:
        """One read per member span ``{member: (lo, hi)}``, overlapped.

        A media error is settled from redundancy before returning; a
        crashed member is retired and the operation replayed.
        """
        calls = []
        for index in sorted(spans):
            lo, hi = spans[index]
            reader = self._reader(index, in_passing)
            calls.append((index, (lambda r=reader, l=lo, n=hi - lo: r(l, n))))
        buffers: Dict[int, bytes] = {}
        for index, value in sorted(self._fanout(calls).items()):
            if isinstance(value, MediaError):
                value = self._settle_media(
                    index, *spans[index], value, in_passing
                )
            buffers[index] = value  # type: ignore[assignment]
        return buffers

    def _settle_media(
        self, index: int, lo: int, hi: int, error: MediaError,
        in_passing: bool,
    ) -> bytes:
        """A span its member could not read, recovered from redundancy.

        A reference read also rewrites the span (a rewrite heals a
        latent error) and reads it back; if the platter still will not
        serve it the member is *unrepairably* failing and is retired.
        An in-passing read is no disk reference by contract (it runs
        inside track readahead): it reconstructs through the peers' own
        in-passing reads, repairs nothing and changes no membership.
        """
        try:
            content = self._reconstruct(
                index, lo, hi - lo, in_passing=in_passing
            )
        except MediaError:
            raise error
        except DiskCrashedError:
            if in_passing:
                raise error
            # A peer died unnoticed.  Record that first; the replay
            # then serves the range degraded, or surfaces its media
            # error if the dead peer was the redundancy it needed.
            self._retire(self._dead_members())
        if in_passing:
            return content
        try:
            self._member_write(index, lo, content)
            self._members[index].read_sectors(lo, hi - lo)
        except (DiskCrashedError, MediaError):
            self._retire([index])
        self.metrics.add(f"{self._prefix}.media_repairs")
        return content

    def _write_reach(self, member: int, physical: int, n_sectors: int) -> int:
        """Leading sectors of a write at ``physical`` that ``member`` takes.

        All of it if the member is in sync, none if it is failed; the
        rebuild target takes what lies below the watermark — the
        rebuilt prefix must stay fresh, the rest is the rebuilder's job.
        """
        if member not in self._failed:
            return n_sectors
        if member != self._rebuilding:
            return 0
        limit = self._rebuild_watermark * self.chunk_sectors
        return max(0, min(n_sectors, limit - physical))

    def _write_members(
        self, writes: List[Tuple[int, int, bytes, bool]], *, replay: bool
    ) -> None:
        """The write fan-out: ``(member, physical, payload, is_parity)``.

        Issued in the order given, through the registered write sites,
        to every member that takes the write (clipped to its reach).
        A member write never raises a media error — the platter checks
        media on reads only — so crashes are the one failure to handle:
        with ``replay`` the operation re-plans (raid5, whose parity
        must match the new membership), without it a crash only costs
        redundancy (raid1: while the array still serves, an in-sync
        mirror took the full copy) or everything (raid0).
        """
        size = self._sector_size
        calls = []
        for member, physical, payload, is_parity in writes:
            reach = self._write_reach(member, physical, len(payload) // size)
            if reach:
                write = self._parity_write if is_parity else self._member_write
                calls.append((
                    member,
                    (lambda w=write, m=member, lo=physical,
                     p=payload[: reach * size]: w(m, lo, p)),
                ))
        self._fanout(calls, replay=replay)

    def _serving(self, attempt: Callable[[], _T]) -> _T:
        """Run ``attempt``, replaying it while membership changes.

        Each replay follows a recorded member failure, so the member
        count bounds the loop.
        """
        for _ in range(self._n + 1):
            self._raise_if_failed()
            try:
                return attempt()
            except _RetryOp:
                continue
        raise ArrayFailedError(f"{self.array_id}: no serving membership")

    def _retire(self, indices: Sequence[int], *, replay: bool = True) -> None:
        """Record member failures; replay the operation if still serving."""
        self._note_member_failures(indices)
        self._raise_if_failed()
        if replay:
            raise _RetryOp(f"{self.array_id}: membership changed, replaying")

    def _raise_if_failed(self) -> None:
        if self._state is ArrayState.FAILED:
            raise ArrayFailedError(
                f"{self.array_id}: redundancy exhausted "
                f"(failed members {self.failed_members})"
            )

    def _dead_members(self) -> List[int]:
        """Members that are down but not yet recorded as failed."""
        return [
            i for i in range(self._n)
            if self._members[i].crashed and i not in self._failed
        ]

    def _stale_member(self) -> Optional[int]:
        """The single member reads must avoid, if any."""
        return min(self._failed) if self._failed else None

    # ------------------------------------------------- write funnels
    #
    # Every physical write the array issues goes through exactly one
    # of these four methods (plus RaidRebuilder._write_target); they
    # are the reviewed crash-point sites the chaos sweep numbers.

    def _member_write(self, index: int, physical_sector: int, data: bytes) -> None:
        """Data-path write to one member (registered write site)."""
        self._members[index].write_sectors(physical_sector, data)

    def _parity_write(self, index: int, physical_sector: int, data: bytes) -> None:
        """Parity write to one member (registered write site)."""
        self._members[index].write_sectors(physical_sector, data)
        self._c_parity_writes.add()

    def _superblock_write(self, index: int, blob: bytes) -> None:
        """Superblock write to one member (registered write site)."""
        self._members[index].write_sectors(0, blob)
        self.metrics.add(f"{self._prefix}.superblock_writes")

    def _journal_write(
        self, index: int, physical_sector: int, data: bytes
    ) -> None:
        """Write-intent journal write to one member (registered site)."""
        self._members[index].write_sectors(physical_sector, data)

    # ------------------------------------------- write-intent journal

    def _journal_arm(
        self,
        member: int,
        stale: int,
        row: int,
        lo: int,
        n_sectors: int,
        payload: bytes,
    ) -> None:
        """Persist the stale column's old value before mutating a row."""
        self._journal_write(member, 2, payload)
        header = _pack_journal(
            stale, row, lo, n_sectors, self._epoch, payload,
            self._sector_size,
        )
        self._journal_write(member, 1, header)
        self.metrics.add(f"{self._prefix}.journal_arms")

    def _journal_clear(self, member: int) -> None:
        self._journal_write(member, 1, bytes(self._sector_size))

    def _replay_journal(self) -> None:
        """Replay armed write-intent records after a restart."""
        if self.level != 5:
            return
        for index, member in enumerate(self._members):
            if index in self._failed or member.crashed:
                continue
            try:
                parsed = _parse_journal(member.read_sectors(1, 1))
            except (DiskCrashedError, MediaError):
                continue
            if parsed is None:
                continue
            stale, row, lo, n_sectors, _ = parsed
            replayed = False
            if (
                stale in self._failed
                and stale < self._n
                and 0 <= row < self.member_chunks - self._meta_chunks
                and stale != self.parity_member(row)
                and 0 < n_sectors
                and lo + n_sectors <= self.chunk_sectors
            ):
                replayed = self._replay_record(index, *parsed)
            try:
                self._journal_clear(index)
            except DiskCrashedError:
                continue
            if replayed:
                self.metrics.add(f"{self._prefix}.journal_replays")

    def _replay_record(
        self,
        member: int,
        stale: int,
        row: int,
        lo: int,
        n_sectors: int,
        payload_crc: int,
    ) -> bool:
        """Recompute the row's parity so ``stale`` reconstructs to the
        journalled value again."""
        parity_member = self.parity_member(row)
        span_lo = (self._meta_chunks + row) * self.chunk_sectors + lo
        try:
            payload = self._members[member].read_sectors(2, n_sectors)
            if zlib.crc32(payload) != payload_crc:
                return False
            columns = [
                self._members[other].read_sectors(span_lo, n_sectors)
                for other in range(self._n)
                if other not in (parity_member, stale)
            ]
            self._parity_write(
                parity_member, span_lo, _xor_all(columns + [payload])
            )
        except (DiskCrashedError, MediaError):
            return False
        return True

    # --------------------------------------------------- membership

    def _write_superblocks(self, targets) -> None:
        """Best-effort superblock round to ``targets``, in member order.

        A member that crashes during its superblock write is folded
        into the failed set by the caller's next round; a torn
        superblock parses as stale on recovery, which is the safe
        direction.
        """
        failed_bits = sum(1 << index for index in self._failed)
        rebuilding_bits = (
            1 << self._rebuilding if self._rebuilding is not None else 0
        )
        for index in sorted(targets):
            if self._members[index].crashed:
                continue
            blob = _pack_superblock(
                self.level, self._n, self.chunk_sectors, index, self._epoch,
                failed_bits, rebuilding_bits, self._sector_size,
            )
            try:
                self._superblock_write(index, blob)
            except DiskCrashedError:
                # Recorded by the caller's failure loop; the torn
                # superblock reads as stale, never as fresher state.
                continue

    def _note_member_failures(self, indices: Sequence[int]) -> None:
        """Fold newly failed members in; one epoch bump per batch.

        Iterates until the superblock round itself stops crashing
        members (bounded by the member count), then recomputes state.
        """
        pending = [
            i for i in sorted(set(indices))
            # The rebuild target is already in the failed set; losing it
            # again must still cancel the rebuild it anchors.
            if i not in self._failed or i == self._rebuilding
        ]
        if not pending:
            return
        while pending:
            for index in pending:
                self._failed.add(index)
                if not self._members[index].crashed:
                    self._members[index].crash()
                if self._rebuilding == index:
                    # A mid-rebuild target is stale again: the rebuild
                    # is cancelled, the member stays failed.
                    self._rebuilding = None
                    self._rebuild_watermark = 0
                self.metrics.add(f"{self._prefix}.member_failures")
            self._epoch += 1
            survivors = [
                i for i in range(self._n)
                if i not in self._failed and not self._members[i].crashed
            ]
            self._write_superblocks(survivors)
            pending = [
                i for i in survivors if self._members[i].crashed
            ]
        self._refresh_state()

    def fail_member(self, index: int) -> None:
        """Kill one member drive (the scriptable whole-disk loss).

        Idempotent; crashes the drive if it is still up, records the
        failure, bumps the epoch, and rewrites the survivors'
        superblocks.
        """
        if not 0 <= index < self._n:
            raise BadAddressError(f"no member {index}")
        if index in self._failed and index != self._rebuilding:
            return
        self._note_member_failures([index])

    def replace_member(self, index: int, *, blank: bool = True) -> None:
        """Swap a failed member's platter and mark it rebuilding.

        ``blank=True`` models a replacement drive
        (:meth:`~repro.simdisk.disk.SimDisk.replace_platter`); False
        re-adds the old platter after a transient outage — either way
        the member stays untrusted until the rebuild completes.
        """
        if self.level == 0:
            raise ValueError("raid0 has no redundancy to rebuild from")
        if index not in self._failed:
            raise ValueError(f"member {index} is not failed")
        if self._rebuilding is not None:
            raise ValueError(
                f"member {self._rebuilding} is already rebuilding"
            )
        member = self._members[index]
        if blank:
            member.replace_platter()
        else:
            member.repair()
        self._rebuilding = index
        self._rebuild_watermark = self._meta_chunks  # metadata area below
        self._epoch += 1
        self.metrics.add(f"{self._prefix}.member_replacements")
        self._g_rebuild.set(0)
        self._write_superblocks(range(self._n))
        self._refresh_state()

    def _complete_rebuild(self) -> None:
        target = self._rebuilding
        self._rebuilding = None
        self._rebuild_watermark = 0
        if target is not None:
            self._failed.discard(target)
        self._epoch += 1
        self._g_rebuild.set(100)
        self._write_superblocks(range(self._n))
        self._refresh_state()

    def _refresh_state(self) -> None:
        tolerated = {0: 0, 1: self._n - 1, 5: 1}[self.level]
        if len(self._failed) > tolerated:
            new = ArrayState.FAILED
        elif self._rebuilding is not None:
            new = ArrayState.REBUILDING
        elif self._failed:
            new = ArrayState.DEGRADED
        else:
            new = ArrayState.OPTIMAL
        old, self._state = self._state, new
        self._g_state.set(new.value)
        self._g_failed.set(len(self._failed))
        if new is not old and self.on_state_change is not None:
            self.on_state_change(old, new)

    # ---------------------------------------------------- lifecycle

    def crash(self) -> None:
        """Machine crash: every member goes dark (contents persist)."""
        for member in self._members:
            if not member.crashed:
                member.crash()

    def repair(self) -> None:
        """Machine restart: repair the members, re-learn membership.

        The full parity resync belongs to :meth:`recover`; callers on
        the restart path that cannot afford a platter walk pass through
        here and schedule a rebuild for whatever the superblocks say is
        stale.
        """
        for member in self._members:
            member.repair()
        self.recover(resync=False)

    def recover(self, *, resync: bool = True) -> None:
        """Re-learn membership from the superblocks after a restart.

        The highest valid epoch wins; its failed/rebuilding bitmaps are
        the authoritative stale set (an interrupted rebuild restarts
        from scratch).  Members whose superblock is unreadable or not
        ours are stale too.  With ``resync=True`` and no stale member,
        the parity of every row (raid5) or the mirror agreement of
        every chunk (raid1) is then re-established from the data —
        closing the write hole a crash mid-stripe leaves.
        """
        per_member: List[Optional[Tuple[int, int, int]]] = []
        for index, member in enumerate(self._members):
            parsed = None
            if not member.crashed:
                try:
                    parsed = _parse_superblock(
                        member.read_sectors(0, 1), level=self.level,
                        n_members=self._n, chunk_sectors=self.chunk_sectors,
                        member_index=index,
                    )
                except (DiskCrashedError, MediaError):
                    pass
            per_member.append(parsed)
        best = max(
            (parsed for parsed in per_member if parsed is not None),
            key=lambda parsed: parsed[0], default=None,
        )
        self._rebuilding = None
        self._rebuild_watermark = 0
        if best is None:
            # Virgin platters everywhere: initialise a fresh array.
            self._failed = {
                i for i, m in enumerate(self._members) if m.crashed
            }
            self._epoch = 1
        else:
            epoch, failed_bits, rebuilding_bits = best
            stale = failed_bits | rebuilding_bits
            self._failed = {
                i for i, parsed in enumerate(per_member)
                if parsed is None or stale >> i & 1
            }
            self._epoch = epoch + 1
        self._refresh_state()
        if self._state is not ArrayState.FAILED:
            self._replay_journal()
            if resync and self.level != 0 and not self._failed:
                self._resync()
        survivors = [i for i in range(self._n) if i not in self._failed]
        self._write_superblocks(survivors)
        self._refresh_state()

    def _resync(self) -> None:
        """Recompute redundancy from data over every row (write hole).

        Only runs with every member in sync: a stale member is the
        rebuild's job, not resync's.  Acked rows already satisfy the
        invariant, so only rows torn by an un-acked in-flight write are
        rewritten — and those carry no content promise.
        """
        chunk_sectors = self.chunk_sectors
        for row in range(self.member_chunks - self._meta_chunks):
            physical = (self._meta_chunks + row) * chunk_sectors
            if self.level == 5:
                redundant = [self.parity_member(row)]
                expected = self._reconstruct(
                    redundant[0], physical, chunk_sectors
                )
                write = self._parity_write
            else:
                redundant = list(range(1, self._n))
                expected = self._members[0].read_sectors(
                    physical, chunk_sectors
                )
                write = self._member_write
            for index in redundant:
                stored = self._members[index].read_sectors(
                    physical, chunk_sectors
                )
                if stored != expected:
                    write(index, physical, expected)
                    self.metrics.add(f"{self._prefix}.resync_repairs")

    # -------------------------------------------------------- reads

    def read_sectors(self, start: int, n_sectors: int) -> bytes:
        """Read a contiguous logical run — one span per member."""
        mon = _monitor.active()
        if mon.enabled:
            mon.chain(self)
        self._check_request(start, n_sectors)
        data = self._serving(lambda: self._read_attempt(start, n_sectors))
        self._c_reads.add()
        if self._failed:
            self._c_degraded_reads.add()
        self._head_cylinder = self.geometry.cylinder_of(start + n_sectors - 1)
        return data

    def read_in_passing(self, start: int, n_sectors: int) -> bytes:
        """Track readahead across the members (no disk references)."""
        self._check_request(start, n_sectors)
        return self._serving(
            lambda: self._read_attempt(start, n_sectors, in_passing=True)
        )

    def passing_times(self, start: int, n_sectors: int) -> List[int]:
        """When each logical sector of the last read in passing had
        passed the heads it needs: its member's, or for a stale
        member's sector (degraded raid5) every surviving member's.

        A sector a source did not deliver (a media error settled from
        peers) is taken to pass when the last survivor falls idle:
        later than exact, never early.
        """
        stale = self._stale_member()
        survivors = [i for i in range(self._n) if i not in self._failed]
        idle = max(self._members[i].timeline.busy_until_us for i in survivors)
        out: List[int] = []
        for member, physical, length, _ in self._segments(start, n_sectors):
            sources = [member] if member != stale else survivors
            out.extend(
                max(times) if all(times) else idle
                for times in zip(
                    *(
                        self._members[i].passing_times(physical, length)
                        for i in sources
                    )
                )
            )
        return out

    def _read_attempt(
        self, start: int, n_sectors: int, *, in_passing: bool = False
    ) -> bytes:
        segments = self._segments(start, n_sectors)
        stale = self._stale_member()
        size = self._sector_size
        # One contiguous span per member: its own segments, plus (in
        # degraded raid5) every stale segment's range for the XOR.
        spans: Dict[int, Tuple[int, int]] = {}

        def widen(index: int, lo: int, hi: int) -> None:
            held = spans.get(index)
            spans[index] = (
                (lo, hi) if held is None
                else (min(held[0], lo), max(held[1], hi))
            )

        for member, physical, length, _ in segments:
            if member != stale:
                widen(member, physical, physical + length)
                continue
            for other in range(self._n):
                if other not in self._failed:
                    widen(other, physical, physical + length)
        buffers = self._read_spans(spans, in_passing=in_passing)
        out = bytearray(n_sectors * size)
        for member, physical, length, logical in segments:
            pieces = [
                buffers[index][
                    (physical - spans[index][0]) * size :
                    (physical - spans[index][0] + length) * size
                ]
                for index in ([member] if member != stale else sorted(spans))
            ]
            if member == stale:
                self._c_reconstructed.add()
            out[(logical - start) * size : (logical - start + length) * size] = (
                _xor_all(pieces) if member == stale else pieces[0]
            )
        return bytes(out)

    # -------------------------------------------------------- writes

    def write_sectors(self, start: int, data: bytes) -> None:
        """Write a contiguous logical run, maintaining redundancy."""
        mon = _monitor.active()
        if mon.enabled:
            mon.chain(self)
        size = self._sector_size
        n_bytes = len(data)
        if n_bytes == 0 or n_bytes % size != 0:
            raise BadAddressError(
                f"write length {n_bytes} is not a positive multiple of {size}"
            )
        n_sectors = n_bytes // size
        self._check_request(start, n_sectors)
        if self.level == 0:
            write = self._write_raid0
        elif self.level == 1:
            write = self._write_raid1
        else:
            write = self._write_raid5
        self._serving(lambda: write(start, data, n_sectors))
        self._c_writes.add()
        if self._failed:
            self._c_degraded_writes.add()
        self._head_cylinder = self.geometry.cylinder_of(start + n_sectors - 1)

    def _write_raid0(self, start: int, data: bytes, n_sectors: int) -> None:
        size = self._sector_size
        pieces: Dict[int, List[bytes]] = {}
        first: Dict[int, int] = {}
        for member, physical, length, logical in self._segments(start, n_sectors):
            first.setdefault(member, physical)
            pieces.setdefault(member, []).append(
                data[(logical - start) * size : (logical - start + length) * size]
            )
        self._write_members(
            [
                (member, first[member], b"".join(pieces[member]), False)
                for member in sorted(pieces)
            ],
            replay=False,
        )

    def _write_raid1(self, start: int, data: bytes, n_sectors: int) -> None:
        physical = self._data_start + start
        self._write_members(
            [(member, physical, data, False) for member in range(self._n)],
            replay=False,
        )

    def _write_raid5(self, start: int, data: bytes, n_sectors: int) -> None:
        rows: Dict[int, List[Tuple[int, int, int, int]]] = {}
        for segment in self._segments(start, n_sectors):
            row = segment[1] // self.chunk_sectors - self._meta_chunks
            rows.setdefault(row, []).append(segment)
        row_sectors = (self._n - 1) * self.chunk_sectors
        full = [
            row for row, segments in rows.items()
            if sum(length for _, _, length, _ in segments) == row_sectors
        ]
        if full:
            # One run: only a write's first and last row can be partial.
            self._write_full_rows(full[0], full[-1], start, data)
        for row, segments in rows.items():
            if row not in full:
                self._write_partial_row(row, segments, start, data)

    def _write_full_rows(
        self, first_row: int, last_row: int, start: int, data: bytes
    ) -> None:
        """One span per member (data + rotated parity) for a run of
        fully covered stripe rows — no reads, parity from the new data."""
        chunk_bytes = self._chunk_bytes
        d = self._n - 1
        parts: List[List[bytes]] = [[] for _ in range(self._n)]
        for row in range(first_row, last_row + 1):
            base = (row * d * self.chunk_sectors - start) * self._sector_size
            chunks = [
                data[base + k * chunk_bytes : base + (k + 1) * chunk_bytes]
                for k in range(d)
            ]
            chunks.insert(self.parity_member(row), _xor_all(chunks))
            for index, chunk in enumerate(chunks):
                parts[index].append(chunk)
        physical = (self._meta_chunks + first_row) * self.chunk_sectors
        self._write_members(
            [
                (index, physical, b"".join(parts[index]), False)
                for index in range(self._n)
            ],
            replay=True,
        )

    def _write_partial_row(
        self,
        row: int,
        segments: List[Tuple[int, int, int, int]],
        start: int,
        data: bytes,
    ) -> None:
        """Read-modify-write one partially covered stripe row.

        The small-write penalty lives here: covered columns and the
        parity chunk are read over the union range, the parity delta is
        folded in, and both are rewritten.  With a stale data column in
        the row the old values are recovered through the parity
        identity instead of reading the stale platter — and the
        recovered value is journalled before any member write goes out,
        so a crash between the row's writes cannot strand the stale
        column's acked bytes (the degraded write hole).
        """
        size = self._sector_size
        parity_member = self.parity_member(row)
        physical = (self._meta_chunks + row) * self.chunk_sectors
        stale = self._stale_member()
        span_lo = min(at for _, at, _, _ in segments)
        span_n = max(at + length for _, at, length, _ in segments) - span_lo
        covered: Dict[int, Tuple[int, bytes]] = {
            member: (
                at,
                data[(logical - start) * size : (logical - start + length) * size],
            )
            for member, at, length, logical in segments
        }
        write_through = (
            stale is not None and self._write_reach(stale, span_lo, span_n) > 0
        )
        # --- read phase -------------------------------------------
        # A stale *data* column makes any parity update hazardous (the
        # column's value is the parity identity over the others), so
        # its old value is recovered up front whether or not the write
        # covers it, and journalled before the writes go out.
        stale_data = stale is not None and stale != parity_member
        recompute = stale_data or (stale == parity_member and write_through)
        if recompute:
            readers = [i for i in range(self._n) if i != stale]
        elif stale == parity_member:
            readers = []  # exact-slice writes only; no parity to maintain
        else:
            readers = [*covered, parity_member]
        old = self._read_spans(
            {index: (span_lo, span_lo + span_n) for index in readers}
        )
        # --- compute phase ----------------------------------------
        posts: Dict[int, bytes] = {
            member: _overlay(old[member], (at - span_lo) * size, piece)
            for member, (at, piece) in covered.items()
            if member in old
        }
        stale_old: Optional[bytes] = None
        parity_new: Optional[bytes] = None
        if stale_data:
            assert stale is not None
            # Stale column's old value via the parity identity, then
            # overlay the new slice if the write covers it.
            stale_old = posts[stale] = _xor_all(old.values())
            if stale in covered:
                at, piece = covered[stale]
                posts[stale] = _overlay(stale_old, (at - span_lo) * size, piece)
        if recompute:
            # Fresh parity over the union range from post-write state.
            parity_new = _xor_all(
                posts[i] if i in posts else old[i]
                for i in range(self._n) if i != parity_member
            )
        elif readers:
            # Old parity with every covered column's change folded in.
            parity_new = _xor_all(
                [old[parity_member], *posts.values()]
                + [old[member] for member in posts]
            )
        # --- journal phase ----------------------------------------
        journal_member: Optional[int] = None
        if stale_data:
            assert stale is not None and stale_old is not None
            journal_member = min(
                i for i in range(self._n) if i not in self._failed
            )
            try:
                self._journal_arm(
                    journal_member, stale, row, span_lo - physical, span_n,
                    stale_old,
                )
            except DiskCrashedError:
                self._retire([journal_member])
        # --- write phase ------------------------------------------
        # A column that was read is rewritten over the whole union
        # range; one that was not (or is stale) takes its exact slice.
        writes: List[Tuple[int, int, bytes, bool]] = []
        for member in sorted(covered):
            if member in posts and member != stale:
                writes.append((member, span_lo, posts[member], False))
            else:
                writes.append((member, *covered[member], False))
        if parity_new is not None:
            writes.append((parity_member, span_lo, parity_new, True))
        self._write_members(writes, replay=True)
        if journal_member is not None:
            try:
                self._journal_clear(journal_member)
            except DiskCrashedError:
                # The row update itself landed; losing the journal
                # member now only costs redundancy, never the write.
                self._retire([journal_member], replay=False)

    # ------------------------------------------------------ internal

    def _check_request(self, start: int, n_sectors: int) -> None:
        if n_sectors <= 0:
            raise BadAddressError("request must cover at least one sector")
        if not 0 <= start or start + n_sectors > self._total_sectors:
            self.geometry.check_sector(start)
            self.geometry.check_sector(start + n_sectors - 1)

    def __repr__(self) -> str:
        return (
            f"StripedVolume({self.array_id!r}, raid{self.level}x{self._n}, "
            f"{self._state.name.lower()})"
        )


class RaidRebuilder:
    """Background reconstruction of a replaced member.

    Walks the target's physical data chunks (the metadata area is
    rewritten by the membership machinery), reconstructing each from
    the surviving members and advancing the array's write-through
    watermark as it goes: writes below it are written through to the
    target, chunks above it are reconstructed from the survivors'
    *current* content when the cursor reaches them.  It advances
    exactly when :meth:`step` is called, so the caller chooses the
    idle points; there is no foreground gate.  (A gate on the drives'
    timelines was measured and declined: pumped from inside concurrent
    operations, each operation's own charges read as "busy" and the
    rebuild never ran.)  :meth:`run_cycle` runs it to completion.

    Args:
        array: the owning array; must currently be REBUILDING.
        chunks_per_step: physical chunks reconstructed per step.
    """

    def __init__(self, array: StripedVolume, *, chunks_per_step: int = 32) -> None:
        if array.rebuild_target is None:
            raise ValueError("array has no rebuild target")
        if chunks_per_step < 1:
            raise ValueError("need at least one chunk per step")
        self.array = array
        self.target = array.rebuild_target
        self.chunks_per_step = chunks_per_step
        self._cursor = array._meta_chunks  # data starts past metadata
        self._prefix = f"raid.{array.array_id}.rebuild"

    @property
    def done(self) -> bool:
        """True once the rebuild completed or was cancelled."""
        return self.array.rebuild_target != self.target

    @property
    def cursor(self) -> int:
        return self._cursor

    def progress_percent(self) -> int:
        meta = self.array._meta_chunks
        total = self.array.member_chunks - meta
        return min(100, (self._cursor - meta) * 100 // total)

    def step(self) -> int:
        """Rebuild up to ``chunks_per_step`` chunks; 0 once done.

        A second failure mid-step cancels (raid5 → FAILED) and the
        rebuilder reports done; the array state is authoritative.
        """
        if self.done or self.array.state is not ArrayState.REBUILDING:
            return 0
        built = 0
        while built < self.chunks_per_step and not self.done:
            if self._cursor >= self.array.member_chunks:
                break
            if not self._rebuild_chunk(self._cursor):
                return built
            self._cursor += 1
            built += 1
            self.array._rebuild_watermark = self._cursor
            self.array.metrics.add(f"{self._prefix}.chunks")
        self.array._g_rebuild.set(self.progress_percent())
        if self._cursor >= self.array.member_chunks and not self.done:
            self.array._complete_rebuild()
        return built

    def run_cycle(self) -> None:
        """Run the rebuild to completion."""
        while not self.done:
            if self.step() == 0 and not self.done:
                return  # array left REBUILDING (second failure)

    def _rebuild_chunk(self, physical_chunk: int) -> bool:
        array = self.array
        physical = physical_chunk * array.chunk_sectors
        try:
            content = array._reconstruct(
                self.target, physical, array.chunk_sectors
            )
        except DiskCrashedError:
            array._note_member_failures(array._dead_members())
            return False
        except MediaError:
            # Redundancy is already spent on the target; an unreadable
            # survivor chunk means this stripe cannot be reconstructed.
            array._note_member_failures([self.target])
            return False
        try:
            self._write_target(physical, content)
        except DiskCrashedError:
            array._note_member_failures([self.target])
            return False
        return True

    def _write_target(self, physical: int, content: bytes) -> None:
        """Rebuild write to the target member (registered write site)."""
        self.array._members[self.target].write_sectors(physical, content)
