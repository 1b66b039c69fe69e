"""Stable storage: mirrored careful writes.

The paper requires "the concept of stable storage to maintain mirror
images of all the vital structural information" (section 2.1) and uses
it for file index tables, shadow pages, write-ahead log records and
intention flags (sections 4, 6.6, 6.7).  This module implements the
classic Lampson careful-replicated-storage discipline over two
simulated disks:

* every record is written **first to mirror A, then to mirror B**, each
  copy carrying a store-wide sequence number and checksum;
* a crash between the two writes (or a torn write within one) leaves at
  least one good copy;
* reads verify the checksum of copy A and fall back to copy B;
* :meth:`recover` scans both mirrors after a crash and repairs the
  out-of-date or corrupt copy from the good one, restoring the
  invariant that both mirrors agree.

Records are addressed by a string key (e.g. ``"ext:1024:1"`` or
``"intentions:42"``), which is what the higher layers naturally have.
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_left, insort
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis import monitor as _monitor
from repro.common.errors import (
    BadAddressError,
    DiskCrashedError,
    DiskError,
    StableKeyError,
)
from repro.common.frames import ceil_us
from repro.common.units import SECTOR_SIZE
from repro.simdisk.disk import SimDisk

_MAGIC = b"RSTB"
_TOMBSTONE = b"RDEL"
# header: magic 4s | version Q | payload_len I | crc I | key_len H
# (a tombstone's payload_len is the size of the slot it covers, less
# the header sector, so a record and a tombstone size their slots alike)
_HEADER = struct.Struct("<4sQIIH")
_MAX_KEY = SECTOR_SIZE - _HEADER.size


def _sectors_for(payload_len: int) -> int:
    """Sectors of a slot holding ``payload_len`` bytes after its header."""
    return 1 + -(-payload_len // SECTOR_SIZE)


def _head(magic: bytes, key: str, version: int, payload_len: int, crc: int) -> bytes:
    """A slot's first sector: the header, then the key, zero-padded."""
    key_bytes = key.encode("utf-8")
    if len(key_bytes) > _MAX_KEY:
        raise ValueError(f"stable-storage key too long: {key!r}")
    head = _HEADER.pack(magic, version, payload_len, crc, len(key_bytes)) + key_bytes
    return head + bytes(SECTOR_SIZE - len(head))


def _parse_head(head: bytes) -> Optional[Tuple[bytes, str, int, int, int]]:
    """``(magic, key, version, payload_len, crc)`` of a slot's first
    sector, or None when it holds no record or tombstone header."""
    magic, version, payload_len, crc, key_len = _HEADER.unpack_from(head)
    if magic not in (_MAGIC, _TOMBSTONE) or key_len > _MAX_KEY:
        return None
    key = head[_HEADER.size : _HEADER.size + key_len].decode("utf-8", "replace")
    return magic, key, version, payload_len, crc


class StableStore:
    """A careful-replicated record store over two mirror disks.

    Both mirrors must have identical geometry.  A record goes to the
    slot the mirrors reach first (:meth:`_slot_for`): its key's own
    slot, a free slot of the size it needs, or fresh space past the
    last slot, whichever the timing model prices lowest from mirror A's
    head.  :meth:`delete` writes a tombstone's header, covering a whole
    slot of the key's size, to the slot of that size the mirrors reach
    first: the key's own or a free one.  A directory rebuild after a
    crash sees the deletion and frees the slot; the tombstone's slot
    stays allocated while a freed slot may still hold an older copy of
    the key, which a rebuild would otherwise bring back.
    :meth:`forget` writes nothing, for a record something durable
    already supersedes.

    Every header's version is the next number of one store-wide
    sequence, claimed before its first copy, so of two headers the
    higher version is the later write, whatever their keys.

    One rule governs a key's copies.  Its directory slot holds the
    newest; every superseded copy whose slot is still allocated waits in
    a newest-first list behind it.  A put that relocates the key adds
    the old slot to that list and frees the whole list once both new
    copies land; a rebuild puts there every live copy newer than the
    key's tombstone; :meth:`recover` keeps the first copy that heals and
    frees every other slot.
    """

    def __init__(self, mirror_a: SimDisk, mirror_b: SimDisk) -> None:
        if mirror_a.geometry != mirror_b.geometry:
            raise ValueError("stable-store mirrors must share a geometry")
        self.mirror_a = mirror_a
        self.mirror_b = mirror_b
        self._directory: Dict[str, Tuple[int, int]] = {}  # key -> (start, n_sectors)
        self._sequence = 0  # the last number a header claimed
        self._next_sector = 0
        #: n_sectors -> cylinder -> sorted (angular slot, start) of the
        #: free slots of that size, so a put walks one cylinder's slots
        #: in the order the platter brings them under the head.
        self._free: Dict[int, Dict[int, List[Tuple[int, int]]]] = {}
        self._free_sectors = 0
        #: slot start -> keys whose header a freed slot may still hold
        #: on a mirror, until a put lands over it on both.
        self._stale: Dict[int, Set[str]] = {}
        self._stale_count: Dict[str, int] = {}  # key -> slots in _stale naming it
        #: key -> its tombstone's slot, held while _stale names the key.
        self._tombs: Dict[str, Tuple[int, int]] = {}
        #: key -> its superseded slots, newest first, kept allocated (and
        #: durable) until a newer copy lands on both mirrors — recovery
        #: falls back to them if it never does.
        self._older: Dict[str, list[Tuple[int, int]]] = {}

    # ------------------------------------------------------------ api

    def put(self, key: str, payload: bytes) -> None:
        """Durably store ``payload`` under ``key`` (careful write A then B).

        Raises :class:`DiskCrashedError` if a mirror crashes mid-write;
        the record is still recoverable from the surviving copy via
        :meth:`recover` + :meth:`get`.
        """
        _monitor.active().key_write(self, key, name="directory", site="stable.put")
        slot = self._slot_for(key, len(payload))
        # Claimed before the first copy: a torn write can leave this
        # number's header on a mirror, and every later header must
        # outrank it when the directory is rebuilt from the headers.
        self._sequence += 1
        record = _head(_MAGIC, key, self._sequence, len(payload), zlib.crc32(payload))
        record += payload + bytes(-len(payload) % SECTOR_SIZE)
        self.mirror_a.write_sectors(slot[0], record)
        self.mirror_b.write_sectors(slot[0], record)
        self._landed(slot[0])
        # Only now that both copies landed are the superseded slots
        # safe to reuse; freeing one earlier would let a crash during
        # the move destroy the sole durable copy of the record.
        self._release(*self._older.pop(key, ()), copies_of=key)
        # Tell a chaos monitor (if one is attached to the mirrors) that
        # a careful write completed both copies: the trace marks these
        # sync boundaries between the numbered physical crash points.
        monitor = self.mirror_a.faults.monitor
        if monitor is not None and hasattr(monitor, "note_stable_sync"):
            monitor.note_stable_sync(key, slot[0], slot[1])

    def get(self, key: str) -> bytes:
        """Read the record for ``key``, falling back to mirror B.

        Raises :class:`StableKeyError` (a :class:`KeyError`) if the key
        is unknown, :class:`DiskError` if both copies are unreadable.
        """
        _monitor.active().key_read(self, key, name="directory", site="stable.get")
        slot = self._directory.get(key)
        if slot is None:
            raise StableKeyError(key)
        for mirror in (self.mirror_a, self.mirror_b):
            try:
                record = mirror.read_sectors(slot[0], slot[1])
            except (DiskError, DiskCrashedError):
                continue
            decoded = self._decode(record)
            if decoded is not None and decoded[0] == key:
                return decoded[2]
        raise DiskError(f"stable storage: both copies of {key!r} unreadable")

    def delete(self, key: str) -> None:
        """Remove ``key``: a tombstone's header goes to both mirrors.

        It takes whichever the mirrors reach first of the key's slot and
        the free slots of its size, and never fresh space; a slot it
        leaves is freed as one that may still hold the key.  The
        tombstone's version outranks every copy of the key, so a
        directory rebuild keeps the deletion even where the tombstone
        reached only one mirror.
        """
        _monitor.active().key_write(
            self, key, name="directory", site="stable.delete"
        )
        slot = self._directory.pop(key, None)
        if slot is None:
            return
        # Priced as a put of the slot's size would be, as _slot_for does.
        start = self._cheapest_free(slot[1], self._cheaper(None, *slot))[1]
        if start != slot[0]:
            self._take_free(start, slot[1])
        self._sequence += 1
        tomb = _head(_TOMBSTONE, key, self._sequence, (slot[1] - 1) * SECTOR_SIZE, 0)
        errors: list[Exception] = []
        for mirror in (self.mirror_a, self.mirror_b):
            try:
                mirror.write_sectors(start, tomb)
            except (DiskError, DiskCrashedError) as exc:
                errors.append(exc)
        if len(errors) == 2:
            # Careful writes tolerate losing ONE copy.  With neither
            # mirror holding the tombstone the deletion is not durable
            # — a directory rebuild would resurrect the live record —
            # so the caller must not be told it succeeded.
            self._directory[key] = slot
            if start != slot[0]:
                self._release((start, slot[1]))
            raise errors[0]
        if start != slot[0]:
            self._release(slot, copies_of=key)
        # The tombstone outranks the key's older copies too, and is
        # held while a freed slot may still hold one of them.
        self._release(*self._older.pop(key, ()), copies_of=key)
        if not errors:  # no older header is left at start
            self._landed(start)
        self._hold_tombstone(key, (start, slot[1]))

    def forget(self, key: str) -> None:
        """Drop ``key`` from the directory and reuse its slot, writing nothing.

        Only for a record that something durable already supersedes
        (the transaction service's retired-through watermark over its
        intentions lists): the bytes stay on both mirrors, so a
        directory rebuild finds the record again and the owner must
        forget it again.
        """
        _monitor.active().key_write(
            self, key, name="directory", site="stable.forget"
        )
        slot = self._directory.pop(key, None)
        if slot is not None:
            self._release(slot, *self._older.pop(key, ()), copies_of=key)

    def __contains__(self, key: str) -> bool:
        _monitor.active().key_read(
            self, key, name="directory", site="stable.contains"
        )
        return key in self._directory

    def keys(self) -> Iterator[str]:
        return iter(dict(self._directory))

    # ------------------------------------------------------- recovery

    def recover(self) -> int:
        """Repair the mirrors after a crash; returns records repaired.

        For every key the directory knows, the slot kept is the one
        whose intact copy carries the highest version — of the
        directory slot and the superseded ones, newest first on a tie
        — and :meth:`_repair_slot` heals its mirror pair; every other
        slot is free again.  The version decides, not the slot: a put
        that tore over a freed slot can leave an older copy of its own
        key on the other mirror.  A key with no intact copy never
        completed its first careful write, and is dropped.  Falling
        back to an older copy and dropping a key each count as one
        repair.  Both mirrors must be online (repaired) before calling.
        """
        _monitor.active().write_all(self, name="directory", site="stable.recover")
        repaired = 0
        for key, newest in list(self._directory.items()):
            copies = [newest, *self._older.pop(key, ())]
            kept, best, pair = None, -1, (None, None)
            for slot in copies:
                found = self._copies(key, *slot)
                version = max((copy[0] for copy in found if copy), default=-1)
                if version > best:
                    kept, best, pair = slot, version, found
            healed = None if kept is None else self._repair_slot(*kept, *pair)
            repaired += healed if kept == newest else 1
            self._release(*(slot for slot in copies if slot != kept), copies_of=key)
            if kept is None:
                del self._directory[key]
            else:
                self._landed(kept[0])
                self._directory[key] = kept
        return repaired

    def _repair_slot(
        self,
        start: int,
        n_sectors: int,
        copy_a: Optional[Tuple[int, bytes]],
        copy_b: Optional[Tuple[int, bytes]],
    ) -> int:
        """Repair one slot's mirror pair in place from its newer intact
        copy (``copy_a`` / ``copy_b`` as :meth:`_copies` read them, at
        least one intact).

        Returns 0 when the copies already agree, 1 when one copy was
        rewritten from the other.  Raises the sequence to the surviving
        copy's version, and never lowers it: a relocation that tore left
        its newer version's header behind.
        """
        if copy_a is not None and copy_b is not None and copy_a[0] == copy_b[0]:
            good, healed = copy_a, 0
        else:
            if copy_a is not None and (copy_b is None or copy_a[0] > copy_b[0]):
                source, target, good = self.mirror_a, self.mirror_b, copy_a
            else:
                source, target, good = self.mirror_b, self.mirror_a, copy_b
            record = source.read_sectors(start, n_sectors)
            target.write_sectors(start, record)
            healed = 1
        self._sequence = max(self._sequence, good[0])
        return healed

    def verify_mirrors(self) -> list[str]:
        """Check the careful-write invariant: both mirrors agree.

        For every key the directory knows, both copies must decode,
        carry the same version, and hold identical payloads.  Returns a
        list of human-readable violations (empty = invariant holds);
        the chaos harness runs this after every recovery.
        """
        violations: list[str] = []
        for key, (start, n_sectors) in self._directory.items():
            copy_a, copy_b = self._copies(key, start, n_sectors)
            if copy_a is None or copy_b is None:
                mirror = "A" if copy_a is None else "B"
                violations.append(f"stable {key!r}: mirror {mirror} copy unreadable")
            elif copy_a[0] != copy_b[0]:
                violations.append(
                    f"stable {key!r}: version skew (A v{copy_a[0]}, B v{copy_b[0]})"
                )
            elif copy_a[1] != copy_b[1]:
                violations.append(
                    f"stable {key!r}: same version {copy_a[0]} but payloads differ"
                )
        return violations

    def rebuild_directory(self) -> int:
        """Rebuild the in-memory directory by scanning mirror headers.

        Used when the machine holding the in-memory state crashed; the
        mirrors themselves are the authority.  A key's newest live copy
        becomes its entry and every other copy newer than the key's
        tombstone its superseded list, newest first, for
        :meth:`recover` to keep the first that heals and free the rest.
        Every tombstone's slot, every copy a newer tombstone deletes,
        and every run of sectors where no header starts (one slot per
        run) are free again, and the sequence rises to the highest
        version scanned.  Returns the keys found.
        """
        _monitor.active().write_all(
            self, name="directory", site="stable.rebuild_directory"
        )
        self._directory.clear()
        self._free.clear()
        self._free_sectors = 0
        self._stale.clear()
        self._stale_count.clear()
        self._tombs.clear()
        self._older.clear()
        copies: Dict[str, list[Tuple[int, Tuple[int, int]]]] = {}
        # key -> its newest tombstone: (version, slot)
        deleted: Dict[str, Tuple[int, Tuple[int, int]]] = {}
        gap = None  # first sector of the current run with no header
        sector = 0
        while sector < self._next_sector:
            entry = self._scan_slot(sector)
            if entry is None:
                # No header starts here: a first write that tore before
                # its header landed, or the tail of a slot that a
                # smaller record reused in place.
                if gap is None:
                    gap = sector
                sector += 1
                continue
            if gap is not None:
                self._release((gap, sector - gap))
                gap = None
            key, version, n_sectors, is_tombstone = entry
            self._sequence = max(self._sequence, version)
            slot = (sector, n_sectors)
            if not is_tombstone:
                copies.setdefault(key, []).append((version, slot))
            elif key not in deleted or version > deleted[key][0]:
                if key in deleted:
                    self._release(deleted[key][1])
                deleted[key] = (version, slot)
            else:
                self._release(slot)
            sector += n_sectors
        if gap is not None:
            self._release((gap, sector - gap))
        for key, found in copies.items():
            # Newest first; a tie keeps scan order (the lower sector).
            found.sort(key=lambda copy: copy[0], reverse=True)
            tombstone = deleted[key][0] if key in deleted else 0
            live = [slot for version, slot in found if version > tombstone]
            self._release(
                *(slot for version, slot in found if version <= tombstone),
                copies_of=key,
            )
            if live:
                self._directory[key] = live[0]
            if len(live) > 1:
                self._older[key] = live[1:]
        for key, (_, slot) in deleted.items():
            self._hold_tombstone(key, slot)
        return len(self._directory)

    # ------------------------------------------------------ internal

    def _slot_for(self, key: str, payload_len: int) -> Tuple[int, int]:
        """The slot a put of ``payload_len`` bytes under ``key`` writes.

        The slot the mirrors reach first: of the key's own slot (if big
        enough), the free slots of the size the record needs and fresh
        space at ``_next_sector``, the one the timing model charges
        least to write from where mirror A's head rests
        (:meth:`~repro.simdisk.disk.SimDisk.service_time_us`, the charge
        the write then pays); equal charges go to the lowest start.  Fresh space is a
        candidate while the area holds fewer free sectors than
        allocated ones, and otherwise only when there is no other: the
        area grows by choice only while it is under twice what it
        holds.
        """
        needed = _sectors_for(payload_len)
        existing = self._directory.get(key)
        best = None  # (charge us, start)
        if existing is not None and existing[1] >= needed:
            best = self._cheaper(best, existing[0], needed)
        best = self._cheapest_free(needed, best)
        fresh = self._next_sector
        fits = fresh + needed <= self.mirror_a.geometry.total_sectors
        if fits and (best is None or 2 * self._free_sectors < fresh):
            best = self._cheaper(best, fresh, needed)
        if best is None:
            raise BadAddressError("stable storage exhausted")
        start = best[1]
        if existing is not None and start == existing[0]:
            return existing
        if start == fresh:
            self._next_sector = fresh + needed
        else:
            self._take_free(start, needed)
        if existing is not None:
            # Relocation: the old slot stays allocated until the new
            # record is durable on both mirrors (put/recover free it).
            self._older.setdefault(key, []).insert(0, existing)
        slot = (start, needed)
        self._directory[key] = slot
        return slot

    def _cheapest_free(
        self, n_sectors: int, best: Optional[Tuple[int, int]]
    ) -> Optional[Tuple[int, int]]:
        """The lower of ``best`` and the cheapest free ``n_sectors`` slot,
        as ``(charge us, start)``.

        Each cylinder's slots are walked in the order the platter brings
        them under the head, and the walk stops at the first slot whose
        charge, less any head switch, already exceeds the best: the
        seek, the rotation to the slot and the transfer are a lower
        bound on what the model charges, and they grow along the walk.
        """
        by_cylinder = self._free.get(n_sectors)
        if not by_cylinder:
            return best
        disk = self.mirror_a
        model, per_track = disk.timing, disk.geometry.sectors_per_track
        slot_us = model.rotation_time_us / per_track
        head_cylinder, head_angular = disk.head_cylinder, disk.head_angular
        for cylinder, entries in by_cylinder.items():
            # The terms in the order the model adds them, so a slot that
            # crosses no track is bounded by exactly its charge.
            base = model.controller_overhead_us + model.seek_time_us(
                head_cylinder, cylinder
            )
            first = bisect_left(entries, (head_angular,))
            for step in range(len(entries)):
                angular, start = entries[(first + step) % len(entries)]
                bound = (
                    base
                    + ((angular - head_angular) % per_track) * slot_us
                    + n_sectors * slot_us
                )
                if best is not None and ceil_us(bound) > best[0]:
                    break
                best = self._cheaper(best, start, n_sectors)
        return best

    def _cheaper(
        self, best: Optional[Tuple[int, int]], start: int, n_sectors: int
    ) -> Tuple[int, int]:
        """The lower ``(charge us, start)`` of ``best`` and a write of
        ``n_sectors`` at ``start`` from where mirror A's head rests."""
        charge = (self.mirror_a.service_time_us(start, n_sectors), start)
        return charge if best is None or charge < best else best

    def _take_free(self, start: int, n_sectors: int) -> None:
        """Take the free slot (start, n_sectors) out of the index."""
        geometry = self.mirror_a.geometry
        by_cylinder = self._free[n_sectors]
        cylinder = start // geometry.sectors_per_cylinder
        entries = by_cylinder[cylinder]
        del entries[bisect_left(entries, (start % geometry.sectors_per_track, start))]
        if not entries:
            del by_cylinder[cylinder]
            if not by_cylinder:
                del self._free[n_sectors]
        self._free_sectors -= n_sectors

    def _release(
        self, *slots: Tuple[int, int], copies_of: Optional[str] = None
    ) -> None:
        """Return each ``slot`` (start, n_sectors) to the free index;
        ``copies_of`` names the key whose copies they may still hold."""
        geometry = self.mirror_a.geometry
        for start, n_sectors in slots:
            cylinder = start // geometry.sectors_per_cylinder
            insort(
                self._free.setdefault(n_sectors, {}).setdefault(cylinder, []),
                (start % geometry.sectors_per_track, start),
            )
            self._free_sectors += n_sectors
            if copies_of is not None:
                keys = self._stale.setdefault(start, set())
                if copies_of not in keys:
                    keys.add(copies_of)
                    self._stale_count[copies_of] = (
                        self._stale_count.get(copies_of, 0) + 1
                    )

    def _landed(self, start: int) -> None:
        """A record landed on both mirrors at ``start``: no older header
        is left there, and a tombstone held for it alone is freed."""
        for key in self._stale.pop(start, ()):
            left = self._stale_count.pop(key) - 1
            if left:
                self._stale_count[key] = left
            else:
                tomb = self._tombs.pop(key, None)
                if tomb is not None:
                    self._release(tomb)

    def _hold_tombstone(self, key: str, slot: Tuple[int, int]) -> None:
        """Keep ``key``'s newest tombstone slot allocated while a freed
        slot may still hold an older copy of the key; free it otherwise,
        and free an older tombstone held for the key in any case."""
        older = self._tombs.pop(key, None)
        if older is not None:
            self._release(older)
        if self._stale_count.get(key):
            self._tombs[key] = slot
        else:
            self._release(slot)

    def free_slots(self) -> List[Tuple[int, int]]:
        """Every free slot as ``(start, n_sectors)``, by start."""
        return sorted(
            (start, n_sectors)
            for n_sectors, by_cylinder in self._free.items()
            for entries in by_cylinder.values()
            for _, start in entries
        )

    @staticmethod
    def _decode(record: bytes) -> Optional[Tuple[str, int, bytes]]:
        header = _parse_head(record)
        if header is None or header[0] != _MAGIC:
            return None
        _, key, version, payload_len, crc = header
        payload = record[SECTOR_SIZE : SECTOR_SIZE + payload_len]
        if len(payload) != payload_len or zlib.crc32(payload) != crc:
            return None
        return key, version, payload

    def _copies(
        self, key: str, start: int, n_sectors: int
    ) -> list[Optional[Tuple[int, bytes]]]:
        """``key``'s copy in one slot on mirror A and on mirror B:
        ``(version, payload)``, or None where unreadable, corrupt, or
        another key's."""
        copies: list[Optional[Tuple[int, bytes]]] = []
        for mirror in (self.mirror_a, self.mirror_b):
            try:
                decoded = self._decode(mirror.read_sectors(start, n_sectors))
            except (DiskError, DiskCrashedError):
                decoded = None
            ours = decoded is not None and decoded[0] == key
            copies.append(decoded[1:] if ours else None)
        return copies

    def _scan_slot(self, sector: int) -> Optional[Tuple[str, int, int, bool]]:
        """Read one slot's header from both mirrors and arbitrate.

        A write (record or tombstone) lands on mirror A before mirror
        B, so the two copies can disagree after a crash.  The higher
        version is the later write and wins, of one key or of two: a
        tombstone that reached one mirror beats the stale live record on
        the other, and a put or tombstone that moved into a freed slot
        beats whatever header of another key the slot still holds.
        """
        candidates: list[Tuple[str, int, int, bool]] = []
        for mirror in (self.mirror_a, self.mirror_b):
            try:
                header = _parse_head(mirror.read_sectors(sector, 1))
            except (DiskError, DiskCrashedError):
                continue
            if header is not None:
                magic, key, version, payload_len, _ = header
                n_sectors = _sectors_for(payload_len)
                candidates.append((key, version, n_sectors, magic == _TOMBSTONE))
        return max(candidates, key=lambda entry: entry[1], default=None)
