"""Stable storage: mirrored careful writes.

The paper requires "the concept of stable storage to maintain mirror
images of all the vital structural information" (section 2.1) and uses
it for file index tables, shadow pages, write-ahead log records and
intention flags (sections 4, 6.6, 6.7).  This module implements the
classic Lampson careful-replicated-storage discipline over two
simulated disks:

* every record is written **first to mirror A, then to mirror B**, each
  copy carrying a version number and checksum;
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

import heapq
import struct
import zlib
from typing import Dict, Iterator, Optional, Tuple

from repro.analysis import monitor as _monitor
from repro.common.errors import (
    BadAddressError,
    DiskCrashedError,
    DiskError,
    StableKeyError,
)
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

    Both mirrors must have identical geometry.  A record takes the
    lowest free slot of the size it needs, whatever order slots were
    freed in, and a new slot past the last one only when none is free.
    :meth:`delete` writes a tombstone covering the whole slot, so a
    directory rebuild after a crash sees the deletion and frees the
    slot; :meth:`forget` writes nothing, for a record something durable
    already supersedes.

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
        self._versions: Dict[str, int] = {}
        self._next_sector = 0
        #: n_sectors -> min-heap of free slot starts: a put takes the
        #: lowest free slot of its size, whatever order slots were freed in.
        self._free: Dict[int, list[int]] = {}
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
        version = self._versions.get(key, 0) + 1
        # Claimed before the first copy: a torn write can leave this
        # version's header on a mirror, and the key's next put must
        # outrank it when the directory is rebuilt from the headers.
        self._versions[key] = version
        record = _head(_MAGIC, key, version, len(payload), zlib.crc32(payload))
        record += payload + bytes(-len(payload) % SECTOR_SIZE)
        self.mirror_a.write_sectors(slot[0], record)
        self.mirror_b.write_sectors(slot[0], record)
        # Only now that both copies landed are the superseded slots
        # safe to reuse; freeing one earlier would let a crash during
        # the move destroy the sole durable copy of the record.
        self._release(*self._older.pop(key, ()))
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
        """Remove ``key``; its slot is tombstoned on both mirrors and reused.

        The tombstone carries the key and the next version number, so a
        directory rebuild can arbitrate the delete crash window: if the
        tombstone tore on mirror A but landed on mirror B, the slot
        reads (A = stale live record, B = newer tombstone) and the
        higher version — the deletion — must win.  The version counter
        also survives deletion so a later re-put stays monotonic.
        """
        _monitor.active().key_write(
            self, key, name="directory", site="stable.delete"
        )
        slot = self._directory.pop(key, None)
        if slot is None:
            return
        version = self._versions.get(key, 0) + 1
        self._versions[key] = version
        tomb = _head(_TOMBSTONE, key, version, (slot[1] - 1) * SECTOR_SIZE, 0)
        errors: list[Exception] = []
        for mirror in (self.mirror_a, self.mirror_b):
            try:
                mirror.write_sectors(slot[0], tomb)
            except (DiskError, DiskCrashedError) as exc:
                errors.append(exc)
        if len(errors) == 2:
            # Careful writes tolerate losing ONE copy.  With neither
            # mirror holding the tombstone the deletion is not durable
            # — a directory rebuild would resurrect the live record —
            # so the caller must not be told it succeeded.
            self._directory[key] = slot
            raise errors[0]
        # The tombstone outranks the key's older copies too.
        self._release(slot, *self._older.pop(key, ()))

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
            self._release(slot, *self._older.pop(key, ()))

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

        For every key the directory knows, the copies are tried newest
        first — the directory slot, then the superseded ones — and the
        first that :meth:`_repair_slot` can heal is kept; every other
        slot is free again.  A key with no copy left to heal never
        completed its first careful write, and is dropped.  Falling
        back to an older copy and dropping a key each count as one
        repair.  Both mirrors must be online (repaired) before calling.
        """
        _monitor.active().write_all(self, name="directory", site="stable.recover")
        repaired = 0
        for key, newest in list(self._directory.items()):
            copies = [newest, *self._older.pop(key, ())]
            kept = healed = None
            for slot in copies:
                healed = self._repair_slot(key, *slot)
                if healed is not None:
                    kept = slot
                    break
            repaired += healed if kept == newest else 1
            self._release(*(slot for slot in copies if slot != kept))
            if kept is None:
                # Its version counter survives, as it does a delete.
                del self._directory[key]
            else:
                self._directory[key] = kept
        return repaired

    def _repair_slot(self, key: str, start: int, n_sectors: int) -> Optional[int]:
        """Repair one slot's mirror pair in place.

        Returns None when both copies are dead, 0 when the copies
        already agree, 1 when one copy was rewritten from the other.
        Raises the in-memory version counter to the surviving copy's so
        the next write stays version-monotonic, and never lowers it: a
        relocation that tore left its newer version's header behind.
        """
        copy_a, copy_b = self._copies(key, start, n_sectors)
        if copy_a is None and copy_b is None:
            return None
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
        self._versions[key] = max(self._versions.get(key, 0), good[0])
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
        and every sector where no header starts are free again.
        Returns the keys found.
        """
        _monitor.active().write_all(
            self, name="directory", site="stable.rebuild_directory"
        )
        self._directory.clear()
        self._versions.clear()
        self._free.clear()
        self._older.clear()
        copies: Dict[str, list[Tuple[int, Tuple[int, int]]]] = {}
        deleted: Dict[str, int] = {}  # key -> newest tombstone version
        sector = 0
        while sector < self._next_sector:
            entry = self._scan_slot(sector)
            if entry is None:
                # No header starts here: a first write that tore before
                # its header landed, or the tail of a slot that a
                # smaller record reused in place.
                self._release((sector, 1))
                sector += 1
                continue
            key, version, n_sectors, is_tombstone = entry
            if is_tombstone:
                deleted[key] = max(version, deleted.get(key, 0))
                self._release((sector, n_sectors))
            else:
                copies.setdefault(key, []).append((version, (sector, n_sectors)))
            sector += n_sectors
        # Remember a deletion's version so an older live copy cannot
        # win, and a later re-put stays version-monotonic.
        self._versions.update(deleted)
        for key, found in copies.items():
            # Newest first; a tie keeps scan order (the lower sector).
            found.sort(key=lambda copy: copy[0], reverse=True)
            tombstone = deleted.get(key, 0)
            live = [slot for version, slot in found if version > tombstone]
            self._release(*(slot for version, slot in found if version <= tombstone))
            if live:
                self._directory[key] = live[0]
                self._versions[key] = found[0][0]
            if len(live) > 1:
                self._older[key] = live[1:]
        return len(self._directory)

    # ------------------------------------------------------ internal

    def _slot_for(self, key: str, payload_len: int) -> Tuple[int, int]:
        needed = _sectors_for(payload_len)
        existing = self._directory.get(key)
        if existing is not None and existing[1] >= needed:
            return existing
        free_list = self._free.get(needed)
        if free_list:
            start = heapq.heappop(free_list)
        else:
            start = self._next_sector
            total = self.mirror_a.geometry.total_sectors
            if start + needed > total:
                raise BadAddressError("stable storage exhausted")
            self._next_sector = start + needed
        if existing is not None:
            # Relocation: the old slot stays allocated until the new
            # record is durable on both mirrors (put/recover free it).
            self._older.setdefault(key, []).insert(0, existing)
        slot = (start, needed)
        self._directory[key] = slot
        return slot

    def _release(self, *slots: Tuple[int, int]) -> None:
        """Return each ``slot`` (start, n_sectors) to its size's free heap."""
        for start, n_sectors in slots:
            heapq.heappush(self._free.setdefault(n_sectors, []), start)

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
        B, so the two copies can disagree after a crash.  When both
        headers decode for the *same* key, the higher version is the
        later write and wins — in particular a tombstone that tore on
        mirror A but reached mirror B must beat A's stale live record.
        For differing keys (a freed slot reused mid-put) the live
        record is preferred; either outcome is admissible there, since
        the interrupted put never completed both copies.
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
        if not candidates:
            return None
        if len(candidates) == 2 and candidates[0][0] == candidates[1][0]:
            return max(candidates, key=lambda entry: entry[1])
        live = [entry for entry in candidates if not entry[3]]
        return live[0] if live else candidates[0]
