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
_HEADER = struct.Struct("<4sQIIH")
_MAX_KEY = SECTOR_SIZE - _HEADER.size


class StableStore:
    """A careful-replicated record store over two mirror disks.

    Both mirrors must have identical geometry.  Slots are allocated
    sequentially; freeing writes a tombstone so a directory rebuild
    after a crash sees the deletion.
    """

    def __init__(self, mirror_a: SimDisk, mirror_b: SimDisk) -> None:
        if mirror_a.geometry != mirror_b.geometry:
            raise ValueError("stable-store mirrors must share a geometry")
        self.mirror_a = mirror_a
        self.mirror_b = mirror_b
        self._directory: Dict[str, Tuple[int, int]] = {}  # key -> (start, n_sectors)
        self._versions: Dict[str, int] = {}
        self._next_sector = 0
        self._free: Dict[int, list[int]] = {}  # n_sectors -> [start, ...]
        #: Keys mid-relocation: the pre-move slot, kept allocated (and
        #: durable) until the record completes both copies at its new
        #: home — recovery falls back to it if the move never lands.
        self._relocating: Dict[str, Tuple[int, int]] = {}

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
        record = self._encode(key, payload, version)
        self.mirror_a.write_sectors(slot[0], record)
        self.mirror_b.write_sectors(slot[0], record)
        # Only now that both copies landed is the pre-relocation slot
        # safe to reuse; freeing it earlier would let a crash during
        # the move destroy the sole durable copy of the record.
        old_slot = self._relocating.pop(key, None)
        if old_slot is not None:
            self._free.setdefault(old_slot[1], []).append(old_slot[0])
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
        tomb = self._encode_tombstone(key, version)
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
        self._free.setdefault(slot[1], []).append(slot[0])

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
            self._free.setdefault(slot[1], []).append(slot[0])

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

        For every slot the directory knows, the newer valid copy is
        rewritten over the stale or corrupt one.  Both mirrors must be
        online (repaired) before calling.
        """
        _monitor.active().write_all(self, name="directory", site="stable.recover")
        repaired = 0
        for key, (start, n_sectors) in list(self._directory.items()):
            old_slot = self._relocating.pop(key, None)
            healed = self._repair_slot(key, start, n_sectors)
            if healed is not None:
                if old_slot is not None:
                    # The move reached at least one mirror durably;
                    # the pre-move slot is finally safe to reuse.
                    self._free.setdefault(old_slot[1], []).append(old_slot[0])
                repaired += healed
                continue
            if old_slot is not None:
                fallback = self._repair_slot(key, old_slot[0], old_slot[1])
                if fallback is not None:
                    # The relocated copy never became durable: fall
                    # back to the intact pre-move record.
                    self._directory[key] = old_slot
                    self._free.setdefault(n_sectors, []).append(start)
                    repaired += 1
                    continue
            # Both copies dead and no pre-move slot to fall back to:
            # the record was being created when the crash hit; it
            # never existed durably.  Its version counter survives, as
            # it does a delete (see put).
            del self._directory[key]
            repaired += 1
        return repaired

    def _repair_slot(self, key: str, start: int, n_sectors: int) -> Optional[int]:
        """Repair one slot's mirror pair in place.

        Returns None when both copies are dead, 0 when the copies
        already agree, 1 when one copy was rewritten from the other.
        Syncs the in-memory version counter to the surviving copy so
        the next write stays version-monotonic.
        """
        copy_a = self._try_read(self.mirror_a, start, n_sectors)
        copy_b = self._try_read(self.mirror_b, start, n_sectors)
        ok_a = copy_a is not None and copy_a[0] == key
        ok_b = copy_b is not None and copy_b[0] == key
        if not ok_a and not ok_b:
            return None
        if ok_a and ok_b and copy_a[1] == copy_b[1]:
            self._versions[key] = copy_a[1]
            return 0
        if ok_a and (not ok_b or copy_a[1] > copy_b[1]):
            source, target, good = self.mirror_a, self.mirror_b, copy_a
        else:
            source, target, good = self.mirror_b, self.mirror_a, copy_b
        record = source.read_sectors(start, n_sectors)
        target.write_sectors(start, record)
        self._versions[key] = good[1]
        return 1

    def verify_mirrors(self) -> list[str]:
        """Check the careful-write invariant: both mirrors agree.

        For every key the directory knows, both copies must decode,
        carry the same version, and hold identical payloads.  Returns a
        list of human-readable violations (empty = invariant holds);
        the chaos harness runs this after every recovery.
        """
        violations: list[str] = []
        for key, (start, n_sectors) in self._directory.items():
            copy_a = self._try_read(self.mirror_a, start, n_sectors)
            copy_b = self._try_read(self.mirror_b, start, n_sectors)
            if copy_a is None or copy_a[0] != key:
                violations.append(f"stable {key!r}: mirror A copy unreadable")
                continue
            if copy_b is None or copy_b[0] != key:
                violations.append(f"stable {key!r}: mirror B copy unreadable")
                continue
            if copy_a[1] != copy_b[1]:
                violations.append(
                    f"stable {key!r}: version skew (A v{copy_a[1]}, B v{copy_b[1]})"
                )
            elif copy_a[2] != copy_b[2]:
                violations.append(
                    f"stable {key!r}: same version {copy_a[1]} but payloads differ"
                )
        return violations

    def rebuild_directory(self) -> int:
        """Rebuild the in-memory directory by scanning mirror headers.

        Used when the machine holding the in-memory state crashed; the
        mirrors themselves are the authority.  Returns records found.
        """
        _monitor.active().write_all(
            self, name="directory", site="stable.rebuild_directory"
        )
        self._directory.clear()
        self._versions.clear()
        self._free.clear()
        self._relocating.clear()
        sector = 0
        found = 0
        while sector < self._next_sector:
            entry = self._scan_slot(sector)
            if entry is None:
                sector += 1
                continue
            key, version, n_sectors, is_tombstone = entry
            current = self._versions.get(key)
            if not is_tombstone:
                if current is None or version > current:
                    self._directory[key] = (sector, n_sectors)
                    self._versions[key] = version
                    found += 1
            else:
                # Remember the deletion's version so a slot elsewhere
                # holding a stale (older) copy of the key cannot win,
                # and a later re-put stays version-monotonic.
                if key and (current is None or version > current):
                    self._directory.pop(key, None)
                    self._versions[key] = version
                self._free.setdefault(1, []).append(sector)
            sector += n_sectors
        return found

    # ------------------------------------------------------ internal

    def _slot_for(self, key: str, payload_len: int) -> Tuple[int, int]:
        needed = 1 + -(-payload_len // SECTOR_SIZE) if payload_len else 1
        existing = self._directory.get(key)
        if existing is not None and existing[1] >= needed:
            return existing
        if existing is not None:
            # Relocation: keep the old slot allocated until the new
            # record is durable on both mirrors (put/recover free it).
            self._relocating[key] = existing
        free_list = self._free.get(needed)
        if free_list:
            start = free_list.pop()
        else:
            start = self._next_sector
            total = self.mirror_a.geometry.total_sectors
            if start + needed > total:
                raise BadAddressError("stable storage exhausted")
            self._next_sector = start + needed
        slot = (start, needed)
        self._directory[key] = slot
        return slot

    @staticmethod
    def _encode(key: str, payload: bytes, version: int) -> bytes:
        key_bytes = key.encode("utf-8")
        if len(key_bytes) > _MAX_KEY:
            raise ValueError(f"stable-storage key too long: {key!r}")
        header = _HEADER.pack(
            _MAGIC, version, len(payload), zlib.crc32(payload), len(key_bytes)
        )
        first = header + key_bytes
        first += bytes(SECTOR_SIZE - len(first))
        padded_len = -(-len(payload) // SECTOR_SIZE) * SECTOR_SIZE if payload else 0
        return first + payload + bytes(padded_len - len(payload))

    @staticmethod
    def _encode_tombstone(key: str, version: int) -> bytes:
        key_bytes = key.encode("utf-8")
        header = _HEADER.pack(_TOMBSTONE, version, 0, 0, len(key_bytes))
        record = header + key_bytes
        return record + bytes(SECTOR_SIZE - len(record))

    @staticmethod
    def _decode(record: bytes) -> Optional[Tuple[str, int, bytes]]:
        if len(record) < SECTOR_SIZE:
            return None
        magic, version, payload_len, crc, key_len = _HEADER.unpack_from(record)
        if magic != _MAGIC or key_len > _MAX_KEY:
            return None
        key_start = _HEADER.size
        key = record[key_start : key_start + key_len].decode("utf-8", "replace")
        payload = record[SECTOR_SIZE : SECTOR_SIZE + payload_len]
        if len(payload) != payload_len or zlib.crc32(payload) != crc:
            return None
        return key, version, payload

    def _try_read(
        self, mirror: SimDisk, start: int, n_sectors: int
    ) -> Optional[Tuple[str, int, bytes]]:
        try:
            record = mirror.read_sectors(start, n_sectors)
        except (DiskError, DiskCrashedError):
            return None
        decoded = self._decode(record)
        if decoded is None:
            return None
        return decoded

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
                head = mirror.read_sectors(sector, 1)
            except (DiskError, DiskCrashedError):
                continue
            magic = head[:4]
            if magic not in (_MAGIC, _TOMBSTONE):
                continue
            _, version, payload_len, crc, key_len = _HEADER.unpack_from(head)
            if key_len > _MAX_KEY:
                continue
            is_tombstone = magic == _TOMBSTONE
            n_sectors = (
                1 if is_tombstone or not payload_len
                else 1 + -(-payload_len // SECTOR_SIZE)
            )
            key = head[_HEADER.size : _HEADER.size + key_len].decode(
                "utf-8", "replace"
            )
            candidates.append((key, version, n_sectors, is_tombstone))
        if not candidates:
            return None
        if len(candidates) == 2 and candidates[0][0] == candidates[1][0]:
            return max(candidates, key=lambda entry: entry[1])
        live = [entry for entry in candidates if not entry[3]]
        return live[0] if live else candidates[0]
