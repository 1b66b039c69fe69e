"""A record log on stable storage: one base plus one tail of deltas.

A vital structure that changes a little at a time should not be
rewritten whole at every change (paper section 4 asks only that it be
on stable storage).  :class:`RecordLog` keeps it as two careful-write
records of a :class:`~repro.simdisk.stable.StableStore`:

* the **base** (key ``name``): a full image of the structure, stamped
  with an *epoch* that :meth:`RecordLog.checkpoint` increments;
* the **tail** (key ``name.tail``): the deltas appended since that
  base, stamped with the base's epoch.  It is a fixed-size record
  (:data:`TAIL_BYTES`), so every append rewrites it in place, and an
  append that would overflow it is refused: the owner then writes a
  new base instead (a *rebase*).

A rebase writes only the base.  The tail left on disk then carries the
previous epoch, and :meth:`RecordLog.load` ignores a tail older than
its base: its deltas are already folded in.  So a crash anywhere in a
rebase recovers to exactly the old base plus its tail (the new base
never completed a copy) or exactly the new base (it did), and a crash
in an append recovers to the tail before it or the tail after it.  A
tail *newer* than its base, or a tail with no base at all, cannot come
from any interrupted write: :meth:`RecordLog.load` raises
:class:`~repro.common.errors.DiskError` rather than read it as an empty
structure.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from repro.common.errors import DiskError, StableKeyError
from repro.common.units import SECTOR_SIZE
from repro.simdisk.stable import StableStore

#: Payload bytes of the tail record: with the stable store's header
#: sector it is 3 sectors on each mirror.
TAIL_BYTES = 2 * SECTOR_SIZE

# base payload: epoch Q | image
_EPOCH = struct.Struct("<Q")
# tail payload: epoch Q | bytes of deltas used H | deltas | zero padding
_TAIL_HEADER = struct.Struct("<QH")
# one delta: length H | bytes
_DELTA_LENGTH = struct.Struct("<H")


class RecordLog:
    """A base image plus an epoch-stamped tail of deltas, under ``name``.

    The in-memory state mirrors what is durable: the epoch of the last
    base written or loaded (0: none) and the deltas of its tail.
    """

    def __init__(self, store: StableStore, name: str) -> None:
        self.store = store
        self.base_key = name
        self.tail_key = f"{name}.tail"
        #: Deliberately broken recovery for the crash sweep to catch:
        #: :meth:`load` applies a tail whatever its epoch.
        self.unsafe_ignore_epochs = False
        self._epoch = 0
        self._tail = b""

    @property
    def has_base(self) -> bool:
        """Whether a base is durable (a new structure has none)."""
        return self._epoch > 0

    def checkpoint(self, base: bytes) -> None:
        """Write ``base`` as the new base; the durable tail goes stale."""
        epoch = self._epoch + 1
        self.store.put(self.base_key, _EPOCH.pack(epoch) + base)
        self._epoch = epoch
        self._tail = b""

    def append(self, delta: bytes) -> bool:
        """Durably add ``delta`` to the tail; False (and no write) if full.

        A refused append leaves the owner to :meth:`checkpoint` the
        structure whole, which folds the delta into the new base.
        """
        if not self.has_base:
            raise DiskError(f"{self.base_key}: append before the first base")
        size = _TAIL_HEADER.size + len(self._tail) + _DELTA_LENGTH.size
        if size + len(delta) > TAIL_BYTES:
            return False
        tail = self._tail + _DELTA_LENGTH.pack(len(delta)) + delta
        record = _TAIL_HEADER.pack(self._epoch, len(tail)) + tail
        self.store.put(self.tail_key, record + bytes(TAIL_BYTES - len(record)))
        self._tail = tail
        return True

    def load(self) -> Tuple[bytes, List[bytes]]:
        """The durable base and the deltas to apply to it, oldest first.

        Raises :class:`~repro.common.errors.StableKeyError` when neither
        record exists (the structure was never written) and
        :class:`~repro.common.errors.DiskError` for a tail with no base
        or one newer than its base.
        """
        if self.base_key not in self.store:
            if self.tail_key in self.store:
                raise DiskError(f"{self.tail_key}: a tail with no base")
            self._epoch, self._tail = 0, b""
            raise StableKeyError(self.base_key)
        blob = self.store.get(self.base_key)
        (epoch,) = _EPOCH.unpack_from(blob)
        tail = b""
        if self.tail_key in self.store:
            record = self.store.get(self.tail_key)
            tail_epoch, used = _TAIL_HEADER.unpack_from(record)
            if tail_epoch > epoch:
                raise DiskError(
                    f"{self.tail_key}: epoch {tail_epoch} is ahead of its "
                    f"base's {epoch}"
                )
            if tail_epoch == epoch or self.unsafe_ignore_epochs:
                tail = record[_TAIL_HEADER.size : _TAIL_HEADER.size + used]
        self._epoch, self._tail = epoch, tail
        return blob[_EPOCH.size :], _split(tail)


def _split(tail: bytes) -> List[bytes]:
    deltas = []
    offset = 0
    while offset < len(tail):
        (length,) = _DELTA_LENGTH.unpack_from(tail, offset)
        offset += _DELTA_LENGTH.size
        deltas.append(tail[offset : offset + length])
        offset += length
    return deltas
