"""Transaction state: phases, status, tentative data items.

Paper section 6.2: every transaction proceeds through two phases —
**locking** (growing: new locks acquired, changes recorded in isolated
*tentative data items* invisible to other transactions) and
**unlocking** (shrinking: entered at commit/abort; locks are only
released after the changes are made permanent).  Section 6.7: a
tentative data item is represented by a page or pages in page/file
mode and by fragments or blocks in record mode.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.ids import SystemName
from repro.disk_service.addresses import Extent
from repro.file_service.attributes import LockingLevel
from repro.naming.attributed import AttributedName
from repro.transactions.locks import DataItem


class TransactionPhase(enum.Enum):
    """The two phases of two-phase locking."""

    LOCKING = "locking"  # growing: may acquire, may not release
    UNLOCKING = "unlocking"  # shrinking: may release, may not acquire


class TransactionStatus(enum.Enum):
    """The intention flag's states (paper section 6.7)."""

    TENTATIVE = "tentative"
    COMMITTED = "commit"
    ABORTED = "abort"


@dataclass
class TentativeItem:
    """One isolated copy of a data item, private to its transaction.

    ``data`` is the item's tentative content for ``[item.lo, item.hi)``
    (for file-level items, ``hi`` is clamped to the tentative file
    size).  ``extent`` is the disk space holding the after-image once
    the item has been prepared for commit; ``volume_id`` says which
    disk server allocated it.
    """

    item: DataItem
    data: bytes
    sequence: int
    extent: Optional[Extent] = None
    volume_id: int = -1

    @property
    def lo(self) -> int:
        return self.item.lo


@dataclass
class TxnOpenFile:
    """Per-descriptor state inside one transaction."""

    name: SystemName
    position: int = 0
    level: LockingLevel = LockingLevel.PAGE


@dataclass
class Transaction:
    """Everything the service knows about one transaction.

    Transactions may be *nested* (the paper acknowledges nested
    transactions in section 6.4): a child shares its ancestors' locks,
    sees their tentative data, and on commit merges its own tentative
    items and locks into its parent — only the top-level commit touches
    the disk.  A child abort discards only the child's work.
    """

    tid: int
    machine_id: str
    process_id: int
    phase: TransactionPhase = TransactionPhase.LOCKING
    status: TransactionStatus = TransactionStatus.TENTATIVE
    abort_reason: str = ""
    started_at_us: int = 0
    parent: Optional["Transaction"] = None
    children: List["Transaction"] = field(default_factory=list)
    open_files: Dict[int, TxnOpenFile] = field(default_factory=dict)
    #: Page/file-mode tentative items, merged per data item.
    tentative_map: Dict[DataItem, TentativeItem] = field(default_factory=dict)
    #: Record-mode tentative items, in write order (later overlays earlier).
    tentative_records: List[TentativeItem] = field(default_factory=list)
    #: Tentative file sizes (files whose size this transaction changes).
    tentative_sizes: Dict[SystemName, int] = field(default_factory=dict)
    #: Files created inside the transaction (deleted again on abort).
    created_files: List[Tuple[AttributedName, SystemName]] = field(
        default_factory=list
    )
    #: Files tdelete()d inside the transaction (removed at commit).
    deleted_files: List[Tuple[AttributedName, SystemName]] = field(
        default_factory=list
    )
    _sequence: int = 0

    # ------------------------------------------------------- queries

    @property
    def is_live(self) -> bool:
        return self.status is TransactionStatus.TENTATIVE

    def ancestry(self) -> List["Transaction"]:
        """Root-first chain of ancestors ending with this transaction."""
        chain: List[Transaction] = []
        node: Optional[Transaction] = self
        while node is not None:
            chain.append(node)
            node = node.parent
        chain.reverse()
        return chain

    def is_ancestor_or_self(self, other: "Transaction") -> bool:
        """True if ``other`` is this transaction or one of its ancestors."""
        node: Optional[Transaction] = self
        while node is not None:
            if node.tid == other.tid:
                return True
            node = node.parent
        return False

    def next_sequence(self) -> int:
        self._sequence += 1
        return self._sequence

    def all_tentative_items(self) -> List[TentativeItem]:
        """Every tentative item in application (sequence) order."""
        items = list(self.tentative_map.values()) + list(self.tentative_records)
        items.sort(key=lambda entry: entry.sequence)
        return items

    def tentative_for_file(self, name: SystemName) -> List[TentativeItem]:
        return [
            entry for entry in self.all_tentative_items() if entry.item.name == name
        ]

    def overlay(self, name: SystemName, offset: int, data: bytes) -> bytes:
        """Apply this transaction's tentative writes on top of ``data``.

        ``data`` is the committed content of ``[offset, offset+len)``;
        the result is what this transaction must observe there
        (read-your-writes isolation).
        """
        if not self.tentative_map and not self.tentative_records:
            return data
        buffer = bytearray(data)
        end = offset + len(buffer)
        for entry in self.tentative_for_file(name):
            lo = max(entry.item.lo, offset)
            hi = min(entry.item.lo + len(entry.data), end)
            if lo >= hi:
                continue
            source_lo = lo - entry.item.lo
            buffer[lo - offset : hi - offset] = entry.data[
                source_lo : source_lo + (hi - lo)
            ]
        return bytes(buffer)
