"""Lock modes, data items, and Table 1 compatibility.

Paper section 6.3: the locks are **read-only (RO)**, **Iread (IR)**
and **Iwrite (IW)**.

* RO — set to perform a query; shareable with other ROs and with a
  single IR.
* IR — set when reading a data item *in order to modify it*; grantable
  when the item is free or only RO-locked.  Once an IR is in place no
  *new* RO may be set (this prevents the permanent blocking the paper
  describes), and at most one IR exists per item (sharing IR would
  force mass aborts when the modifier commits).
* IW — exclusive; grantable only when the item is not locked by any
  *other* transaction.  A transaction holding IR (or RO) on the item
  may convert its own lock to IW.

Data items come in the three granularities of section 6.1: a record
(an arbitrary byte range — "as fine as a single byte or as coarse as
an entire file"), a page, or the complete file.  Two items conflict
when they denote overlapping bytes of the same file, whatever their
granularities: section 6.1 assumes concurrent transactions lock a file
at one level and defers relaxing that, but the facility itself locks a
``DEFAULT`` file at page level and later at record level (section 7),
and ``topen`` may override the level per open.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.ids import SystemName
from repro.file_service.attributes import LockingLevel


class LockMode(enum.Enum):
    """The three lock modes of Table 1."""

    RO = "read-only"
    IR = "Iread"
    IW = "Iwrite"


def locks_compatible(held: LockMode, requested: LockMode) -> bool:
    """Table 1 for locks held by *other* transactions.

    Same-transaction requests never consult this function — they are
    conversions, handled by the lock manager.
    """
    if held is LockMode.RO:
        # RO shares with new ROs and with an IR.
        return requested in (LockMode.RO, LockMode.IR)
    # IR admits no new locks at all: no RO (the anti-starvation rule)
    # and no second IR (the single-IR rule).  IW admits nothing.
    return False


@dataclass(frozen=True, slots=True)
class DataItem:
    """The lockable unit: a byte range of one file at one granularity.

    ``lo``/``hi`` delimit the byte range [lo, hi): for PAGE items this
    is the page's range, for FILE items the whole representable range,
    for RECORD items exactly the record's bytes.
    """

    name: SystemName
    level: LockingLevel
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 0 or self.hi <= self.lo:
            raise ValueError(f"bad data-item range [{self.lo}, {self.hi})")

    def conflicts_with(self, other: "DataItem") -> bool:
        """True when the two items denote overlapping bytes of one file.

        The granularity plays no part: a record and the page containing
        it denote the same bytes.
        """
        return (
            self.name == other.name
            and self.lo < other.hi
            and other.lo < self.hi
        )

    def __str__(self) -> str:
        return (
            f"{self.name}:{self.level.name.lower()}[{self.lo}:{self.hi}]"
        )


#: Whole-file data items use this as their exclusive upper bound.
FILE_RANGE_END = 2**62


def file_item(name: SystemName) -> DataItem:
    """The data item for file-level locking."""
    return DataItem(name, LockingLevel.FILE, 0, FILE_RANGE_END)


def page_item(name: SystemName, page_index: int, page_size: int) -> DataItem:
    """The data item for one page under page-level locking."""
    lo = page_index * page_size
    return DataItem(name, LockingLevel.PAGE, lo, lo + page_size)


def record_item(name: SystemName, offset: int, length: int) -> DataItem:
    """The data item for a byte-range record under record-level locking."""
    return DataItem(name, LockingLevel.RECORD, offset, offset + length)
