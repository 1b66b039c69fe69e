"""Lock modes, data items, and the Table 1 compatibility function."""

import pytest

from repro.common.ids import SystemName
from repro.file_service.attributes import LockingLevel
from repro.transactions.locks import (
    DataItem,
    FILE_RANGE_END,
    LockMode,
    file_item,
    locks_compatible,
    page_item,
    record_item,
)

NAME = SystemName(0, 10, 1)
OTHER = SystemName(0, 20, 1)


class TestTable1:
    """The compatibility half of Table 1 (same-transaction conversions
    are the lock manager's job and tested there)."""

    def test_ro_shares_with_ro(self):
        assert locks_compatible(LockMode.RO, LockMode.RO)

    def test_ro_admits_an_iread(self):
        assert locks_compatible(LockMode.RO, LockMode.IR)

    def test_ro_blocks_iwrite(self):
        assert not locks_compatible(LockMode.RO, LockMode.IW)

    def test_iread_blocks_new_read_only(self):
        """'Once a data item is locked with an Iread lock, no transaction
        is allowed to set a new read-only lock' (section 6.3)."""
        assert not locks_compatible(LockMode.IR, LockMode.RO)

    def test_iread_blocks_iread(self):
        assert not locks_compatible(LockMode.IR, LockMode.IR)

    def test_iread_blocks_iwrite(self):
        assert not locks_compatible(LockMode.IR, LockMode.IW)

    def test_iwrite_blocks_everything(self):
        for requested in LockMode:
            assert not locks_compatible(LockMode.IW, requested)


class TestDataItems:
    def test_record_items_conflict_on_overlap(self):
        a = record_item(NAME, 0, 100)
        b = record_item(NAME, 50, 100)
        c = record_item(NAME, 100, 10)
        assert a.conflicts_with(b)
        assert not a.conflicts_with(c)  # [0,100) vs [100,110): disjoint

    def test_different_files_never_conflict(self):
        assert not record_item(NAME, 0, 10).conflicts_with(
            record_item(OTHER, 0, 10)
        )

    def test_levels_conflict_where_bytes_overlap(self):
        """A record and the page holding it denote the same bytes; the
        granularity plays no part (section 6.1's deferred relaxation)."""
        page = page_item(NAME, 0, 8192)
        assert record_item(NAME, 100, 8).conflicts_with(page)
        assert page.conflicts_with(record_item(NAME, 100, 8))
        assert file_item(NAME).conflicts_with(page)
        assert not record_item(NAME, 8192, 8).conflicts_with(page)

    def test_file_item_conflicts_with_itself(self):
        assert file_item(NAME).conflicts_with(file_item(NAME))
        assert file_item(NAME).hi == FILE_RANGE_END

    def test_page_item_ranges(self):
        item = page_item(NAME, 3, 8192)
        assert item.lo == 3 * 8192
        assert item.hi == 4 * 8192
        assert item.level is LockingLevel.PAGE

    def test_byte_granularity_records(self):
        """'The granularity of a record ... can be as fine as a single
        byte' (section 6.7)."""
        one_byte = record_item(NAME, 500, 1)
        assert one_byte.conflicts_with(record_item(NAME, 500, 1))
        assert not one_byte.conflicts_with(record_item(NAME, 501, 1))

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            DataItem(NAME, LockingLevel.RECORD, 10, 10)

    def test_items_hashable(self):
        assert len({record_item(NAME, 0, 5), record_item(NAME, 0, 5)}) == 1
