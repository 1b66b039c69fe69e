"""The paper's 64x64 free-extent array."""

import pytest

from repro.disk_service.addresses import Extent
from repro.disk_service.bitmap import FragmentBitmap
from repro.disk_service.extent_table import FreeExtentTable


@pytest.fixture
def bitmap():
    return FragmentBitmap(1024)


@pytest.fixture
def table():
    return FreeExtentTable()


class TestShape:
    def test_default_is_64_by_64(self, table):
        """Paper section 4: 'of the order of 64 rows and 64 columns'."""
        assert table.rows == 64
        assert table.columns == 64

    def test_row_semantics(self, table):
        """Row r indexes runs of exactly r fragments (1-based)."""
        assert table._row_index(1) == 0
        assert table._row_index(2) == 1
        assert table._row_index(64) == 63
        assert table._row_index(1000) == 63  # last row: >= rows

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            FreeExtentTable(rows=0)


class TestInsertRemove:
    def test_insert_and_take(self, table, bitmap):
        bitmap.mark_allocated(Extent(0, 1024))
        bitmap.mark_free(Extent(100, 5))
        table.insert_run(100, 5)
        run = table.take_run(5, bitmap)
        assert run == Extent(100, 5)
        assert table.entry_count() == 0

    def test_row_capacity_bounded(self):
        table = FreeExtentTable(rows=4, columns=2)
        assert table.insert_run(0, 1)
        assert table.insert_run(10, 1)
        assert not table.insert_run(20, 1)  # column overflow: not indexed
        assert table.entry_count() == 2

    def test_reinsert_moves_rows(self, table):
        table.insert_run(50, 3)
        table.insert_run(50, 7)  # run grew (coalesced)
        assert table.row_sizes()[2] == 0
        assert table.row_sizes()[6] == 1

    def test_remove(self, table):
        table.insert_run(5, 2)
        assert table.remove_run(5)
        assert not table.remove_run(5)
        assert table.entry_count() == 0


class TestAllocationPolicy:
    def test_exact_fit_preferred(self, table, bitmap):
        bitmap.mark_allocated(Extent(0, 1024))
        for start, length in [(0, 8), (100, 4), (200, 16)]:
            bitmap.mark_free(Extent(start, length))
            table.insert_run(start, length)
        run = table.take_run(4, bitmap)
        assert run == Extent(100, 4)

    def test_smallest_adequate_when_no_exact_fit(self, table, bitmap):
        bitmap.mark_allocated(Extent(0, 1024))
        for start, length in [(0, 8), (200, 16)]:
            bitmap.mark_free(Extent(start, length))
            table.insert_run(start, length)
        run = table.take_run(5, bitmap)
        assert run == Extent(0, 8)

    def test_oversize_requests_use_last_row(self, bitmap):
        table = FreeExtentTable(rows=8, columns=8)
        bitmap.mark_allocated(Extent(0, 1024))
        bitmap.mark_free(Extent(0, 100))
        bitmap.mark_free(Extent(500, 300))
        table.insert_run(0, 100)
        table.insert_run(500, 300)
        run = table.take_run(200, bitmap)
        assert run == Extent(500, 300)

    def test_none_when_no_adequate_run(self, table, bitmap):
        bitmap.mark_allocated(Extent(0, 1024))
        bitmap.mark_free(Extent(0, 3))
        table.insert_run(0, 3)
        assert table.take_run(10, bitmap) is None

    def test_has_run_quick_check(self, table):
        """The array's stated objective: 'to check quickly whether a
        requested number of contiguous fragments ... are available'."""
        table.insert_run(0, 10)
        assert table.has_run(10)
        assert table.has_run(1)
        assert not table.has_run(11)


class TestRefill:
    def test_refill_scans_bitmap(self, table, bitmap):
        """Paper: initialisation and updating are done by scanning the
        bitmap."""
        bitmap.mark_allocated(Extent(0, 1024))
        bitmap.mark_free(Extent(10, 4))
        bitmap.mark_free(Extent(50, 6))
        indexed = table.refill(bitmap)
        assert indexed == 2
        table.check_against(bitmap)

    def test_check_against_catches_stale_entries(self, table, bitmap):
        bitmap.mark_allocated(Extent(0, 1024))
        bitmap.mark_free(Extent(10, 4))
        table.insert_run(10, 4)
        bitmap.mark_allocated(Extent(10, 4))  # table now stale
        with pytest.raises(AssertionError):
            table.check_against(bitmap)
