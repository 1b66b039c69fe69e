"""The 64x64 free-extent array.

Paper section 4: "the disk server also maintains a two dimensional
array of the order of 64 rows and 64 columns for the maintenance of
free spaces in the disk ... The first row stores the references to
single free fragments available on the disk.  Each element of the
second row is a reference to a group of two contiguous free fragments
... and so on.  The objective of this array is to check quickly whether
a requested number of contiguous fragments or blocks are available or
not."

Row *r* (1-based) holds references (start fragment numbers) to free
runs of exactly *r* contiguous fragments; the last row holds runs of
*at least* ``rows`` fragments (their exact length is read back from the
bitmap, which is authoritative).  Each row holds at most ``columns``
references — overflowing runs are simply not indexed and are found
again by a bitmap rescan (:meth:`refill`) when the table runs dry.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis import monitor as _monitor
from repro.disk_service.addresses import Extent
from repro.disk_service.bitmap import FragmentBitmap


class FreeExtentTable:
    """Constant-time index of free runs by length.

    The table is a cache over the bitmap: every entry must correspond
    to a maximal free run in the bitmap, but not every free run need be
    in the table (rows have bounded capacity).  :meth:`check_against`
    verifies the invariant and is used by the property tests.
    """

    def __init__(self, rows: int = 64, columns: int = 64) -> None:
        if rows < 1 or columns < 1:
            raise ValueError("table dimensions must be positive")
        self.rows = rows
        self.columns = columns
        self._rows: List[List[int]] = [[] for _ in range(rows)]
        self._row_of: Dict[int, int] = {}  # run start -> row index holding it

    # ------------------------------------------------------ indexing

    def _row_index(self, run_length: int) -> int:
        """Row that indexes runs of ``run_length`` fragments."""
        return min(run_length, self.rows) - 1

    def insert_run(self, start: int, run_length: int) -> bool:
        """Index a maximal free run; returns False if its row is full."""
        if run_length < 1:
            raise ValueError("run length must be >= 1")
        _monitor.active().write(self, start, site="extent_table.insert_run")
        if start in self._row_of:
            self.remove_run(start)
        row = self._row_index(run_length)
        if len(self._rows[row]) >= self.columns:
            return False
        self._rows[row].append(start)
        self._row_of[start] = row
        return True

    def remove_run(self, start: int) -> bool:
        """Drop the entry whose run begins at ``start`` (if indexed)."""
        _monitor.active().write(self, start, site="extent_table.remove_run")
        row = self._row_of.pop(start, None)
        if row is None:
            return False
        self._rows[row].remove(start)
        return True

    # ---------------------------------------------------- allocation

    def take_run(
        self,
        n_fragments: int,
        bitmap: FragmentBitmap,
        *,
        prefer_high: bool = False,
    ) -> Optional[Extent]:
        """Pop the best-fitting indexed run of >= ``n_fragments``.

        Scans rows from the exact-fit row upward (the paper's quick
        check), preferring the smallest adequate run so large runs
        survive for large requests.  The popped run is returned whole
        (its maximal extent per the bitmap); the caller allocates a
        prefix and re-inserts the remainder.  Returns None if the table
        has no adequate entry — the caller then refills from the bitmap
        and retries.

        ``prefer_high`` picks the highest-addressed adequate run instead
        of the first: used for scratch allocations (tentative data
        items, shadow pages) so they stay away from the low-address
        region where files grow contiguously.
        """
        if n_fragments < 1:
            raise ValueError("must request at least one fragment")
        _monitor.active().read_all(self, site="extent_table.take_run")
        first_row = self._row_index(n_fragments)
        for row in range(first_row, self.rows):
            entries = self._rows[row]
            if not entries:
                continue
            if row == self.rows - 1 and n_fragments >= self.rows:
                # Oversize request: entries here are ">= rows" long; take
                # the first (prefer_high: highest-addressed) one that is
                # actually long enough, measuring each at most once.
                for start in (
                    sorted(entries, reverse=True) if prefer_high else entries
                ):
                    true_length = bitmap.run_length_at(start)
                    if true_length >= n_fragments:
                        self.remove_run(start)
                        return Extent(start, true_length)
                continue
            start = max(entries) if prefer_high else entries[0]
            self.remove_run(start)
            true_length = bitmap.run_length_at(start)
            if true_length < n_fragments:
                # Stale entry (should not happen if callers maintain the
                # table); re-index at its true length and keep looking.
                if true_length > 0:
                    self.insert_run(start, true_length)
                continue
            return Extent(start, true_length)
        return None

    def has_run(self, n_fragments: int) -> bool:
        """The paper's quick availability check: any indexed run adequate?"""
        _monitor.active().read_all(self, site="extent_table.has_run")
        first_row = self._row_index(n_fragments)
        return any(self._rows[row] for row in range(first_row, self.rows))

    # -------------------------------------------------------- refill

    def refill(self, bitmap: FragmentBitmap) -> int:
        """Rebuild the table by scanning the bitmap; returns runs indexed."""
        self.clear()
        indexed = 0
        for run in bitmap.free_runs():
            if self.insert_run(run.start, run.length):
                indexed += 1
        return indexed

    def clear(self) -> None:
        _monitor.active().write_all(self, site="extent_table.clear")
        for row in self._rows:
            row.clear()
        self._row_of.clear()

    # ------------------------------------------------------- checks

    def entry_count(self) -> int:
        return len(self._row_of)

    def row_sizes(self) -> List[int]:
        return [len(row) for row in self._rows]

    def check_against(self, bitmap: FragmentBitmap) -> None:
        """Assert every entry matches a maximal free run in the bitmap.

        Raises AssertionError on violation; used by tests.
        """
        for start, row in self._row_of.items():
            true_length = bitmap.run_length_at(start)
            assert true_length > 0, f"table entry {start} is not free in bitmap"
            assert start == 0 or not bitmap.is_free(start - 1), (
                f"table entry {start} is not the start of a maximal run"
            )
            expected_row = self._row_index(true_length)
            assert row == expected_row, (
                f"run at {start} has length {true_length} but sits in row "
                f"{row + 1} (expected row {expected_row + 1})"
            )

    def __repr__(self) -> str:
        populated = sum(1 for row in self._rows if row)
        return (
            f"FreeExtentTable({self.rows}x{self.columns}, "
            f"{self.entry_count()} runs in {populated} rows)"
        )
