"""E4 — the 64x64 free-extent array: "the use of this array not only
improves the performance but also improves the storage utilization"
(section 4).

An allocate/free churn workload runs against (a) the real disk server
(bitmap + extent array) and (b) a baseline allocator that scans the
bitmap first-fit on every request — what a server without the array
would do.  Expected shape: same allocation decisions availability-wise,
but the array answers requests without scanning, so bitmap-scan work
(measured in fragments examined) collapses.
"""

import random

from _helpers import build_disk_server, print_table
from repro.common.errors import DiskFullError
from repro.disk_service.addresses import Extent
from repro.disk_service.bitmap import FragmentBitmap
from repro.simdisk.geometry import DiskGeometry

N_OPS = 3000


def churn_schedule(seed=0):
    rng = random.Random(seed)
    schedule = []
    for _ in range(N_OPS):
        if rng.random() < 0.55:
            schedule.append(("alloc", rng.randint(1, 32)))
        else:
            schedule.append(("free", rng.randint(0, 10**9)))
    return schedule


def run_with_extent_table():
    server = build_disk_server(geometry=DiskGeometry.small())
    live = []
    allocations = failures = 0
    for op, value in churn_schedule():
        if op == "alloc":
            try:
                live.append(server.allocate(value))
                allocations += 1
            except DiskFullError:
                failures += 1
        elif live:
            server.free(live.pop(value % len(live)))
    return {
        "allocations": allocations,
        "failures": failures,
        "refills": server.metrics.get("disk_server.0.table_refills"),
        "free_fragments": server.free_fragments,
    }


class _ScanOnlyAllocator:
    """Baseline: first-fit bitmap scan per request, no extent index."""

    def __init__(self, n_fragments):
        self.bitmap = FragmentBitmap(n_fragments)
        self.fragments_examined = 0

    def allocate(self, n):
        position = 0
        while position < self.bitmap.n_fragments:
            run_length = self.bitmap.run_length_at(position)
            self.fragments_examined += max(1, run_length)
            if run_length >= n:
                extent = Extent(position, n)
                self.bitmap.mark_allocated(extent)
                return extent
            position += max(1, run_length)
            while position < self.bitmap.n_fragments and not self.bitmap.is_free(
                position
            ):
                self.fragments_examined += 1
                position += 1
        raise DiskFullError(f"no run of {n}")

    def free(self, extent):
        self.bitmap.mark_free(extent)


def run_scan_baseline():
    geometry = DiskGeometry.small()
    allocator = _ScanOnlyAllocator(geometry.capacity_bytes // 2048)
    live = []
    allocations = failures = 0
    for op, value in churn_schedule():
        if op == "alloc":
            try:
                live.append(allocator.allocate(value))
                allocations += 1
            except DiskFullError:
                failures += 1
        elif live:
            allocator.free(live.pop(value % len(live)))
    return {
        "allocations": allocations,
        "failures": failures,
        "fragments_examined": allocator.fragments_examined,
    }


def test_e4_free_extent_array():
    table_result = run_with_extent_table()
    scan_result = run_scan_baseline()
    print_table(
        f"E4  {N_OPS} alloc/free churn ops: 64x64 array vs bitmap scanning",
        ["allocator", "allocations", "failures", "full rescans", "fragments examined/op"],
        [
            (
                "bitmap + 64x64 array",
                table_result["allocations"],
                table_result["failures"],
                table_result["refills"],
                "n/a (indexed)",
            ),
            (
                "first-fit bitmap scan",
                scan_result["allocations"],
                scan_result["failures"],
                "every request",
                f"{scan_result['fragments_examined'] / max(1, scan_result['allocations']):.0f}",
            ),
        ],
    )
    # Same requests satisfied: the index does not hurt utilisation.
    assert table_result["allocations"] == scan_result["allocations"]
    assert table_result["failures"] == scan_result["failures"]
    # The array answers from its rows: full bitmap rescans are rare
    # events, not per-request work.
    assert table_result["refills"] < N_OPS / 50
