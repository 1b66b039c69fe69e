"""A1 — ablation: sizing the free-extent array.

The paper fixes the array at "the order of 64 rows and 64 columns"
without justifying the dimensions.  We first fragment the disk heavily
(fill it with single fragments, free every other one), then run an
allocation churn.  A small table cannot index the thousands of free
runs (column overflow) and keeps running dry, forcing full bitmap
rescans; around the paper's 64x64 the rescans collapse and further
growth buys little — 64x64 sits at the knee.
"""

import random

from _helpers import build_disk_server, print_table
from repro.common.errors import DiskFullError
from repro.disk_service.addresses import Extent
from repro.simdisk.geometry import DiskGeometry

N_OPS = 1200
SHAPES = [(4, 4), (8, 8), (16, 16), (64, 64), (128, 128)]
_TINY = DiskGeometry(cylinders=64, heads=4, sectors_per_track=32)  # 4 MB


def run_shape(rows: int, columns: int):
    server = build_disk_server(
        geometry=_TINY, extent_rows=rows, extent_columns=columns
    )
    # Fragment the free space: fill the disk solid, then free every
    # other fragment -> n/2 one-fragment runs, far beyond small tables.
    whole = server.allocate(server.n_fragments)
    for fragment in range(0, server.n_fragments, 2):
        server.free(Extent(fragment, 1))
    rng = random.Random(17)
    live = []
    allocations = failures = 0
    for _ in range(N_OPS):
        if rng.random() < 0.6:
            try:
                live.append(server.allocate(1))
                allocations += 1
            except DiskFullError:
                failures += 1
        elif live:
            server.free(live.pop(rng.randrange(len(live))))
    return {
        "allocations": allocations,
        "failures": failures,
        "refills": server.metrics.get("disk_server.0.table_refills"),
    }


def run_all():
    return [(f"{rows}x{columns}", run_shape(rows, columns)) for rows, columns in SHAPES]


def test_a1_extent_array_sizing():
    results = run_all()
    print_table(
        f"A1  Free-extent array shape, fragmented disk, {N_OPS} churn ops",
        ["shape", "allocations satisfied", "failures", "full bitmap rescans"],
        [
            (label, row["allocations"], row["failures"], row["refills"])
            for label, row in results
        ],
    )
    by_label = dict(results)
    # Everyone satisfies the same demand (the bitmap is authoritative).
    assert len({row["allocations"] for _, row in results}) == 1
    assert all(row["failures"] == 0 for _, row in results)
    # Rescans fall (weakly) with table size, with a real gap between the
    # small shapes and the paper's 64x64, and nothing gained past it.
    refills = [row["refills"] for _, row in results]
    assert all(a >= b for a, b in zip(refills, refills[1:]))
    assert by_label["4x4"]["refills"] > by_label["64x64"]["refills"]
    assert by_label["64x64"]["refills"] - by_label["128x128"]["refills"] <= 4
