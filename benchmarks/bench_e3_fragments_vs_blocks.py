"""E3 — fragments for structural data: "for the storage of structural
information of fairly small size the use of fragments can substantially
reduce communication overheads and thereby improve performance"
(section 4), without the disproportionate I/O that sub-block
*fragments-for-data* would cost.

200 control structures (FIT-sized, < 2 KB) are stored once in
fragments (2 KB units) and once in blocks (8 KB units).  Expected
shape: identical disk-reference counts, ~4x better space utilisation
for fragments, and fewer sectors moved.
"""

from _helpers import build_disk_server, print_table
from repro.common.units import BLOCK_SIZE, FRAGMENT_SIZE
from repro.simdisk.geometry import DiskGeometry

N_STRUCTURES = 200
STRUCTURE_BYTES = 1800  # a realistic FIT payload


def run_variant(*, use_fragments: bool):
    server = build_disk_server(geometry=DiskGeometry.medium())
    unit = 1 if use_fragments else 4  # fragments per allocation
    unit_bytes = unit * FRAGMENT_SIZE
    payload = b"\xcd" * STRUCTURE_BYTES + bytes(unit_bytes - STRUCTURE_BYTES)
    extents = []
    for _ in range(N_STRUCTURES):
        extent = server.allocate(unit)
        server.put(extent, payload)
        extents.append(extent)
    # Cold re-read of every structure.
    if server.cache is not None:
        server.cache.invalidate()
    before_refs = server.metrics.get("disk.0.references")
    before_sectors = server.metrics.get("disk.0.sectors_read")
    before_us = server.clock.now_us
    for extent in extents:
        server.get(extent, use_cache=False)
    return {
        "allocated_bytes": N_STRUCTURES * unit_bytes,
        "used_bytes": N_STRUCTURES * STRUCTURE_BYTES,
        "references": server.metrics.get("disk.0.references") - before_refs,
        "sectors": server.metrics.get("disk.0.sectors_read") - before_sectors,
        "ms": (server.clock.now_us - before_us) / 1000.0,
    }


def run():
    return {
        "fragments (2 KB)": run_variant(use_fragments=True),
        "blocks (8 KB)": run_variant(use_fragments=False),
    }


def test_e3_fragments_vs_blocks():
    results = run()
    print_table(
        f"E3  {N_STRUCTURES} control structures of {STRUCTURE_BYTES} B: "
        "fragment vs block storage",
        ["unit", "space allocated", "utilisation", "disk refs", "sectors read", "sim ms"],
        [
            (
                label,
                f"{row['allocated_bytes'] // 1024} KB",
                f"{100 * row['used_bytes'] / row['allocated_bytes']:.0f}%",
                row["references"],
                row["sectors"],
                f"{row['ms']:.1f}",
            )
            for label, row in results.items()
        ],
    )
    fragments = results["fragments (2 KB)"]
    blocks = results["blocks (8 KB)"]
    # Same number of disk references either way: fragments do NOT cost
    # extra I/O operations for structure-sized data...
    assert fragments["references"] == blocks["references"]
    # ...while quartering the allocated space...
    assert fragments["allocated_bytes"] * 4 == blocks["allocated_bytes"]
    # ...and moving a quarter of the sectors (less transfer time).
    assert fragments["sectors"] * 4 == blocks["sectors"]
    assert fragments["ms"] <= blocks["ms"]
