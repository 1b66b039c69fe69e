"""E1 — "for files up to half a megabyte, the maximum number of disk
references is two: one for the file index table and the other for file
data" (section 7).

Cold-cache whole-file reads across a size sweep.  Expected shape: flat
at 2 references up to 512 KB (the FIT's direct coverage), growing only
slowly past it (indirect blocks).
"""

from _helpers import build_file_server, pattern, print_table
from repro.common.units import KIB, MIB
from repro.simdisk.geometry import DiskGeometry

SIZES = [
    ("2 KB", 2 * KIB),
    ("8 KB", 8 * KIB),
    ("64 KB", 64 * KIB),
    ("256 KB", 256 * KIB),
    ("512 KB", 512 * KIB),
    ("1 MB", 1 * MIB),
    ("2 MB", 2 * MIB),
]


def cold_read_references(size: int):
    server = build_file_server(geometry=DiskGeometry.medium())
    name = server.create()
    server.write(name, 0, pattern(size))
    server.flush()
    server.recover()  # drop every cache: a genuinely cold read
    before_refs = server.metrics.get("disk.0.references")
    before_us = server.clock.now_us
    data = server.read(name, 0, size)
    assert len(data) == size
    return (
        server.metrics.get("disk.0.references") - before_refs,
        (server.clock.now_us - before_us) / 1000.0,
    )


def sweep():
    return [(label, *cold_read_references(size)) for label, size in SIZES]


def test_e1_two_disk_references():
    rows = sweep()
    print_table(
        "E1  Cold whole-file read: disk references vs file size",
        ["file size", "disk references", "sim time (ms)"],
        [(label, refs, f"{ms:.1f}") for label, refs, ms in rows],
    )
    by_label = {label: refs for label, refs, _ in rows}
    # The paper's claim, asserted exactly: <= 2 references through 512 KB.
    for label, size in SIZES:
        if size <= 512 * KIB:
            assert by_label[label] <= 2, f"{label}: {by_label[label]} refs"
    # Beyond the direct area the cost grows, but only by the indirect
    # block(s): still a handful, never per-block.
    assert by_label["1 MB"] > 2
    assert by_label["2 MB"] <= 8
