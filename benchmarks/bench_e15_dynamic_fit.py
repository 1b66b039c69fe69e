"""E15 — dynamic FIT creation (sections 5, 7).

Paper claims: creating file index tables only on demand means "no
wastage of memory; the file index table and at least the first data
block are always contiguous thus eliminating the seek time to retrieve
the first data block; the file index tables are distributed throughout
the disk and hence the file facility does not run the risk of loosing
all of them together", and "creation of file index tables on a need
basis ensures that they do not accumulate in one place on the disk."

Fifty files are created dynamically and, as the counterfactual, with a
statically preallocated FIT region at the start of the disk.  Expected
shape: dynamic FITs sit one fragment from their data (zero seek) and
spread across the disk; static FITs cluster at the front and sit far
from their data.
"""

import statistics

from _helpers import build_disk_server, build_file_server, pattern, print_table
from repro.common.units import BLOCK_SIZE, FRAGMENTS_PER_BLOCK
from repro.simdisk.geometry import DiskGeometry

N_FILES = 50
FILE_BYTES = 2 * BLOCK_SIZE


def run_dynamic():
    server = build_file_server(geometry=DiskGeometry.medium())
    gaps = []
    fit_addresses = []
    read_ms = 0.0
    names = []
    for index in range(N_FILES):
        name = server.create()
        server.write(name, 0, pattern(FILE_BYTES, seed=index))
        first = server.block_descriptor(name, 0)
        gaps.append(abs(first.address - (name.fit_address + 1)))
        fit_addresses.append(name.fit_address)
        names.append(name)
    server.flush()
    server.recover()
    before_us = server.clock.now_us
    for name in names:
        server.read(name, 0, FILE_BYTES)
    read_ms = (server.clock.now_us - before_us) / 1000.0
    return gaps, fit_addresses, read_ms


def run_static():
    """Counterfactual: all FITs preallocated at the start of the disk."""
    server = build_file_server(geometry=DiskGeometry.medium())
    disk = server.disk
    fit_region = disk.allocate(N_FILES)  # fragment per FIT, up front
    gaps = []
    fit_addresses = []
    extents = []
    for index in range(N_FILES):
        fit_address = fit_region.start + index
        data = disk.allocate_block(FILE_BYTES // BLOCK_SIZE)
        gaps.append(abs(data.start - (fit_address + 1)))
        fit_addresses.append(fit_address)
        extents.append((fit_address, data))
        disk.put(data, pattern(FILE_BYTES, seed=index))
    if disk.cache is not None:
        disk.cache.invalidate()
    before_us = server.clock.now_us
    from repro.disk_service.addresses import Extent

    for fit_address, data in extents:
        disk.get(Extent(fit_address, 1), use_cache=False)  # the FIT read
        disk.get(data, use_cache=False)  # then seek to the data
    read_ms = (server.clock.now_us - before_us) / 1000.0
    return gaps, fit_addresses, read_ms


def run_all():
    return run_dynamic(), run_static()


def spread(addresses):
    return max(addresses) - min(addresses)


def test_e15_dynamic_fit():
    (dyn_gaps, dyn_fits, dyn_ms), (st_gaps, st_fits, st_ms) = run_all()
    print_table(
        f"E15  {N_FILES} file creations: dynamic vs preallocated FITs",
        [
            "strategy",
            "median FIT->data gap (frags)",
            "FIT spread (frags)",
            "cold FIT+data read (ms)",
        ],
        [
            (
                "dynamic (RHODOS)",
                statistics.median(dyn_gaps),
                spread(dyn_fits),
                f"{dyn_ms:.1f}",
            ),
            (
                "static FIT region",
                statistics.median(st_gaps),
                spread(st_fits),
                f"{st_ms:.1f}",
            ),
        ],
    )
    # Dynamic FITs are adjacent to their first data block: gap zero.
    assert statistics.median(dyn_gaps) == 0
    # Static FITs sit far from their data (the seek the paper eliminates).
    assert statistics.median(st_gaps) > N_FILES
    # Dynamic FITs spread across the disk instead of clustering: the
    # static region packs all FITs into N_FILES fragments.
    assert spread(st_fits) == N_FILES - 1
    assert spread(dyn_fits) > spread(st_fits) * 4
    # And the cold read pays for it: dynamic is faster.
    assert dyn_ms < st_ms
