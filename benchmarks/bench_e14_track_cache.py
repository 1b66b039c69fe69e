"""E14 — the disk service's rest-of-track readahead (section 4).

Paper claim: "This service retrieves only those blocks/fragments from
a disk track which are necessary to immediately fulfill the requirement
of a read request.  Then the disk service caches the rest of the data
from the same track ... to satisfy any subsequent requests to read
data from blocks/fragments pertaining to the same track."

Fragment-sized requests sweep a region sequentially, strided, and
randomly, with readahead on and off.  Expected shape: sequential
traffic collapses to one disk reference per track with readahead;
random traffic barely benefits (the readahead gamble pays only when
neighbours are wanted next).
"""

from _helpers import build_disk_server, print_table
from repro.disk_service.addresses import Extent
from repro.simdisk.geometry import DiskGeometry
from repro.workloads.access import AccessPattern, offsets

N_FRAGMENTS = 256  # the region swept
N_REQUESTS = 256


def run_point(pattern: AccessPattern, readahead: bool):
    server = build_disk_server(
        geometry=DiskGeometry.small(),
        cache_tracks=256,
        readahead=readahead,
    )
    region = server.allocate(N_FRAGMENTS)
    server.put(region, b"\x99" * region.byte_size)
    if server.cache is not None:
        server.cache.invalidate()
    before_refs = server.metrics.get("disk.0.references")
    before_us = server.clock.now_us
    for offset in offsets(
        pattern, N_FRAGMENTS * 2048, 2048, N_REQUESTS, stride=7, seed=2
    ):
        server.get(Extent(region.start + offset // 2048, 1))
    return {
        "references": server.metrics.get("disk.0.references") - before_refs,
        "ms": (server.clock.now_us - before_us) / 1000.0,
    }


def run_all():
    rows = []
    for pattern in (AccessPattern.SEQUENTIAL, AccessPattern.STRIDED, AccessPattern.RANDOM):
        with_ra = run_point(pattern, readahead=True)
        without = run_point(pattern, readahead=False)
        rows.append((pattern.value, with_ra, without))
    return rows


def test_e14_track_cache():
    rows = run_all()
    print_table(
        f"E14  {N_REQUESTS} fragment reads: rest-of-track readahead on/off",
        [
            "pattern",
            "refs (readahead)",
            "refs (none)",
            "ms (readahead)",
            "ms (none)",
        ],
        [
            (
                pattern,
                with_ra["references"],
                without["references"],
                f"{with_ra['ms']:.1f}",
                f"{without['ms']:.1f}",
            )
            for pattern, with_ra, without in rows
        ],
    )
    by_pattern = {pattern: (with_ra, without) for pattern, with_ra, without in rows}
    sequential_ra, sequential_no = by_pattern["sequential"]
    random_ra, random_no = by_pattern["random"]
    # Sequential: one reference per track instead of one per fragment.
    # 256 fragments = 1024 sectors = 16 tracks of 64 sectors.
    assert sequential_ra["references"] <= 20
    assert sequential_no["references"] == N_REQUESTS
    assert sequential_ra["ms"] < sequential_no["ms"]
    # Random: readahead still helps once enough of the region is cached,
    # but far less than for sequential traffic.
    improvement_sequential = sequential_no["references"] / max(
        1, sequential_ra["references"]
    )
    improvement_random = random_no["references"] / max(1, random_ra["references"])
    assert improvement_sequential > improvement_random
