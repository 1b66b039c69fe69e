"""E2 — the contiguity count: "all successive blocks, which are
contiguous, can be cached using one single invocation of get-block,
instead of count number of invocations" (section 5).

The same 32-block file is laid out contiguously (the allocator's normal
work) and deliberately scattered (each block allocated with a spacer in
between); a cold whole-file read is measured.  Expected shape: one data
reference for the contiguous layout vs one per block for the scattered
one, with simulated time to match.
"""

from _helpers import build_file_server, pattern, print_table
from repro.common.units import BLOCK_SIZE
from repro.simdisk.geometry import DiskGeometry

N_BLOCKS = 32


def _server(growth_batch_blocks=8):
    # The disk-level track cache is disabled so the measurement isolates
    # the contiguity-count effect (E14 measures the track cache itself).
    return build_file_server(
        geometry=DiskGeometry.medium(),
        disk_kwargs=dict(cache_tracks=0),
        growth_batch_blocks=growth_batch_blocks,
    )


def build_contiguous():
    server = _server()
    name = server.create()
    server.write(name, 0, pattern(N_BLOCKS * BLOCK_SIZE))
    return server, name


def build_scattered():
    # Growth batching off: each block lands wherever the spacer pattern
    # forces it, which is the worst case the count field rescues us from.
    server = _server(growth_batch_blocks=1)
    name = server.create()
    # Force one-at-a-time growth with a spacer allocation between blocks
    # so no two file blocks are adjacent.
    spacers = []
    for block in range(N_BLOCKS):
        server.write(
            name, block * BLOCK_SIZE, pattern(BLOCK_SIZE, seed=block)
        )
        spacers.append(server.disk.allocate_block(1))
    return server, name


def cold_read(server, name):
    server.flush()
    server.recover()
    before_refs = server.metrics.get("disk.0.references")
    before_us = server.clock.now_us
    server.read(name, 0, N_BLOCKS * BLOCK_SIZE)
    return (
        server.metrics.get("disk.0.references") - before_refs,
        (server.clock.now_us - before_us) / 1000.0,
    )


def run():
    results = {}
    for label, builder in (("contiguous", build_contiguous), ("scattered", build_scattered)):
        server, name = builder()
        refs, ms = cold_read(server, name)
        fit = server.load_fit(name)
        results[label] = (fit.direct[0].count, refs, ms)
    return results


def test_e2_contiguity_count():
    results = run()
    print_table(
        f"E2  Cold read of a {N_BLOCKS}-block file: contiguity counts at work",
        ["layout", "count field of block 0", "disk references", "sim time (ms)"],
        [
            (label, count, refs, f"{ms:.1f}")
            for label, (count, refs, ms) in results.items()
        ],
    )
    contiguous = results["contiguous"]
    scattered = results["scattered"]
    # The count field records the whole run (>= the written blocks;
    # growth preallocation may extend it)...
    assert contiguous[0] >= N_BLOCKS
    assert scattered[0] == 1
    # ...so the contiguous read is 2 references (FIT + one data run)
    # while the scattered one pays roughly one per block.
    assert contiguous[1] <= 2
    assert scattered[1] >= N_BLOCKS
    # And the per-reference latency savings show up in simulated time
    # (the scattered blocks are still near each other, so the gap is
    # rotational latency + overhead per extra reference, not full seeks).
    assert contiguous[2] < scattered[2]
