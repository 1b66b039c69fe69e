"""E6 — modification policies: delayed-write vs write-through.

Paper claim (section 5): the delayed-write policy suits the basic file
service (absorbing overwrites in the cache), while the file service
additionally adapts write-through for transactional data.

A bursty overwrite workload (repeated small writes into a hot block
set) runs under both policies.  Expected shape: delayed-write collapses
many logical writes into few physical ones; write-through pays one disk
write per logical write but leaves nothing volatile.

A second table overwrites 4 KB of every block of a file too large for
the block pool, once each, so every write lands on a block the pool
does not hold (paper section 4: any set of contiguous fragments moves
in one reference).  A fragment-aligned write reads nothing and its
eviction writes back its two fragments (8 sectors); an unaligned one
reads its block and writes all 16 sectors back.
"""

import random

from _helpers import build_file_server, print_table
from repro.common.units import BLOCK_SIZE, FRAGMENT_SIZE, KIB
from repro.file_service.cache import WritePolicy
from repro.simdisk.geometry import DiskGeometry

N_WRITES = 400
HOT_BLOCKS = 4
COLD_BLOCKS = 64
COLD_POOL_BLOCKS = 8
COLD_WRITE = 4 * KIB


def run_policy(policy: WritePolicy):
    server = build_file_server(
        geometry=DiskGeometry.medium(), write_policy=policy
    )
    name = server.create()
    server.write(name, 0, bytes(HOT_BLOCKS * BLOCK_SIZE))
    server.flush()
    rng = random.Random(5)
    before_writes = server.metrics.get("disk.0.writes")
    before_us = server.clock.now_us
    for index in range(N_WRITES):
        block = rng.randrange(HOT_BLOCKS)
        offset = block * BLOCK_SIZE + rng.randrange(BLOCK_SIZE - 64)
        server.write(name, offset, bytes([index % 256]) * 64)
    burst_writes = server.metrics.get("disk.0.writes") - before_writes
    burst_us = server.clock.now_us - before_us
    server.flush()
    total_writes = server.metrics.get("disk.0.writes") - before_writes
    return {
        "during_burst": burst_writes,
        "after_flush": total_writes,
        "mean_us": burst_us / N_WRITES,
    }


def run_cold(aligned: bool):
    """One 4 KB overwrite into each block of a file eight times the
    pool, in shuffled order; the pool's evictions are the write-backs."""
    server = build_file_server(
        geometry=DiskGeometry.medium(), data_cache_blocks=COLD_POOL_BLOCKS
    )
    metrics = server.metrics
    name = server.create()
    server.write(name, 0, bytes(COLD_BLOCKS * BLOCK_SIZE))
    server.flush()
    server.recover()  # an empty pool ...
    server.get_attribute(name)  # ... under a cached FIT
    rng = random.Random(6)
    order = list(range(COLD_BLOCKS))
    rng.shuffle(order)
    before = {
        key: metrics.get(key)
        for key in (
            "disk_server.0.gets",
            "disk.0.sectors_written",
            "file_server.0.block_pool.writebacks",
        )
    }
    for index, block in enumerate(order):
        if aligned:
            within = rng.randrange(2) * (BLOCK_SIZE - COLD_WRITE)
        else:
            within = rng.randrange(1, BLOCK_SIZE - COLD_WRITE) | 1
        assert (within % FRAGMENT_SIZE == 0) == aligned
        payload = bytes([index % 255 + 1]) * COLD_WRITE
        server.write(name, block * BLOCK_SIZE + within, payload)
    moved = {key: metrics.get(key) - value for key, value in before.items()}
    return {
        "reads_per_write": moved["disk_server.0.gets"] / COLD_BLOCKS,
        "writebacks": moved["file_server.0.block_pool.writebacks"],
        "sectors_per_writeback": moved["disk.0.sectors_written"]
        / moved["file_server.0.block_pool.writebacks"],
    }


def run():
    return {
        "delayed-write": run_policy(WritePolicy.DELAYED),
        "write-through": run_policy(WritePolicy.WRITE_THROUGH),
        "cold 4 KB overwrites": run_cold(aligned=True),
        "cold unaligned 4 KB overwrites": run_cold(aligned=False),
    }


def test_e6_write_policies():
    results = run()
    print_table(
        f"E6  {N_WRITES} small overwrites into {HOT_BLOCKS} hot blocks",
        ["policy", "disk writes during burst", "disk writes incl. flush", "mean us/write"],
        [
            (
                label,
                row["during_burst"],
                row["after_flush"],
                f"{row['mean_us']:.0f}",
            )
            for label, row in results.items()
            if label in ("delayed-write", "write-through")
        ],
    )
    print_table(
        f"E6  one {COLD_WRITE // KIB} KB overwrite into each of {COLD_BLOCKS} blocks, "
        f"none in the pool of {COLD_POOL_BLOCKS}",
        ["writes", "disk reads per write", "write-backs", "sectors per write-back"],
        [
            (
                label,
                f"{row['reads_per_write']:.2f}",
                row["writebacks"],
                f"{row['sectors_per_writeback']:.1f}",
            )
            for label, row in results.items()
            if label.startswith("cold")
        ],
    )
    cold = results["cold 4 KB overwrites"]
    unaligned = results["cold unaligned 4 KB overwrites"]
    # A fragment-aligned write reads nothing it overwrites and writes
    # back only its two fragments; an unaligned one still reads its block.
    assert cold["reads_per_write"] == 0
    assert cold["sectors_per_writeback"] == 8
    assert unaligned["reads_per_write"] == 1
    assert unaligned["sectors_per_writeback"] == 16
    delayed = results["delayed-write"]
    through = results["write-through"]
    # Write-through pays one physical write per logical write.
    assert through["during_burst"] >= N_WRITES
    # Delayed-write absorbs overwrites: physical writes bounded by the
    # working set, not the write count — even after the final flush.
    assert delayed["after_flush"] <= HOT_BLOCKS * 4
    assert delayed["mean_us"] < through["mean_us"] / 5
