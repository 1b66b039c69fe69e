"""E6 — modification policies: delayed-write vs write-through.

Paper claim (section 5): the delayed-write policy suits the basic file
service (absorbing overwrites in the cache), while the file service
additionally adapts write-through for transactional data.

A bursty overwrite workload (repeated small writes into a hot block
set) runs under both policies.  Expected shape: delayed-write collapses
many logical writes into few physical ones; write-through pays one disk
write per logical write but leaves nothing volatile.
"""

import random

from _helpers import build_file_server, print_table
from repro.common.units import BLOCK_SIZE
from repro.file_service.cache import WritePolicy
from repro.simdisk.geometry import DiskGeometry

N_WRITES = 400
HOT_BLOCKS = 4


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


def run():
    return {
        "delayed-write": run_policy(WritePolicy.DELAYED),
        "write-through": run_policy(WritePolicy.WRITE_THROUGH),
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
        ],
    )
    delayed = results["delayed-write"]
    through = results["write-through"]
    # Write-through pays one physical write per logical write.
    assert through["during_burst"] >= N_WRITES
    # Delayed-write absorbs overwrites: physical writes bounded by the
    # working set, not the write count — even after the final flush.
    assert delayed["after_flush"] <= HOT_BLOCKS * 4
    assert delayed["mean_us"] < through["mean_us"] / 5
