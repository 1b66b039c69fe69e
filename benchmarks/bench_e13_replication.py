"""E13 — the replication service (sections 2.1, 2.2).

The paper names replication as a design goal ("must have the provision
to support the concept of file replication") and a layer of Figure 1
without evaluating it; we price our primary-copy read-one/write-all
implementation.  Expected shape: write-all costs exactly the degree
times one copy — in replica writes and in sectors written to the data
disks — read cost stays flat, and degree k survives k-1 volume crashes.
Elapsed time per write is reported, not asserted: the replicas live on
different spindles, so whether they overlap is the caller's frame, not
write-all's cost.
"""

from _helpers import print_table
from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.naming.attributed import AttributedName
from repro.simdisk.geometry import DiskGeometry

NAME = AttributedName.file("/replicated")
N_DISKS = 4
N_OPS = 25
PAYLOAD = b"\x77" * 4096


def run_degree(degree: int):
    cluster = RhodosCluster(
        ClusterConfig(n_disks=N_DISKS, geometry=DiskGeometry.small())
    )
    service = cluster.replication
    service.create(NAME, degree=degree)
    before_us = cluster.clock.now_us
    before = cluster.metrics.snapshot()
    for index in range(N_OPS):
        service.write(NAME, index * len(PAYLOAD), PAYLOAD)
    write_us = cluster.clock.now_us - before_us
    written = cluster.metrics.diff(before)
    before_us = cluster.clock.now_us
    for index in range(N_OPS):
        service.read(NAME, index * len(PAYLOAD), len(PAYLOAD))
    read_us = cluster.clock.now_us - before_us
    diff = cluster.metrics.diff(before)
    # Availability: crash k-1 volumes hosting replicas, keep reading.
    survived = True
    for volume in range(degree - 1):
        cluster.file_servers[volume].crash()
        try:
            service.read(NAME, 0, len(PAYLOAD))
        except Exception:
            survived = False
    return {
        "replica_writes": diff.get("replication.replica_writes", 0),
        "sectors_written": sum(
            written.get(f"disk.{volume}.sectors_written", 0)
            for volume in range(N_DISKS)
        ),
        "write_ms_per_op": write_us / N_OPS / 1000.0,
        "read_ms_per_op": read_us / N_OPS / 1000.0,
        "survives_k_minus_1": survived,
    }


def run_all():
    return [(degree, run_degree(degree)) for degree in (1, 2, 3, 4)]


def test_e13_replication():
    results = run_all()
    print_table(
        f"E13  {N_OPS} writes + {N_OPS} reads per replication degree",
        [
            "degree",
            "replica writes",
            "data sectors written",
            "write ms/op",
            "read ms/op",
            "survives k-1 crashes",
        ],
        [
            (
                degree,
                row["replica_writes"],
                row["sectors_written"],
                f"{row['write_ms_per_op']:.1f}",
                f"{row['read_ms_per_op']:.2f}",
                "yes" if row["survives_k_minus_1"] else "NO",
            )
            for degree, row in results
        ],
    )
    by_degree = dict(results)
    # Write-all: every replica write and every sector, degree times over.
    for degree in (1, 2, 3, 4):
        assert by_degree[degree]["replica_writes"] == degree * N_OPS
        assert (
            by_degree[degree]["sectors_written"]
            == degree * by_degree[1]["sectors_written"]
        )
    assert by_degree[1]["sectors_written"] > 0
    # Read-one: reads do not get more expensive with degree.
    assert (
        by_degree[4]["read_ms_per_op"] <= by_degree[1]["read_ms_per_op"] * 1.5
    )
    # Availability: every degree survives k-1 crashes.
    for degree, row in results:
        assert row["survives_k_minus_1"]
