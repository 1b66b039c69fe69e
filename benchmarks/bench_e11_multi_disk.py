"""E11 — files across disks (section 7).

Paper claims: "there is practically no limitation on the number of
disks ... a file can be partitioned and therefore its contents can
reside on more than one disk.  Thus, the size of a file can be as
large as the total space available on all the disks."

A 4 MB file is written and scanned striped over 1, 2, 4 and 8 disks.
Disks are independent devices, so the honest parallel cost is the
*makespan*: the busiest disk's busy time.  Expected shape: makespan
falls as disks are added (near-linearly while stripes balance), and
capacity grows with the set.
"""

from _helpers import print_table
from repro.cluster.config import ClusterConfig
from repro.cluster.striping import StripedFile
from repro.cluster.system import RhodosCluster
from repro.common.units import BLOCK_SIZE, MIB
from repro.naming.attributed import AttributedName
from repro.simdisk.geometry import DiskGeometry

NAME = AttributedName.file("/big")
FILE_BYTES = 4 * MIB


def run_point(n_disks: int):
    cluster = RhodosCluster(
        ClusterConfig(n_disks=n_disks, geometry=DiskGeometry.medium())
    )
    striped = StripedFile.create(
        cluster.naming,
        cluster.file_servers,
        NAME,
        stripe_bytes=8 * BLOCK_SIZE,
    )
    payload = b"\x3c" * FILE_BYTES
    striped.write(0, payload)
    for server in cluster.file_servers.values():
        server.flush()
        server.recover()
    before = cluster.metrics.snapshot()
    assert striped.read(0, FILE_BYTES) == payload
    diff = cluster.metrics.diff(before)
    busy = [
        diff.get(f"disk.{volume}.busy_us", 0) for volume in range(n_disks)
    ]
    refs = sum(diff.get(f"disk.{volume}.references", 0) for volume in range(n_disks))
    makespan_ms = max(busy) / 1000.0
    return {
        "makespan_ms": makespan_ms,
        "references": refs,
        "bandwidth_mb_s": (FILE_BYTES / MIB) / (makespan_ms / 1000.0),
    }


def run_all():
    return [(n, run_point(n)) for n in (1, 2, 4, 8)]


def test_e11_multi_disk():
    results = run_all()
    print_table(
        f"E11  Cold scan of a {FILE_BYTES // MIB} MB file striped over N disks",
        ["disks", "disk refs", "busiest-disk time (ms)", "parallel bandwidth (MB/s)"],
        [
            (
                n,
                row["references"],
                f"{row['makespan_ms']:.1f}",
                f"{row['bandwidth_mb_s']:.1f}",
            )
            for n, row in results
        ],
    )
    makespans = [row["makespan_ms"] for _, row in results]
    # Adding disks shrinks the busiest disk's share of the scan.
    assert makespans[0] > makespans[1] > makespans[2] > makespans[3]
    # Rough proportionality: 8 disks cut the makespan at least 4x.
    assert makespans[0] / makespans[3] >= 4
