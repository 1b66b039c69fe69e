"""E9 — WAL vs shadow-page commit (section 6.7).

Paper claims: "The shadow page technique requires lesser I/O overhead
than the wal technique, because there is no need to copy blocks in the
commit phase ... [but] if the data blocks are contiguous before the
beginning of the transaction then they are no longer contiguous after
the transaction commits.  Thus, this technique destroys the contiguity
of data blocks."  RHODOS therefore uses WAL when blocks are contiguous
and shadow when they are not.

Thirty single-page update transactions hit a 16-block contiguous file
under each forced technique and under the paper's auto rule.  Expected
shape: WAL keeps the file one contiguous run (fast subsequent scans) at
the cost of the in-place copies, which the closing flush writes home once
per block; shadow saves the copies but shatters the layout; auto behaves
like WAL on a contiguous file.
"""

import random

from _helpers import build_cluster, contiguity_runs, print_table
from repro.common.units import BLOCK_SIZE
from repro.file_service.attributes import LockingLevel
from repro.naming.attributed import AttributedName
from repro.simdisk.geometry import DiskGeometry
from repro.workloads.transactions import make_accounts_file

NAME = AttributedName.file("/data")
N_BLOCKS = 16
N_TRANSACTIONS = 30


def run_technique(technique: str):
    cluster = build_cluster(
        geometry=DiskGeometry.medium(), commit_technique=technique
    )
    host = cluster.machine.transactions
    server = cluster.file_servers[0]
    tid = host.tbegin()
    descriptor = host.tcreate(tid, NAME, locking_level=LockingLevel.PAGE)
    host.twrite(tid, descriptor, b"\x42" * (N_BLOCKS * BLOCK_SIZE))
    host.tend(tid)
    system_name = cluster.naming.resolve_file(NAME)
    runs_before = contiguity_runs(server, system_name)
    server.flush()  # the seed's blocks go home outside the window
    rng = random.Random(3)
    before = cluster.metrics.snapshot()
    for index in range(N_TRANSACTIONS):
        block = rng.randrange(N_BLOCKS)
        tid = host.tbegin()
        descriptor = host.topen(tid, NAME)
        host.tpwrite(
            tid, descriptor, bytes([index % 256]) * BLOCK_SIZE, block * BLOCK_SIZE
        )
        host.tend(tid)
    # The window ends after the flush: its checkpoint writes the blocks
    # the commits left in the block pool, so they are charged here.
    server.flush()
    diff = cluster.metrics.diff(before)
    runs_after = contiguity_runs(server, system_name)
    # The payoff of contiguity: a cold scan of the whole file.
    server.recover()
    scan_before = cluster.metrics.get("disk.0.references")
    server.read(system_name, 0, N_BLOCKS * BLOCK_SIZE)
    scan_refs = cluster.metrics.get("disk.0.references") - scan_before
    return {
        "runs_before": runs_before,
        "runs_after": runs_after,
        "wal_applies": diff.get("transactions.wal_applies", 0),
        "shadow_applies": diff.get("transactions.shadow_applies", 0),
        "commit_writes": diff.get("disk.0.writes", 0),
        "commit_sectors": diff.get("disk.0.sectors_written", 0),
        "scan_refs": scan_refs,
    }


def run_all():
    return [(technique, run_technique(technique)) for technique in ("wal", "shadow", "auto")]


def test_e9_wal_vs_shadow():
    results = run_all()
    print_table(
        f"E9  {N_TRANSACTIONS} single-page update transactions on a "
        f"{N_BLOCKS}-block contiguous file",
        [
            "technique",
            "contiguous runs before",
            "runs after",
            "WAL applies",
            "shadow applies",
            "disk writes",
            "sectors written",
            "cold-scan refs after",
        ],
        [
            (
                label,
                row["runs_before"],
                row["runs_after"],
                row["wal_applies"],
                row["shadow_applies"],
                row["commit_writes"],
                row["commit_sectors"],
                row["scan_refs"],
            )
            for label, row in results
        ],
    )
    by_label = dict(results)
    wal = by_label["wal"]
    shadow = by_label["shadow"]
    auto = by_label["auto"]
    # WAL preserves contiguity: the file stays one run, scans stay 2 refs.
    assert wal["runs_before"] == 1 and wal["runs_after"] == 1
    assert wal["scan_refs"] <= 2
    # Shadow destroys it: many runs, scans pay per run.
    assert shadow["runs_after"] > 4
    assert shadow["scan_refs"] > 4
    # Shadow's I/O is lighter (no in-place copy) in the sectors it
    # moves.  Not in physical writes: a WAL commit defers its copy to
    # the flush, which writes each block once, while every swap stores
    # the FIT (ROADMAP item 2(d)).
    assert shadow["commit_sectors"] < wal["commit_sectors"]
    # The paper's auto rule keeps a contiguous file on the WAL path.
    assert auto["shadow_applies"] == 0
    assert auto["runs_after"] == 1
