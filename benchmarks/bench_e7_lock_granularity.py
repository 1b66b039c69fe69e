"""E7 — locking granularity: concurrency vs lock overhead (section 6.1).

Paper claims: record locking "is the most suitable where the updates
are small and the probability that a data item is subject to two
simultaneous updates is remote" (maximum concurrency, more lock
overhead); file locking "incurs low overhead due to locking, since
there are fewer locks to manage ... however [it] reduces concurrency,
since operations are more likely to conflict"; page locking sits in
between.

Eight clients run disjoint small transfers (the record-locking sweet
spot) at each level.  Expected shape: lock waits rise monotonically
record -> page -> file; locks managed falls file < record; simulated
completion time follows concurrency.
"""

from _helpers import build_cluster, make_txn_runner, print_table
from repro.file_service.attributes import LockingLevel
from repro.naming.attributed import AttributedName
from repro.simdisk.geometry import DiskGeometry
from repro.transactions.lock_manager import TimeoutPolicy
from repro.workloads.transactions import (
    make_accounts_file,
    total_balance,
    transfer_script,
)

NAME = AttributedName.file("/bank")
N_ACCOUNTS = 4096  # spans 4 pages, so page locking can conflict
N_CLIENTS = 8
REPEATS = 4


def run_level(level: LockingLevel):
    cluster = build_cluster(
        geometry=DiskGeometry.medium(),
        timeout_policy=TimeoutPolicy(lt_us=5_000_000, max_renewals=4),
    )
    host = cluster.machine.transactions
    make_accounts_file(host, NAME, N_ACCOUNTS, locking_level=level)
    runner = make_txn_runner(cluster)
    start_us = cluster.clock.now_us
    for client in range(N_CLIENTS):
        # Same-page neighbours for page-locking conflicts, but disjoint
        # records: the workload records would never collide.
        runner.add_client(
            transfer_script(host, NAME, client * 4, client * 4 + 2),
            repeats=REPEATS,
        )
    report = runner.run()
    assert total_balance(host, NAME, N_ACCOUNTS) == N_ACCOUNTS * 1000
    return {
        "commits": report.total_commits,
        "waits": report.total_lock_waits,
        "aborts": report.total_aborts,
        "locks": cluster.metrics.total("lock_manager.0.grants"),
        "elapsed_ms": (cluster.clock.now_us - start_us) / 1000.0,
    }


def run_all():
    return [
        (level.name.lower(), run_level(level))
        for level in (LockingLevel.RECORD, LockingLevel.PAGE, LockingLevel.FILE)
    ]


def test_e7_lock_granularity():
    results = run_all()
    print_table(
        f"E7  {N_CLIENTS} clients x {REPEATS} disjoint small transfers, per locking level",
        ["level", "commits", "lock waits", "aborts", "locks granted", "sim elapsed (ms)"],
        [
            (
                label,
                row["commits"],
                row["waits"],
                row["aborts"],
                row["locks"],
                f"{row['elapsed_ms']:.0f}",
            )
            for label, row in results
        ],
    )
    by_label = dict(results)
    record = by_label["record"]
    page = by_label["page"]
    file_level = by_label["file"]
    expected_commits = N_CLIENTS * REPEATS
    for row in (record, page, file_level):
        assert row["commits"] == expected_commits
    # Concurrency: record locking never waits on this workload; coarser
    # levels conflict more and more.
    assert record["waits"] == 0
    assert record["waits"] <= page["waits"] <= file_level["waits"]
    assert file_level["waits"] > 0
    # Lock-management overhead ranks the other way.
    assert file_level["locks"] <= page["locks"] <= record["locks"]
