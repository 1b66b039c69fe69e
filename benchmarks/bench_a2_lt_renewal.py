"""A2 — ablation: the renewal budget N of the timeout policy.

The paper bounds a lock's invulnerability at N*LT but leaves N (like
LT) to be "carefully chosen".  A mixed workload — one long uncontended
transaction plus short contended transfers — sweeps N.  Expected
shape: small N murders the long transaction over and over (it can
never finish inside N*LT); once N*LT exceeds the transaction's natural
length the aborts stop; very large N costs nothing on this workload
but would slow deadlock detection for genuinely wedged uncontended
lock holders.
"""

from _helpers import build_cluster, print_table
from repro.naming.attributed import AttributedName
from repro.simdisk.geometry import DiskGeometry
from repro.simkernel.runner import lock_timeout_runner
from repro.transactions.lock_manager import TimeoutPolicy
from repro.workloads.transactions import (
    long_transaction_script,
    make_accounts_file,
    total_balance,
    transfer_script,
)

NAME = AttributedName.file("/bank")
LT_US = 100_000
N_SWEEP = [1, 2, 4, 8, 16]
THINK_ROUNDS = 250  # long txn needs ~ THINK_ROUNDS * 2 ms >> LT


def run_point(max_renewals: int):
    cluster = build_cluster(
        geometry=DiskGeometry.medium(),
        timeout_policy=TimeoutPolicy(lt_us=LT_US, max_renewals=max_renewals),
    )
    host = cluster.machine.transactions
    make_accounts_file(host, NAME, 16)
    runner = lock_timeout_runner(
        cluster.clock, cluster.coordinator, think_time_us=2000
    )
    runner.max_restarts = 8
    runner.add_client(
        long_transaction_script(host, NAME, 8, think_rounds=THINK_ROUNDS)
    )
    runner.add_client(transfer_script(host, NAME, 0, 1), repeats=3)
    report = runner.run()
    long_outcome = report.clients[0]
    return {
        "long_commits": long_outcome.commits,
        "long_aborts": long_outcome.aborts,
        "short_commits": report.clients[1].commits,
        "renewals": cluster.metrics.total("lock_manager.0.renewals"),
    }


def run_all():
    return [(n, run_point(n)) for n in N_SWEEP]


def test_a2_lt_renewal():
    results = run_all()
    print_table(
        f"A2  Renewal budget N (LT = {LT_US // 1000} ms); long txn needs "
        f"~{THINK_ROUNDS * 2} ms",
        ["N", "long-txn commits", "long-txn aborts", "short commits", "renewals"],
        [
            (
                n,
                row["long_commits"],
                row["long_aborts"],
                row["short_commits"],
                row["renewals"],
            )
            for n, row in results
        ],
    )
    by_n = dict(results)
    # Too small a budget: the long transaction can never finish.
    assert by_n[1]["long_commits"] == 0
    assert by_n[1]["long_aborts"] > 0
    # A budget past the transaction's length lets it through.
    assert by_n[16]["long_commits"] == 1
    # Short transactions commit regardless of N.
    for _, row in results:
        assert row["short_commits"] == 3
    # Long-transaction aborts fall monotonically with N.
    aborts = [row["long_aborts"] for _, row in results]
    assert all(a >= b for a, b in zip(aborts, aborts[1:]))
