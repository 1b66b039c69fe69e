"""E8 — timeout-based deadlock resolution (section 6.4).

Paper claims to reproduce:
1. deadlocks are resolved — a cycle of opposed transfers always
   completes;
2. "the number of transactions timing out will increase as the load on
   the RHODOS system increases";
3. the choice of LT trades abort rate against resolution latency
   ("computing a value for the timeout period is not a simple matter").
"""

from _helpers import build_cluster, make_txn_runner, print_table
from repro.naming.attributed import AttributedName
from repro.simdisk.geometry import DiskGeometry
from repro.transactions.lock_manager import TimeoutPolicy
from repro.workloads.transactions import (
    make_accounts_file,
    random_transfer_mix,
    total_balance,
)

NAME = AttributedName.file("/bank")
N_ACCOUNTS = 64
HOT = 4  # all load concentrates on four accounts: deadlock-prone
REPEATS = 3


def run_point(n_clients: int, lt_us: int):
    cluster = build_cluster(
        geometry=DiskGeometry.medium(),
        timeout_policy=TimeoutPolicy(lt_us=lt_us, max_renewals=4),
    )
    host = cluster.machine.transactions
    make_accounts_file(host, NAME, N_ACCOUNTS)
    runner = make_txn_runner(cluster)
    for script in random_transfer_mix(
        host, NAME, N_ACCOUNTS, n_clients, hot_accounts=HOT, seed=13
    ):
        runner.add_client(script, repeats=REPEATS)
    report = runner.run()
    assert total_balance(host, NAME, N_ACCOUNTS) == N_ACCOUNTS * 1000
    return {
        "commits": report.total_commits,
        "timeouts": cluster.metrics.total("lock_manager.0.timeout_aborts"),
        "elapsed_s": report.elapsed_us / 1e6,
    }


def run_all():
    load_sweep = [
        (n_clients, run_point(n_clients, lt_us=400_000))
        for n_clients in (2, 4, 8)
    ]
    lt_sweep = [
        (lt_us, run_point(6, lt_us=lt_us))
        for lt_us in (100_000, 400_000, 1_600_000)
    ]
    return load_sweep, lt_sweep


def test_e8_timeout_deadlock():
    load_sweep, lt_sweep = run_all()
    print_table(
        f"E8a  Load sweep (LT = 400 ms, {HOT} hot accounts)",
        ["clients", "commits", "timeout aborts", "sim elapsed (s)"],
        [
            (n, row["commits"], row["timeouts"], f"{row['elapsed_s']:.2f}")
            for n, row in load_sweep
        ],
    )
    print_table(
        "E8b  LT sweep (6 clients)",
        ["LT (ms)", "commits", "timeout aborts", "sim elapsed (s)"],
        [
            (lt // 1000, row["commits"], row["timeouts"], f"{row['elapsed_s']:.2f}")
            for lt, row in lt_sweep
        ],
    )
    # Claim 1: every transaction eventually commits at every point.
    for n, row in load_sweep:
        assert row["commits"] == n * REPEATS
    for _, row in lt_sweep:
        assert row["commits"] == 6 * REPEATS
    # Claim 2: timeouts increase with load.
    timeouts = [row["timeouts"] for _, row in load_sweep]
    assert timeouts[0] <= timeouts[1] <= timeouts[2]
    assert timeouts[2] > timeouts[0]
    # Claim 3: longer LT means slower deadlock resolution (elapsed time
    # grows with LT under the same contention).
    elapsed = [row["elapsed_s"] for _, row in lt_sweep]
    assert elapsed[0] < elapsed[-1]
