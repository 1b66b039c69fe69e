#!/usr/bin/env python
"""Concurrent bank transfers under the RHODOS transaction service.

Demonstrates the workload the paper's transaction machinery exists
for: many clients transferring money between accounts of one file,
with record-level two-phase locking, deliberate deadlocks resolved by
the LT/N timeout policy, and the money-conservation invariant checked
at the end.

Run:  python examples/bank_transactions.py
"""

from repro import (
    AttributedName,
    ClusterConfig,
    RhodosCluster,
    TimeoutPolicy,
)
from repro.simkernel.runner import lock_timeout_runner
from repro.workloads.transactions import (
    deadlock_pair_scripts,
    make_accounts_file,
    random_transfer_mix,
    total_balance,
)

N_ACCOUNTS = 200
INITIAL = 1000
N_CLIENTS = 8
TRANSFERS_EACH = 5

ACCOUNTS = AttributedName.file("/bank/accounts")


def main() -> None:
    cluster = RhodosCluster(
        ClusterConfig(timeout_policy=TimeoutPolicy(lt_us=400_000, max_renewals=4))
    )
    host = cluster.machine.transactions
    print("transaction agent exists before first tbegin:", host.agent_exists)
    make_accounts_file(host, ACCOUNTS, N_ACCOUNTS, initial_balance=INITIAL)
    print("transaction agent exists after last tend:   ", host.agent_exists)
    print(f"seeded {N_ACCOUNTS} accounts x {INITIAL}")

    # Part 1: a genuine deadlock — two transfers locking the same pair
    # in opposite orders — broken by the timeout policy.
    runner = lock_timeout_runner(cluster.clock, cluster.coordinator, think_time_us=150)
    forward, backward = deadlock_pair_scripts(host, ACCOUNTS, 1, 2)
    runner.add_client(forward, repeats=2)
    runner.add_client(backward, repeats=2)
    report = runner.run()
    print(
        f"\ndeadlock pair: {report.total_commits} commits, "
        f"{report.total_aborts} timeout abort(s), "
        f"{report.total_lock_waits} lock waits"
    )

    # Part 2: a contended mix over a small hot set.
    runner = lock_timeout_runner(cluster.clock, cluster.coordinator, think_time_us=150)
    for script in random_transfer_mix(
        host, ACCOUNTS, N_ACCOUNTS, N_CLIENTS, hot_accounts=10, seed=42
    ):
        runner.add_client(script, repeats=TRANSFERS_EACH)
    report = runner.run()
    print(
        f"hot-set mix:  {report.total_commits} commits, "
        f"{report.total_aborts} aborts, throughput "
        f"{report.throughput_per_s():.1f} txn/s (simulated)"
    )

    final = total_balance(host, ACCOUNTS, N_ACCOUNTS)
    print(f"\ninvariant: total balance = {final} "
          f"({'CONSERVED' if final == N_ACCOUNTS * INITIAL else 'VIOLATED!'})")
    timeouts = cluster.metrics.total("lock_manager.0.timeout_aborts")
    print(f"lock timeouts fired: {timeouts}")
    print(f"simulated time: {cluster.clock.now_ms / 1000:.2f} s")


if __name__ == "__main__":
    main()
