"""Concurrency across machines: transactions from several agents."""

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.naming.attributed import AttributedName
from repro.simdisk.geometry import DiskGeometry
from repro.simkernel.runner import LockWaitPending, lock_timeout_runner
from repro.transactions.lock_manager import TimeoutPolicy
from repro.workloads.transactions import (
    ACCOUNT_BYTES,
    make_accounts_file,
    read_balance,
    total_balance,
    transfer_script,
)

NAME = AttributedName.file("/shared/accounts")


def build(n_machines=3):
    cluster = RhodosCluster(
        ClusterConfig(
            n_machines=n_machines,
            geometry=DiskGeometry.medium(),
            timeout_policy=TimeoutPolicy(lt_us=800_000, max_renewals=4),
        )
    )
    make_accounts_file(cluster.machines[0].transactions, NAME, 50)
    return cluster


class TestCrossMachineTransactions:
    def test_agents_on_different_machines_share_locks(self):
        """The lock tables live at the file server, so transactions from
        different machines' agents conflict correctly."""
        cluster = build()
        host_a = cluster.machines[0].transactions
        host_b = cluster.machines[1].transactions
        t_a = host_a.tbegin()
        d_a = host_a.topen(t_a, NAME)
        host_a.tpwrite(t_a, d_a, b"A" * ACCOUNT_BYTES, 0)
        t_b = host_b.tbegin()
        d_b = host_b.topen(t_b, NAME)
        with pytest.raises(LockWaitPending):
            host_b.tpread(t_b, d_b, ACCOUNT_BYTES, 0)
        host_a.tend(t_a)
        assert host_b.tpread(t_b, d_b, ACCOUNT_BYTES, 0) == b"A" * ACCOUNT_BYTES
        host_b.tend(t_b)

    def test_interleaved_transfers_across_machines_conserve_money(self):
        cluster = build(n_machines=3)
        runner = lock_timeout_runner(cluster.clock, cluster.coordinator)
        for machine_index, machine in enumerate(cluster.machines):
            runner.add_client(
                transfer_script(
                    machine.transactions, NAME, machine_index, machine_index + 10
                ),
                repeats=4,
            )
        report = runner.run()
        assert report.total_commits == 12
        assert (
            total_balance(cluster.machines[0].transactions, NAME, 50)
            == 50 * 1000
        )

    def test_each_machine_gets_its_own_agent_lifecycle(self):
        cluster = build(n_machines=2)
        host_a = cluster.machines[0].transactions
        host_b = cluster.machines[1].transactions
        tid = host_a.tbegin()
        assert host_a.agent_exists
        assert not host_b.agent_exists
        host_a.tabort(tid)

    def test_contended_hot_account_across_machines(self):
        cluster = build(n_machines=4)
        runner = lock_timeout_runner(cluster.clock, cluster.coordinator)
        for machine_index, machine in enumerate(cluster.machines):
            # Everyone debits account 0: total contention on one record.
            runner.add_client(
                transfer_script(machine.transactions, NAME, 0, machine_index + 1),
                repeats=3,
            )
        report = runner.run()
        assert report.total_commits == 12
        host = cluster.machines[0].transactions
        tid = host.tbegin()
        descriptor = host.topen(tid, NAME)
        raw = host.tpread(tid, descriptor, ACCOUNT_BYTES, 0)
        host.tend(tid)
        assert read_balance(raw) == 1000 - 12  # every transfer debited it
