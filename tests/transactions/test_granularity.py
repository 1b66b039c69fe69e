"""Locking granularity (E7): concurrency vs lock overhead."""

import pytest

from repro.common.clock import SimClock
from repro.common.metrics import Metrics
from repro.file_service.attributes import LockingLevel
from repro.naming.attributed import AttributedName
from repro.naming.service import NamingService
from repro.simkernel.runner import LockWaitPending, lock_timeout_runner
from repro.transactions.agent import TransactionAgentHost
from repro.transactions.coordinator import TransactionCoordinator
from repro.transactions.lock_manager import TimeoutPolicy
from repro.workloads.transactions import (
    make_accounts_file,
    total_balance,
    transfer_script,
)
from tests.conftest import build_file_server

NAME = AttributedName.file("/bank")


def build(level):
    clock, metrics = SimClock(), Metrics()
    server = build_file_server(clock, metrics)
    naming = NamingService(metrics)
    coordinator = TransactionCoordinator(
        clock, metrics, policy=TimeoutPolicy(lt_us=2_000_000, max_renewals=4)
    )
    coordinator.register_volume(server)
    host = TransactionAgentHost("m0", naming, coordinator, clock, metrics)
    make_accounts_file(host, NAME, 1000, locking_level=level)
    return host, coordinator, clock, metrics


def run_mix(host, coordinator, clock, n_clients=4, repeats=3):
    runner = lock_timeout_runner(clock, coordinator)
    # Disjoint account pairs: truly concurrent workload.
    for client in range(n_clients):
        runner.add_client(
            transfer_script(host, NAME, client * 10, client * 10 + 5),
            repeats=repeats,
        )
    return runner.run()


class TestConcurrencyByLevel:
    def test_record_locking_lets_disjoint_transfers_run_without_waits(self):
        """'The very purpose of fine granularity is to improve concurrency
        by allowing a transaction to lock only those data items it
        accesses' (section 6.1)."""
        host, coordinator, clock, metrics = build(LockingLevel.RECORD)
        report = run_mix(host, coordinator, clock)
        assert report.total_commits == 12
        assert report.total_lock_waits == 0

    def test_file_locking_serialises_everything(self):
        """'File level locking reduces concurrency, since operations are
        more likely to conflict.'"""
        host, coordinator, clock, metrics = build(LockingLevel.FILE)
        report = run_mix(host, coordinator, clock)
        assert report.total_commits == 12
        assert report.total_lock_waits > 0
        assert total_balance(host, NAME, 1000) == 1000 * 1000

    def test_page_locking_conflicts_within_a_page(self):
        """Accounts 0..1023 share pages; same-page transfers collide
        under page locking but not under record locking."""
        waits = {}
        for level in (LockingLevel.RECORD, LockingLevel.PAGE):
            host, coordinator, clock, metrics = build(level)
            report = run_mix(host, coordinator, clock)
            waits[level] = report.total_lock_waits
        # All four clients' accounts (0..35) live in page 0.
        assert waits[LockingLevel.PAGE] > waits[LockingLevel.RECORD]

    def test_lock_overhead_ranks_file_lowest(self):
        """'File level locking ... incurs low overhead due to locking,
        since there are fewer locks to manage.'"""
        grants = {}
        for level in (LockingLevel.RECORD, LockingLevel.FILE):
            host, coordinator, clock, metrics = build(level)
            run_mix(host, coordinator, clock)
            grants[level] = metrics.total("lock_manager.0.grants")
        assert grants[LockingLevel.FILE] <= grants[LockingLevel.RECORD]


class TestMixedAccess:
    def test_readers_share_under_every_level(self):
        for level in (LockingLevel.RECORD, LockingLevel.PAGE, LockingLevel.FILE):
            host, coordinator, clock, _ = build(level)
            t1, t2 = host.tbegin(), host.tbegin()
            d1 = host.topen(t1, NAME)
            d2 = host.topen(t2, NAME)
            assert host.tpread(t1, d1, 8, 0) == host.tpread(t2, d2, 8, 0)
            host.tend(t1)
            host.tend(t2)

    def test_writer_blocks_reader_at_matching_granularity(self):
        host, coordinator, clock, _ = build(LockingLevel.RECORD)
        t1, t2 = host.tbegin(), host.tbegin()
        d1 = host.topen(t1, NAME)
        d2 = host.topen(t2, NAME)
        host.tpwrite(t1, d1, b"12345678", 0)
        with pytest.raises(LockWaitPending):
            host.tpread(t2, d2, 8, 0)
        # A read of a *different* record sails through.
        assert host.tpread(t2, d2, 8, 800) is not None
        host.tend(t1)
        host.tend(t2)
