"""Timeout-based deadlock resolution under real interleavings (E8)."""

import pytest

from repro.common.clock import SimClock
from repro.common.metrics import Metrics
from repro.naming.attributed import AttributedName
from repro.naming.service import NamingService
from repro.simkernel.runner import lock_timeout_runner
from repro.transactions.agent import TransactionAgentHost
from repro.transactions.coordinator import TransactionCoordinator
from repro.transactions.lock_manager import TimeoutPolicy
from repro.workloads.transactions import (
    deadlock_pair_scripts,
    long_transaction_script,
    make_accounts_file,
    random_transfer_mix,
    total_balance,
    transfer_script,
)
from tests.conftest import build_file_server

NAME = AttributedName.file("/bank")


def build(lt_us=500_000, max_renewals=3):
    clock, metrics = SimClock(), Metrics()
    server = build_file_server(clock, metrics)
    naming = NamingService(metrics)
    coordinator = TransactionCoordinator(
        clock, metrics, policy=TimeoutPolicy(lt_us=lt_us, max_renewals=max_renewals)
    )
    coordinator.register_volume(server)
    host = TransactionAgentHost("m0", naming, coordinator, clock, metrics)
    return host, coordinator, clock, metrics


class TestDeadlockResolution:
    def test_opposed_transfers_deadlock_and_recover(self):
        """The canonical cycle: A->B and B->A interleaved.  Timeouts must
        abort one so both eventually commit."""
        host, coordinator, clock, metrics = build()
        make_accounts_file(host, NAME, 10)
        s1, s2 = deadlock_pair_scripts(host, NAME, 1, 2)
        runner = lock_timeout_runner(clock, coordinator)
        runner.add_client(s1)
        runner.add_client(s2)
        report = runner.run()
        assert report.total_commits == 2
        assert report.total_aborts >= 1  # the cycle was broken by timeout
        assert metrics.total("lock_manager.0.timeout_aborts") >= 1
        assert total_balance(host, NAME, 10) == 10 * 1000

    def test_no_deadlock_no_timeouts(self):
        """Disjoint transfers never contend: no aborts, no timeouts."""
        host, coordinator, clock, metrics = build()
        make_accounts_file(host, NAME, 10)
        runner = lock_timeout_runner(clock, coordinator)
        runner.add_client(transfer_script(host, NAME, 0, 1))
        runner.add_client(transfer_script(host, NAME, 2, 3))
        report = runner.run()
        assert report.total_commits == 2
        assert report.total_aborts == 0
        assert metrics.total("lock_manager.0.timeout_aborts") == 0

    def test_long_transactions_are_penalised(self):
        """The paper's stated drawback: a long transaction holding a lock
        that others want gets aborted at LT expiry even though it is not
        deadlocked."""
        host, coordinator, clock, metrics = build(lt_us=50_000, max_renewals=20)
        make_accounts_file(host, NAME, 4)
        runner = lock_timeout_runner(clock, coordinator, think_time_us=2000)
        runner.add_client(long_transaction_script(host, NAME, 0, think_rounds=200))
        runner.add_client(transfer_script(host, NAME, 0, 1))
        report = runner.run()
        long_client = report.clients[0]
        assert long_client.aborts >= 1  # broken at first contended expiry
        assert report.total_commits == 2  # both finish eventually

    def test_short_renewal_budget_livelocks_a_long_transaction(self):
        """N*LT below the transaction's natural length means it can never
        commit — the paper's 'transactions taking a long time will be
        penalized', taken to its logical end."""
        host, coordinator, clock, metrics = build(lt_us=50_000, max_renewals=2)
        make_accounts_file(host, NAME, 4)
        runner = lock_timeout_runner(clock, coordinator, think_time_us=2000)
        runner.max_restarts = 5
        runner.add_client(long_transaction_script(host, NAME, 0, think_rounds=200))
        report = runner.run()
        assert report.clients[0].commits == 0
        assert report.clients[0].aborts >= 5

    def test_uncontended_long_transaction_renews_up_to_n(self):
        host, coordinator, clock, metrics = build(lt_us=50_000, max_renewals=50)
        make_accounts_file(host, NAME, 4)
        runner = lock_timeout_runner(clock, coordinator, think_time_us=2000)
        runner.add_client(long_transaction_script(host, NAME, 0, think_rounds=100))
        report = runner.run()
        assert report.total_commits == 1
        assert report.total_aborts == 0
        assert metrics.total("lock_manager.0.renewals") >= 1

    def test_invariant_under_heavy_contention(self):
        """Money is conserved whatever the abort/retry history."""
        host, coordinator, clock, metrics = build(lt_us=300_000)
        make_accounts_file(host, NAME, 20)
        runner = lock_timeout_runner(clock, coordinator)
        for script in random_transfer_mix(host, NAME, 20, 6, hot_accounts=4, seed=7):
            runner.add_client(script, repeats=4)
        report = runner.run()
        assert report.total_commits == 24
        assert total_balance(host, NAME, 20) == 20 * 1000

    def test_smaller_lt_resolves_deadlocks_faster(self):
        elapsed = {}
        for lt_us in (100_000, 1_600_000):
            host, coordinator, clock, _ = build(lt_us=lt_us)
            make_accounts_file(host, NAME, 10)
            start = clock.now_us
            s1, s2 = deadlock_pair_scripts(host, NAME, 1, 2)
            runner = lock_timeout_runner(clock, coordinator)
            runner.add_client(s1)
            runner.add_client(s2)
            runner.run()
            elapsed[lt_us] = clock.now_us - start
        assert elapsed[100_000] < elapsed[1_600_000]
