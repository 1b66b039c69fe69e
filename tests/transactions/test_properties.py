"""Property test: 2PL interleavings are serializable.

Random transfer workloads run under the interleaved runner; whatever
the interleaving and abort history, the final account state must be
(a) money-conserving and (b) equal to *some* serial execution of the
committed transfers — which for commutative transfers reduces to the
multiset of committed (source, target, amount) deltas.
"""

from hypothesis import given, settings, strategies as st

from repro.common.clock import SimClock
from repro.common.metrics import Metrics
from repro.file_service.attributes import LockingLevel
from repro.naming.attributed import AttributedName
from repro.naming.service import NamingService
from repro.simkernel.runner import lock_timeout_runner
from repro.transactions.agent import TransactionAgentHost
from repro.transactions.coordinator import TransactionCoordinator
from repro.transactions.lock_manager import TimeoutPolicy
from repro.workloads.transactions import (
    ACCOUNT_BYTES,
    make_accounts_file,
    read_balance,
    transfer_script,
)
from tests.conftest import build_file_server

NAME = AttributedName.file("/bank")
N_ACCOUNTS = 16
INITIAL = 1000


@st.composite
def transfer_plans(draw):
    n_clients = draw(st.integers(min_value=2, max_value=5))
    plans = []
    for _ in range(n_clients):
        source = draw(st.integers(min_value=0, max_value=N_ACCOUNTS - 1))
        target = draw(
            st.integers(min_value=0, max_value=N_ACCOUNTS - 1).filter(
                lambda t: t != source
            )
        )
        amount = draw(st.integers(min_value=1, max_value=50))
        plans.append((source, target, amount))
    return plans


def run_plan(plans, level):
    clock, metrics = SimClock(), Metrics()
    server = build_file_server(clock, metrics)
    naming = NamingService(metrics)
    coordinator = TransactionCoordinator(
        clock, metrics, policy=TimeoutPolicy(lt_us=1_000_000, max_renewals=4)
    )
    coordinator.register_volume(server)
    host = TransactionAgentHost("m0", naming, coordinator, clock, metrics)
    make_accounts_file(host, NAME, N_ACCOUNTS, locking_level=level)

    runner = lock_timeout_runner(clock, coordinator, think_time_us=50)
    for source, target, amount in plans:
        runner.add_client(transfer_script(host, NAME, source, target, amount))
    report = runner.run()
    tid = host.tbegin()
    descriptor = host.topen(tid, NAME)
    raw = host.tpread(tid, descriptor, N_ACCOUNTS * ACCOUNT_BYTES, 0)
    host.tend(tid)
    balances = [
        read_balance(raw[index * ACCOUNT_BYTES : (index + 1) * ACCOUNT_BYTES])
        for index in range(N_ACCOUNTS)
    ]
    return report, balances


class TestSerializability:
    @given(transfer_plans())
    @settings(max_examples=15, deadline=None)
    def test_record_level_matches_serial_oracle(self, plans):
        report, balances = run_plan(plans, LockingLevel.RECORD)
        assert report.total_commits == len(plans)
        expected = [INITIAL] * N_ACCOUNTS
        for source, target, amount in plans:  # transfers commute
            expected[source] -= amount
            expected[target] += amount
        assert balances == expected

    @given(transfer_plans())
    @settings(max_examples=8, deadline=None)
    def test_file_level_matches_serial_oracle(self, plans):
        report, balances = run_plan(plans, LockingLevel.FILE)
        assert report.total_commits == len(plans)
        expected = [INITIAL] * N_ACCOUNTS
        for source, target, amount in plans:
            expected[source] -= amount
            expected[target] += amount
        assert balances == expected

    @given(transfer_plans())
    @settings(max_examples=8, deadline=None)
    def test_page_level_conserves_money(self, plans):
        report, balances = run_plan(plans, LockingLevel.PAGE)
        assert report.total_commits == len(plans)
        assert sum(balances) == N_ACCOUNTS * INITIAL
