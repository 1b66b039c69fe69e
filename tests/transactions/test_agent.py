"""The transaction agent: t* operations, isolation, dynamic lifecycle."""

import os

import pytest

from repro.common.clock import SimClock
from repro.common.errors import (
    BadDescriptorError,
    InvalidTransactionStateError,
    LockTimeoutError,
)
from repro.common.metrics import Metrics
from repro.file_service.attributes import LockingLevel, ServiceType
from repro.naming.attributed import AttributedName
from repro.naming.service import NamingService
from repro.simkernel.runner import LockWaitPending
from repro.transactions.agent import TransactionAgentHost
from repro.transactions.coordinator import TransactionCoordinator
from repro.transactions.lock_manager import TimeoutPolicy
from tests.conftest import build_file_server


def build(policy=None):
    clock, metrics = SimClock(), Metrics()
    server = build_file_server(clock, metrics)
    naming = NamingService(metrics)
    coordinator = TransactionCoordinator(clock, metrics, policy=policy)
    coordinator.register_volume(server)
    host = TransactionAgentHost("m0", naming, coordinator, clock, metrics)
    return host, server, naming, coordinator, metrics


NAME = AttributedName.file("/txn/data")


class TestDynamicLifecycle:
    def test_agent_spawns_on_first_tbegin(self):
        """Paper section 6: 'the first request to initiate a transaction
        ... brings this process into existence'."""
        host, *_ = build()
        assert not host.agent_exists
        tid = host.tbegin()
        assert host.agent_exists
        host.tabort(tid)
        assert not host.agent_exists

    def test_agent_survives_until_last_transaction_ends(self):
        host, *_ = build()
        tid1 = host.tbegin()
        tid2 = host.tbegin()
        host.tabort(tid1)
        assert host.agent_exists
        host.tabort(tid2)
        assert not host.agent_exists

    def test_spawn_exit_metrics(self):
        host, _, _, _, metrics = build()
        for _ in range(3):
            tid = host.tbegin()
            host.tabort(tid)
        assert metrics.get("transaction_agent.m0.spawns") == 3
        assert metrics.get("transaction_agent.m0.exits") == 3

    def test_ops_require_an_agent(self):
        host, *_ = build()
        with pytest.raises(InvalidTransactionStateError):
            host.topen(1, NAME)

    def test_agent_exits_with_a_parent_that_takes_its_child(self):
        """Aborting a parent cascades to its child; neither may keep
        the agent alive."""
        host, _, _, _, metrics = build()
        parent = host.tbegin()
        host.tbegin(parent=parent)
        host.tabort(parent)
        assert not host.agent_exists
        assert metrics.get("transaction_agent.m0.exits") == 1

    def test_failed_tbegin_spawns_nothing(self):
        host, _, _, _, metrics = build()
        with pytest.raises(InvalidTransactionStateError):
            host.tbegin(parent=987654)
        assert not host.agent_exists
        assert metrics.get("transaction_agent.m0.spawns") == 0

    def test_agent_exits_when_an_op_finds_its_last_transaction_aborted(self):
        """A lock-timeout abort surfacing through any operation — here
        topen, which runs no data-plane lock — ends the transaction."""
        host, _, _, coordinator, metrics = build(
            TimeoutPolicy(lt_us=1000, max_renewals=1)
        )
        tid = host.tbegin()
        host.tcreate(tid, NAME)  # holds an IW lock on the new file
        coordinator.clock.advance_us(1001)
        assert coordinator.expire_locks(coordinator.clock.now_us)
        with pytest.raises(LockTimeoutError):
            host.topen(tid, NAME)
        assert not host.agent_exists
        assert metrics.get("transaction_agent.m0.spawns") == 1
        assert metrics.get("transaction_agent.m0.exits") == 1


class TestCreateCommitAbort:
    def test_committed_create_persists(self):
        host, server, naming, *_ = build()
        tid = host.tbegin()
        descriptor = host.tcreate(tid, NAME)
        host.twrite(tid, descriptor, b"durable")
        host.tend(tid)
        system_name = naming.resolve_file(NAME)
        assert server.read(system_name, 0, 7) == b"durable"
        assert server.get_attribute(system_name).service_type is (
            ServiceType.TRANSACTION
        )

    def test_aborted_create_vanishes(self):
        host, server, naming, *_ = build()
        tid = host.tbegin()
        descriptor = host.tcreate(tid, NAME)
        host.twrite(tid, descriptor, b"ghost")
        host.tabort(tid)
        assert NAME not in naming

    def test_aborted_writes_discarded(self):
        host, server, naming, *_ = build()
        tid = host.tbegin()
        descriptor = host.tcreate(tid, NAME)
        host.twrite(tid, descriptor, b"base")
        host.tend(tid)
        tid2 = host.tbegin()
        descriptor = host.topen(tid2, NAME)
        host.twrite(tid2, descriptor, b"XXXX")
        host.tabort(tid2)
        assert server.read(naming.resolve_file(NAME), 0, 4) == b"base"

    def test_commit_after_abort_rejected(self):
        host, *_ = build()
        tid = host.tbegin()
        host.tabort(tid)
        with pytest.raises(InvalidTransactionStateError):
            host.tend(tid)

    def test_tdelete_applies_at_commit(self):
        host, server, naming, *_ = build()
        tid = host.tbegin()
        host.tcreate(tid, NAME)
        host.tend(tid)
        system_name = naming.resolve_file(NAME)
        tid2 = host.tbegin()
        host.tdelete(tid2, NAME)
        host.tend(tid2)
        assert NAME not in naming
        assert not server.exists(system_name)

    def test_tdelete_undone_by_abort(self):
        host, server, naming, *_ = build()
        tid = host.tbegin()
        host.tcreate(tid, NAME)
        host.tend(tid)
        tid2 = host.tbegin()
        host.tdelete(tid2, NAME)
        host.tabort(tid2)
        assert NAME in naming or naming.resolve_file(NAME)


class TestIsolation:
    def test_read_your_own_writes(self):
        host, *_ = build()
        tid = host.tbegin()
        descriptor = host.tcreate(tid, NAME)
        host.twrite(tid, descriptor, b"mine")
        assert host.tpread(tid, descriptor, 4, 0) == b"mine"
        host.tend(tid)

    def test_tentative_invisible_to_basic_service(self):
        """Tentative data items are 'invisible to other transactions'
        (section 6.2) — and to the basic service, until commit."""
        host, server, naming, *_ = build()
        tid = host.tbegin()
        host.tcreate(tid, NAME)
        host.tend(tid)
        system_name = naming.resolve_file(NAME)
        tid2 = host.tbegin()
        descriptor = host.topen(tid2, NAME)
        host.twrite(tid2, descriptor, b"pending!")
        assert server.read(system_name, 0, 8) == b""  # nothing yet
        host.tend(tid2)
        assert server.read(system_name, 0, 8) == b"pending!"

    def test_conflicting_writer_blocks(self):
        host, *_ = build()
        t1 = host.tbegin()
        d1 = host.tcreate(t1, NAME, locking_level=LockingLevel.PAGE)
        host.twrite(t1, d1, b"held")
        t2 = host.tbegin()
        with pytest.raises(LockWaitPending):
            host.topen(t2, NAME) and None
            d2 = host.topen(t2, NAME)
            host.tpread(t2, d2, 4, 0)
        host.tend(t1)
        host.tabort(t2)

    def test_tget_attribute_sees_tentative_size(self):
        host, *_ = build()
        tid = host.tbegin()
        descriptor = host.tcreate(tid, NAME)
        host.twrite(tid, descriptor, b"x" * 5000)
        assert host.tget_attribute(tid, descriptor).file_size == 5000
        host.tend(tid)


class TestPositions:
    def test_tread_twrite_positions(self):
        host, *_ = build()
        tid = host.tbegin()
        descriptor = host.tcreate(tid, NAME)
        host.twrite(tid, descriptor, b"0123456789")
        host.tlseek(tid, descriptor, 0)
        assert host.tread(tid, descriptor, 4) == b"0123"
        assert host.tread(tid, descriptor, 4) == b"4567"
        host.tend(tid)

    def test_tlseek_whences(self):
        host, *_ = build()
        tid = host.tbegin()
        descriptor = host.tcreate(tid, NAME)
        host.twrite(tid, descriptor, b"0123456789")
        assert host.tlseek(tid, descriptor, -3, os.SEEK_END) == 7
        assert host.tread(tid, descriptor, 3) == b"789"
        host.tend(tid)

    def test_tclose_keeps_locks(self):
        """Closing a descriptor must not release locks — strict 2PL
        holds them until tend/tabort."""
        host, *_ = build()
        t1 = host.tbegin()
        d1 = host.tcreate(t1, NAME, locking_level=LockingLevel.PAGE)
        host.twrite(t1, d1, b"locked")
        host.tclose(t1, d1)
        t2 = host.tbegin()
        d2 = host.topen(t2, NAME)
        with pytest.raises(LockWaitPending):
            host.tpread(t2, d2, 4, 0)
        host.tend(t1)
        host.tabort(t2)

    def test_bad_descriptor(self):
        host, *_ = build()
        tid = host.tbegin()
        with pytest.raises(BadDescriptorError):
            host.tread(tid, 42, 1)
        host.tabort(tid)


class TestDefaultLockingLevel:
    def test_cold_files_default_to_page(self):
        host, server, naming, coordinator, _ = build()
        tid = host.tbegin()
        host.tcreate(tid, NAME)  # open_count_total == 0
        host.tend(tid)
        tid2 = host.tbegin()
        descriptor = host.topen(tid2, NAME)
        host.twrite(tid2, descriptor, b"x")
        assert any(
            record.item.level is LockingLevel.PAGE
            for record in coordinator.lock_manager(0).table.all_granted()
        )
        host.tend(tid2)

    def test_hot_files_default_to_record(self):
        """Section 7: the default level 'exploits the knowledge of how
        frequently a file is used'."""
        host, server, naming, coordinator, _ = build()
        tid = host.tbegin()
        host.tcreate(tid, NAME)
        host.tend(tid)
        for _ in range(10):  # heat the file up
            tid = host.tbegin()
            host.topen(tid, NAME)
            host.tend(tid)
        tid = host.tbegin()
        descriptor = host.topen(tid, NAME)
        host.twrite(tid, descriptor, b"y")
        assert any(
            record.item.level is LockingLevel.RECORD
            for record in coordinator.lock_manager(0).table.all_granted()
        )
        host.tend(tid)
