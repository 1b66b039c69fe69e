"""Locks conflict across granularities (section 6.1's deferred relaxation).

"To avoid complexity, we will assume that a file cannot be subjected
to more than one level of locking by concurrent transactions.  This
constraint can be relaxed, if required, at a later stage."  The lock
manager always applies that relaxation: a record lock conflicts with
the page containing it and with a whole-file lock, so transactions may
safely mix granularities on one file.
"""

import pytest

from repro.cluster.system import RhodosCluster
from repro.common.clock import SimClock
from repro.common.ids import SystemName
from repro.common.metrics import Metrics
from repro.common.units import BLOCK_SIZE
from repro.file_service.attributes import LockingLevel
from repro.naming.attributed import AttributedName
from repro.naming.service import NamingService
from repro.simdisk.geometry import DiskGeometry
from repro.simkernel.runner import LockWaitPending
from repro.transactions.agent import TransactionAgentHost
from repro.transactions.coordinator import TransactionCoordinator
from repro.transactions.lock_manager import AcquireResult, LockManager
from repro.transactions.locks import (
    LockMode,
    file_item,
    page_item,
    record_item,
)
from repro.transactions.transaction import Transaction
from tests.conftest import build_file_server

NAME = SystemName(0, 10, 1)


def manager():
    return LockManager(SimClock(), Metrics())


def txn(tid):
    return Transaction(tid=tid, machine_id="m", process_id=0)


class TestCrossLevelConflicts:
    def test_record_iw_blocks_overlapping_page(self):
        m = manager()
        holder, other = txn(1), txn(2)
        m.acquire(holder, record_item(NAME, 100, 50), LockMode.IW)
        result = m.acquire(other, page_item(NAME, 0, BLOCK_SIZE), LockMode.IW)
        assert result is AcquireResult.WAITING

    def test_page_iw_blocks_contained_record(self):
        m = manager()
        holder, other = txn(1), txn(2)
        m.acquire(holder, page_item(NAME, 1, BLOCK_SIZE), LockMode.IW)
        inside = record_item(NAME, BLOCK_SIZE + 5, 10)
        assert m.acquire(other, inside, LockMode.RO) is AcquireResult.WAITING
        outside = record_item(NAME, 0, 10)  # page 0: disjoint bytes
        assert m.acquire(other, outside, LockMode.RO) is AcquireResult.GRANTED

    def test_file_lock_blocks_everything(self):
        m = manager()
        holder, other = txn(1), txn(2)
        m.acquire(holder, file_item(NAME), LockMode.IW)
        assert m.acquire(other, record_item(NAME, 0, 1), LockMode.RO) is (
            AcquireResult.WAITING
        )
        assert m.acquire(other, page_item(NAME, 7, BLOCK_SIZE), LockMode.RO) is (
            AcquireResult.WAITING
        )

    def test_readers_share_across_levels(self):
        m = manager()
        m.acquire(txn(1), file_item(NAME), LockMode.RO)
        assert m.acquire(txn(2), record_item(NAME, 0, 8), LockMode.RO) is (
            AcquireResult.GRANTED
        )

    def test_release_promotes_other_level_waiters(self):
        m = manager()
        holder, waiter = txn(1), txn(2)
        m.acquire(holder, record_item(NAME, 0, 100), LockMode.IW)
        item = page_item(NAME, 0, BLOCK_SIZE)
        m.acquire(waiter, item, LockMode.IW)
        m.release_all(holder)
        assert m.is_granted(waiter, item, LockMode.IW)

    def test_same_transaction_may_mix_levels(self):
        m = manager()
        transaction = txn(1)
        assert m.acquire(transaction, file_item(NAME), LockMode.IW) is (
            AcquireResult.GRANTED
        )
        assert m.acquire(
            transaction, record_item(NAME, 0, 8), LockMode.IW
        ) is AcquireResult.GRANTED


class TestOneQueueAcrossLevels:
    """Waiters on the same bytes form one FIFO queue, whatever their
    levels (section 6.5's queue; section 6.3's anti-starvation rule)."""

    def test_a_page_reader_queues_behind_a_record_writer(self):
        m = manager()
        t1, t2, t3, t4 = txn(1), txn(2), txn(3), txn(4)
        record = record_item(NAME, 0, 8)
        page = page_item(NAME, 0, BLOCK_SIZE)
        assert m.acquire(t1, record, LockMode.RO) is AcquireResult.GRANTED
        assert m.acquire(t2, record, LockMode.IW) is AcquireResult.WAITING
        assert m.acquire(t3, record, LockMode.RO) is AcquireResult.WAITING
        # The same bytes at page level: behind the writer too.
        assert m.acquire(t4, page, LockMode.RO) is AcquireResult.WAITING
        m.release_all(t1)
        assert m.is_granted(t2, record, LockMode.IW)
        assert not m.is_granted(t3, record, LockMode.RO)
        assert not m.is_granted(t4, page, LockMode.RO)
        m.release_all(t2)
        assert m.is_granted(t3, record, LockMode.RO)
        assert m.is_granted(t4, page, LockMode.RO)

    @pytest.mark.parametrize(
        "waiter_item",
        [record_item(NAME, 0, 8), page_item(NAME, 0, BLOCK_SIZE)],
        ids=["record", "page"],
    )
    def test_a_holder_asking_at_another_level_does_not_queue(self, waiter_item):
        """T holds page 0; U's writer waits behind it.  T's read of a
        record on that page is granted at once: queueing it behind U,
        who waits for T, would deadlock the two until LT expires."""
        m = manager()
        t, u = txn(1), txn(2)
        assert m.acquire(t, page_item(NAME, 0, BLOCK_SIZE), LockMode.RO) is (
            AcquireResult.GRANTED
        )
        assert m.acquire(u, waiter_item, LockMode.IW) is AcquireResult.WAITING
        assert m.acquire(t, record_item(NAME, 0, 8), LockMode.RO) is (
            AcquireResult.GRANTED
        )
        m.release_all(t)
        assert m.is_granted(u, waiter_item, LockMode.IW)

    def test_a_partial_holder_queues_behind_a_writer_on_bytes_it_lacks(self):
        """T holds record[0:8]; U's writer waits on record[10:20] behind
        V's reader.  T's read of record[4:20] wants bytes U waits for
        and T does not hold: it queues behind U, not past it."""
        m = manager()
        t, u, v = txn(1), txn(2), txn(3)
        assert m.acquire(t, record_item(NAME, 0, 8), LockMode.RO) is (
            AcquireResult.GRANTED
        )
        assert m.acquire(v, record_item(NAME, 10, 10), LockMode.RO) is (
            AcquireResult.GRANTED
        )
        writer = record_item(NAME, 10, 10)
        assert m.acquire(u, writer, LockMode.IW) is AcquireResult.WAITING
        wide = record_item(NAME, 4, 16)
        assert m.acquire(t, wide, LockMode.RO) is AcquireResult.WAITING
        m.release_all(v)
        assert m.is_granted(u, writer, LockMode.IW)
        assert not m.is_granted(t, wide, LockMode.RO)
        m.release_all(u)
        assert m.is_granted(t, wide, LockMode.RO)


class TestEndToEnd:
    @pytest.fixture
    def stack(self):
        clock, metrics = SimClock(), Metrics()
        server = build_file_server(clock, metrics, geometry=DiskGeometry.small())
        naming = NamingService(metrics)
        coordinator = TransactionCoordinator(clock, metrics)
        coordinator.register_volume(server)
        host = TransactionAgentHost("m0", naming, coordinator, clock, metrics)
        return host, server, naming

    def test_mixed_granularity_transactions_serialise(self, stack):
        host, _, _ = stack
        name = AttributedName.file("/mixed")
        tid = host.tbegin()
        descriptor = host.tcreate(tid, name, locking_level=LockingLevel.RECORD)
        host.twrite(tid, descriptor, b"x" * BLOCK_SIZE)
        host.tend(tid)

        t_record = host.tbegin()
        d_record = host.topen(t_record, name)  # record level (file attr)
        host.tpwrite(t_record, d_record, b"R", 10)

        t_page = host.tbegin()
        d_page = host.topen(t_page, name, locking_level=LockingLevel.PAGE)
        with pytest.raises(LockWaitPending):
            host.tpread(t_page, d_page, 4, 0)  # page 0 overlaps the record
        host.tend(t_record)
        assert host.tpread(t_page, d_page, 1, 10) == b"R"
        host.tend(t_page)

    def test_mixed_granularity_disjoint_bytes_run_concurrently(self, stack):
        host, server, naming = stack
        name = AttributedName.file("/mixed2")
        tid = host.tbegin()
        descriptor = host.tcreate(tid, name, locking_level=LockingLevel.RECORD)
        host.twrite(tid, descriptor, b"y" * (2 * BLOCK_SIZE))
        host.tend(tid)

        t_record = host.tbegin()
        d_record = host.topen(t_record, name)
        host.tpwrite(t_record, d_record, b"A", 10)  # page 0

        t_page = host.tbegin()
        d_page = host.topen(t_page, name, locking_level=LockingLevel.PAGE)
        host.tpwrite(t_page, d_page, b"B" * 4, BLOCK_SIZE)  # page 1: disjoint
        host.tend(t_record)
        host.tend(t_page)
        system_name = naming.resolve_file(name)
        assert server.read(system_name, 10, 1) == b"A"
        assert server.read(system_name, BLOCK_SIZE, 4) == b"BBBB"


class TestADefaultFileChangingLevel:
    """A ``DEFAULT`` file is locked at page level until its 8th open and
    at record level after (section 7, "how frequently a file is used"):
    transactions either side of the switch still conflict on one byte."""

    def test_a_record_level_update_waits_for_a_page_level_one(self):
        cluster = RhodosCluster()
        host = cluster.machine.transactions
        locks = cluster.coordinator.lock_manager(0)
        name = AttributedName.file("/hot")
        tid = host.tbegin()
        host.twrite(tid, host.tcreate(tid, name), b"A" * BLOCK_SIZE)
        host.tend(tid)
        for _ in range(6):
            tid = host.tbegin()
            host.topen(tid, name)
            host.tend(tid)

        t_page = host.tbegin()  # the 8th open: page level
        d_page = host.topen(t_page, name)
        t_record = host.tbegin()  # the 9th: record level
        d_record = host.topen(t_record, name)
        assert host.tpread(t_page, d_page, 8, 0, for_update=True) == b"A" * 8
        with pytest.raises(LockWaitPending):
            host.tpread(t_record, d_record, 8, 0, for_update=True)
        assert [
            (r.tid, r.item.level) for r in locks.table.all_granted()
        ] == [(t_page, LockingLevel.PAGE)]
        assert [
            (r.tid, r.item.level) for r in locks.table.all_waiting()
        ] == [(t_record, LockingLevel.RECORD)]

        host.tpwrite(t_page, d_page, b"B" * 8, 0)
        host.tend(t_page)
        # The waiter reads the committed update: it is not lost.
        assert host.tpread(t_record, d_record, 8, 0, for_update=True) == b"B" * 8
        host.tpwrite(t_record, d_record, b"C" * 4, 0)
        host.tend(t_record)
        tid = host.tbegin()
        assert host.tpread(tid, host.topen(tid, name), 8, 0) == b"CCCCBBBB"
        host.tend(tid)
