"""The lock manager: grants, queues, conversions, 2PL, LT/N timeouts."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import SerializabilityError
from repro.common.ids import SystemName
from repro.common.metrics import Metrics
from repro.transactions.lock_manager import (
    AcquireResult,
    LockManager,
    TimeoutPolicy,
)
from repro.transactions.locks import (
    LockMode,
    file_item,
    locks_compatible,
    page_item,
    record_item,
)
from repro.transactions.transaction import (
    Transaction,
    TransactionPhase,
    TransactionStatus,
)

NAME = SystemName(0, 10, 1)
ITEM = record_item(NAME, 0, 100)


def build(lt_us=1000, max_renewals=3):
    clock = SimClock()
    manager = LockManager(
        clock, Metrics(), TimeoutPolicy(lt_us=lt_us, max_renewals=max_renewals)
    )
    return manager, clock


def txn(tid):
    return Transaction(tid=tid, machine_id="m0", process_id=0)


class TestGrants:
    def test_free_item_grants_any_mode(self):
        for mode in LockMode:
            manager, _ = build()
            assert manager.acquire(txn(1), ITEM, mode) is AcquireResult.GRANTED

    def test_readers_share(self):
        manager, _ = build()
        assert manager.acquire(txn(1), ITEM, LockMode.RO) is AcquireResult.GRANTED
        assert manager.acquire(txn(2), ITEM, LockMode.RO) is AcquireResult.GRANTED

    def test_single_iread_among_readers(self):
        manager, _ = build()
        manager.acquire(txn(1), ITEM, LockMode.RO)
        assert manager.acquire(txn(2), ITEM, LockMode.IR) is AcquireResult.GRANTED
        assert manager.acquire(txn(3), ITEM, LockMode.IR) is AcquireResult.WAITING

    def test_iread_blocks_new_readers(self):
        manager, _ = build()
        manager.acquire(txn(1), ITEM, LockMode.IR)
        assert manager.acquire(txn(2), ITEM, LockMode.RO) is AcquireResult.WAITING

    def test_iwrite_exclusive(self):
        manager, _ = build()
        manager.acquire(txn(1), ITEM, LockMode.IW)
        for mode in LockMode:
            assert manager.acquire(txn(2), ITEM, mode) is AcquireResult.WAITING

    def test_reacquire_held_lock_is_granted(self):
        manager, _ = build()
        transaction = txn(1)
        manager.acquire(transaction, ITEM, LockMode.IW)
        assert manager.acquire(transaction, ITEM, LockMode.RO) is (
            AcquireResult.GRANTED
        )

    def test_disjoint_records_do_not_interact(self):
        manager, _ = build()
        manager.acquire(txn(1), record_item(NAME, 0, 50), LockMode.IW)
        assert (
            manager.acquire(txn(2), record_item(NAME, 50, 50), LockMode.IW)
            is AcquireResult.GRANTED
        )


class TestConversion:
    def test_ir_to_iw_upgrade_when_alone(self):
        """'A transaction can set an Iwrite lock ... provided the data
        item is Iread locked by the same transaction.'"""
        manager, _ = build()
        transaction = txn(1)
        manager.acquire(transaction, ITEM, LockMode.IR)
        assert manager.acquire(transaction, ITEM, LockMode.IW) is (
            AcquireResult.GRANTED
        )
        assert manager.is_granted(transaction, ITEM, LockMode.IW)

    def test_upgrade_jumps_the_wait_queue(self):
        """A conversion must not wait behind queued strangers — that
        would deadlock the holder with its own waiters."""
        manager, _ = build()
        holder, waiter = txn(1), txn(2)
        manager.acquire(holder, ITEM, LockMode.IR)
        manager.acquire(waiter, ITEM, LockMode.IR)  # queued
        assert manager.acquire(holder, ITEM, LockMode.IW) is AcquireResult.GRANTED

    def test_upgrade_waits_for_other_readers(self):
        manager, _ = build()
        holder, reader = txn(1), txn(2)
        manager.acquire(reader, ITEM, LockMode.RO)
        manager.acquire(holder, ITEM, LockMode.IR)
        assert manager.acquire(holder, ITEM, LockMode.IW) is AcquireResult.WAITING
        # Reader releases: the conversion must be promoted.
        manager.release_all(reader)
        assert manager.is_granted(holder, ITEM, LockMode.IW)


class TestTwoPhaseRule:
    def test_acquire_in_unlock_phase_rejected(self):
        manager, _ = build()
        transaction = txn(1)
        transaction.phase = TransactionPhase.UNLOCKING
        with pytest.raises(SerializabilityError):
            manager.acquire(transaction, ITEM, LockMode.RO)

    def test_release_promotes_fifo(self):
        manager, _ = build()
        holder, first, second = txn(1), txn(2), txn(3)
        manager.acquire(holder, ITEM, LockMode.IW)
        manager.acquire(first, ITEM, LockMode.IW)
        manager.acquire(second, ITEM, LockMode.IW)
        manager.release_all(holder)
        assert manager.is_granted(first, ITEM, LockMode.IW)
        assert not manager.is_granted(second, ITEM, LockMode.IW)

    def test_release_promotes_reader_group(self):
        manager, _ = build()
        writer, r1, r2 = txn(1), txn(2), txn(3)
        manager.acquire(writer, ITEM, LockMode.IW)
        manager.acquire(r1, ITEM, LockMode.RO)
        manager.acquire(r2, ITEM, LockMode.RO)
        manager.release_all(writer)
        assert manager.is_granted(r1, ITEM, LockMode.RO)
        assert manager.is_granted(r2, ITEM, LockMode.RO)


@pytest.mark.parametrize("held", list(LockMode), ids=lambda mode: mode.name)
@pytest.mark.parametrize("requested", list(LockMode), ids=lambda mode: mode.name)
class TestTable1OnBothGrantPaths:
    """One rule decides a request arriving and a queued one promoted."""

    def test_arrival(self, held, requested):
        manager, _ = build()
        x, y = txn(1), txn(2)
        manager.acquire(x, ITEM, held)
        result = manager.acquire(y, ITEM, requested)
        assert (result is AcquireResult.GRANTED) == locks_compatible(held, requested)

    def test_promotion(self, held, requested):
        manager, _ = build()
        z, x, y = txn(1), txn(2), txn(3)
        manager.acquire(z, ITEM, LockMode.IW)
        assert manager.acquire(x, ITEM, held) is AcquireResult.WAITING
        assert manager.acquire(y, ITEM, requested) is AcquireResult.WAITING
        manager.release_all(z)
        assert manager.is_granted(x, ITEM, held)
        assert manager.is_granted(y, ITEM, requested) == locks_compatible(
            held, requested
        )


class TestTimeouts:
    def test_uncontended_lock_renews(self):
        manager, clock = build(lt_us=1000, max_renewals=3)
        holder = txn(1)
        manager.acquire(holder, ITEM, LockMode.IW)
        clock.advance_us(1001)
        assert manager.expire(clock.now_us) == []
        assert holder.is_live

    def test_contended_lock_broken_at_first_expiry(self):
        """'After the expiry of LT, if no other transaction is competing
        ... allowed to remain invulnerable' — competitors break it."""
        manager, clock = build(lt_us=1000)
        holder, waiter = txn(1), txn(2)
        manager.acquire(holder, ITEM, LockMode.IW)
        manager.acquire(waiter, ITEM, LockMode.IW)
        clock.advance_us(1001)
        victims = manager.expire(clock.now_us)
        assert victims == [holder]
        assert holder.status is TransactionStatus.ABORTED
        assert holder.abort_reason == "lock-timeout"
        assert manager.is_granted(waiter, ITEM, LockMode.IW)  # promoted

    def test_nth_expiry_aborts_even_uncontended(self):
        """'After the Nth expiry of LT ... its lock is broken and the
        transaction is aborted regardless.'"""
        manager, clock = build(lt_us=1000, max_renewals=3)
        holder = txn(1)
        manager.acquire(holder, ITEM, LockMode.IW)
        for _ in range(2):
            clock.advance_us(1001)
            assert manager.expire(clock.now_us) == []
        clock.advance_us(1001)
        assert manager.expire(clock.now_us) == [holder]

    def test_lock_lives_at_most_n_times_lt(self):
        manager, clock = build(lt_us=1000, max_renewals=4)
        holder = txn(1)
        manager.acquire(holder, ITEM, LockMode.IW)
        granted_at = clock.now_us
        while holder.is_live:
            nxt = manager.next_expiry_us()
            assert nxt is not None
            clock.advance_to(nxt)
            manager.expire(clock.now_us)
        assert clock.now_us - granted_at <= 4 * 1000 + 4

    def test_next_expiry_none_when_idle(self):
        manager, _ = build()
        assert manager.next_expiry_us() is None

    def test_policy_validated(self):
        with pytest.raises(ValueError):
            TimeoutPolicy(lt_us=0)
        with pytest.raises(ValueError):
            TimeoutPolicy(max_renewals=0)


class TestLockTableShape:
    def test_one_table_for_every_level(self):
        """One lock table per volume holds every granularity's records."""
        manager, _ = build()
        transaction = txn(1)
        manager.acquire(transaction, record_item(NAME, 0, 10), LockMode.RO)
        manager.acquire(transaction, page_item(NAME, 0, 4096), LockMode.RO)
        manager.acquire(transaction, file_item(NAME), LockMode.RO)

        assert manager.table.record_count() == 3
        assert sorted(
            record.item.level.name for record in manager.table.all_granted()
        ) == ["FILE", "PAGE", "RECORD"]

    def test_get_lock_record_fields(self):
        manager, clock = build()
        transaction = txn(7)
        manager.acquire(transaction, ITEM, LockMode.IR, process_id=99)

        record = manager.table.get_lock_record(7, ITEM)
        assert record is not None
        assert record.process_id == 99
        assert record.mode is LockMode.IR
        assert record.granted
        assert record.retry_count == 0
        assert record.item == ITEM
