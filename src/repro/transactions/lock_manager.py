"""The lock tables and lock manager: Table 1, wait queues, timeouts.

Paper section 6.5: "A lock table is a list of records: process
identifier, transaction descriptor, phase of the transaction, type of
lock, lock granted or not, retry count, descriptor of data item, and
references to the same transaction and same data items. ... For each
level of locking, a file server maintains a separate lock table" —
which "significantly reduces the number of records managed by each
lock table".  Records waiting on the same data item form a FIFO queue
so the first waiter acquires the lock as soon as the holder commits or
aborts.

One function, :meth:`LockManager._may_grant`, decides every grant: a
request arriving (``acquire``) and a queued one after a release
(``_promote``).  It reads Table 1 only through
:func:`~repro.transactions.locks.locks_compatible`.

Section 6.4 (deadlock): each granted lock is invulnerable for a
period **LT**.  At each expiry, if another transaction is competing
for the item the lock is broken and its holder aborted; if nobody is
competing it is renewed, up to **N** renewals, after which the holder
is aborted regardless ("it is suspected that the transaction is
deadlocked").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.clock import SimClock
from repro.common.errors import SerializabilityError
from repro.common.ids import SystemName
from repro.common.metrics import Metrics
from repro.file_service.attributes import LockingLevel
from repro.transactions.locks import DataItem, LockMode, locks_compatible
from repro.transactions.transaction import (
    Transaction,
    TransactionPhase,
    TransactionStatus,
)

#: Mode ordering for upgrades: a held mode covers any weaker request.
_STRENGTH = {LockMode.RO: 0, LockMode.IR: 1, LockMode.IW: 2}


@dataclass(frozen=True, slots=True)
class TimeoutPolicy:
    """The LT / N knobs of the paper's timeout deadlock resolution.

    "Computing a value for the timeout period is not a simple matter"
    (section 6.4) — which is exactly why these are parameters, swept by
    experiments E8 and A2.
    """

    lt_us: int = 200_000
    max_renewals: int = 3

    def __post_init__(self) -> None:
        if self.lt_us <= 0 or self.max_renewals < 1:
            raise ValueError("LT must be positive and N >= 1")


class AcquireResult(enum.Enum):
    GRANTED = "granted"
    WAITING = "waiting"


@dataclass
class LockRecord:
    """One row of a lock table (paper section 6.5's field list)."""

    process_id: int
    transaction: Transaction
    phase: TransactionPhase
    mode: LockMode
    granted: bool
    retry_count: int  # renewals consumed (the paper's retry count)
    item: DataItem
    enqueued_at_us: int = 0
    granted_at_us: int = 0
    next_expiry_us: int = 0

    @property
    def tid(self) -> int:
        return self.transaction.tid


class LockTable:
    """All lock records of one granularity level for one file server."""

    def __init__(self, level: LockingLevel) -> None:
        self.level = level
        # Per-file lists model the paper's same-data-item queues; order
        # within the waiting list is FIFO.
        self._granted: Dict[SystemName, List[LockRecord]] = {}
        self._waiting: Dict[SystemName, List[LockRecord]] = {}

    # ------------------------------------------------------- queries

    def granted_on(self, item: DataItem) -> List[LockRecord]:
        return [
            record
            for record in self._granted.get(item.name, [])
            if record.item.conflicts_with(item)
        ]

    def waiting_on(self, item: DataItem) -> List[LockRecord]:
        return [
            record
            for record in self._waiting.get(item.name, [])
            if record.item.conflicts_with(item)
        ]

    def records_of(self, tid: int) -> List[LockRecord]:
        found = []
        for table in (self._granted, self._waiting):
            for records in table.values():
                found.extend(record for record in records if record.tid == tid)
        return found

    def all_granted(self) -> List[LockRecord]:
        return [record for records in self._granted.values() for record in records]

    def all_waiting(self) -> List[LockRecord]:
        return [record for records in self._waiting.values() for record in records]

    def get_lock_record(
        self, tid: int, item: DataItem, *, granted_only: bool = False
    ) -> Optional[LockRecord]:
        """The paper's get-lock-record operation."""
        for record in self._granted.get(item.name, []):
            if record.tid == tid and record.item == item:
                return record
        if granted_only:
            return None
        for record in self._waiting.get(item.name, []):
            if record.tid == tid and record.item == item:
                return record
        return None

    def record_count(self) -> int:
        return len(self.all_granted()) + len(self.all_waiting())

    # ------------------------------------------------------- updates

    def add_granted(self, record: LockRecord) -> None:
        record.granted = True
        self._granted.setdefault(record.item.name, []).append(record)

    def add_waiting(self, record: LockRecord) -> None:
        record.granted = False
        self._waiting.setdefault(record.item.name, []).append(record)

    def remove(self, record: LockRecord) -> None:
        for table in (self._granted, self._waiting):
            records = table.get(record.item.name)
            if records and record in records:
                records.remove(record)
                if not records:
                    del table[record.item.name]

    def remove_transaction(self, tid: int) -> List[LockRecord]:
        removed = self.records_of(tid)
        for record in removed:
            self.remove(record)
        return removed


class LockManager:
    """Lock acquisition, conversion, release, promotion and timeouts.

    One lock manager serves one file server (volume); it keeps the
    paper's three per-granularity lock tables.
    """

    def __init__(
        self,
        clock: SimClock,
        metrics: Metrics,
        policy: TimeoutPolicy | None = None,
        *,
        name: str = "lock_manager",
        cross_level: bool = False,
    ) -> None:
        self.clock = clock
        self.metrics = metrics
        self.policy = policy or TimeoutPolicy()
        self.name = name
        #: The paper assumes "a file cannot be subjected to more than one
        #: level of locking by concurrent transactions" but notes the
        #: constraint "can be relaxed, if required, at a later stage"
        #: (section 6.1).  ``cross_level=True`` is that relaxation:
        #: grants additionally conflict with overlapping byte ranges
        #: held at *other* granularities.
        self.cross_level = cross_level
        self.tables: Dict[LockingLevel, LockTable] = {
            LockingLevel.RECORD: LockTable(LockingLevel.RECORD),
            LockingLevel.PAGE: LockTable(LockingLevel.PAGE),
            LockingLevel.FILE: LockTable(LockingLevel.FILE),
        }

    # ------------------------------------------------------- acquire

    def acquire(
        self,
        transaction: Transaction,
        item: DataItem,
        mode: LockMode,
        *,
        process_id: int = 0,
    ) -> AcquireResult:
        """The paper's set-lock: grant, convert, or enqueue.

        Strict two-phase locking: acquiring in the unlocking phase is a
        serializability violation and raises.
        """
        if transaction.phase is not TransactionPhase.LOCKING:
            raise SerializabilityError(
                f"transaction {transaction.tid} cannot acquire locks in its "
                f"unlocking phase (two-phase rule)"
            )
        table = self.tables[item.level]
        existing = table.get_lock_record(transaction.tid, item, granted_only=True)
        if existing is not None and _STRENGTH[existing.mode] >= _STRENGTH[mode]:
            return AcquireResult.GRANTED
        if transaction.parent is not None and self._ancestry_covers(
            table, transaction, item, mode
        ):
            # A nested transaction inherits access to data its ancestors
            # hold locks on; the ancestor's lock protects the item until
            # the top-level commit, so no new record is needed.
            return AcquireResult.GRANTED
        # A new request queues behind every waiter already there; a
        # conversion (paper 6.3: upgrade in place) jumps the queue.
        ahead = [] if existing is not None else table.waiting_on(item)
        if self._may_grant(table, transaction, item, mode, ahead):
            if existing is None:
                existing = self._new_record(transaction, item, mode, process_id)
                table.add_granted(existing)
            else:
                self.metrics.add(f"{self.name}.conversions")
            self._stamp(existing, mode)
            self.metrics.add(f"{self.name}.grants")
            return AcquireResult.GRANTED
        waiting = table.get_lock_record(transaction.tid, item)
        if waiting is None or waiting.granted:
            record = self._new_record(transaction, item, mode, process_id)
            record.enqueued_at_us = self.clock.now_us
            table.add_waiting(record)
        else:
            waiting.mode = mode  # strengthen the queued request
        self.metrics.add(f"{self.name}.waits")
        return AcquireResult.WAITING

    def is_granted(self, transaction: Transaction, item: DataItem, mode: LockMode) -> bool:
        """Poll used by parked clients: has my queued request been granted?"""
        table = self.tables[item.level]
        record = table.get_lock_record(transaction.tid, item, granted_only=True)
        if record is not None and _STRENGTH[record.mode] >= _STRENGTH[mode]:
            return True
        return transaction.parent is not None and self._ancestry_covers(
            table, transaction, item, mode
        )

    def _ancestry_covers(
        self,
        table: LockTable,
        transaction: Transaction,
        item: DataItem,
        mode: LockMode,
    ) -> bool:
        """Does an ancestor hold a lock covering ``item`` at >= ``mode``?"""
        for record in table.granted_on(item):
            if (
                record.tid != transaction.tid
                and transaction.is_ancestor_or_self(record.transaction)
                and record.item.lo <= item.lo
                and item.hi <= record.item.hi
                and _STRENGTH[record.mode] >= _STRENGTH[mode]
            ):
                return True
        return False

    def transfer_locks(self, child: Transaction, parent: Transaction) -> int:
        """Anti-inherit a committing child's locks to its parent.

        Granted records are re-owned by the parent (merged into an
        existing parent record on the same item, keeping the stronger
        mode); leftover waiting records are dropped.  Returns the
        number of records transferred or merged.
        """
        moved = 0
        for table in self.tables.values():
            for record in table.records_of(child.tid):
                if not record.granted:
                    table.remove(record)
                    continue
                parent_record = table.get_lock_record(
                    parent.tid, record.item, granted_only=True
                )
                if parent_record is not None:
                    if _STRENGTH[record.mode] > _STRENGTH[parent_record.mode]:
                        parent_record.mode = record.mode
                    table.remove(record)
                else:
                    record.transaction = parent
                moved += 1
        return moved

    # ------------------------------------------------------- release

    def release_all(self, transaction: Transaction) -> None:
        """The unlock phase: drop every lock and promote waiters."""
        affected_levels = []
        for level, table in self.tables.items():
            removed = table.remove_transaction(transaction.tid)
            if removed:
                affected_levels.append(level)
        if self.cross_level and affected_levels:
            # A released record-level lock can unblock a page-level
            # waiter (and vice versa): promote every table.
            affected_levels = list(self.tables)
        for level in affected_levels:
            self._promote(self.tables[level])
        self.metrics.add(f"{self.name}.releases")

    # ------------------------------------------------------ timeouts

    def next_expiry_us(self) -> Optional[int]:
        """Earliest pending lock expiry, or None if nothing is granted."""
        expiries = [
            record.next_expiry_us
            for table in self.tables.values()
            for record in table.all_granted()
        ]
        return min(expiries) if expiries else None

    def expire(self, now_us: int) -> List[Transaction]:
        """Run the LT/N policy; returns transactions aborted by timeout.

        The aborted transactions' locks are broken and their waiters
        promoted; the owners' status is set to ABORTED so their next
        operation surfaces :class:`LockTimeoutError`.
        """
        victims: List[Transaction] = []
        for table in self.tables.values():
            for record in list(table.all_granted()):
                if record.next_expiry_us > now_us or not record.transaction.is_live:
                    continue
                competing = bool(table.waiting_on(record.item))
                record.retry_count += 1
                if competing or record.retry_count >= self.policy.max_renewals:
                    victims.append(record.transaction)
                    self.metrics.add(f"{self.name}.timeout_aborts")
                else:
                    record.next_expiry_us += self.policy.lt_us
                    self.metrics.add(f"{self.name}.renewals")
        for victim in victims:
            if victim.is_live:
                victim.status = TransactionStatus.ABORTED
                victim.abort_reason = "lock-timeout"
            self.release_all(victim)
        return victims

    # ------------------------------------------------------ internal

    def _may_grant(
        self,
        table: LockTable,
        transaction: Transaction,
        item: DataItem,
        mode: LockMode,
        ahead: List[LockRecord],
    ) -> bool:
        """The grant rule, for a request arriving and for one queued.

        Table 1 against every holder outside the requester's ancestry
        (plus, under the cross-level relaxation, overlapping holders at
        other granularities) — ``locks_compatible(IR, IR)`` is False,
        so that is also the single-IR rule.  Then FIFO fairness against
        ``ahead``, the waiters queued before the request: only a reader
        may join readers past reader waiters (an IR/IW waiter ahead
        blocks new ROs, the paper's anti-starvation rule generalised to
        the queue).  A conversion has nobody ahead: making it wait behind
        requests that cannot be granted while it holds its current lock
        would deadlock it with them.
        """
        holders = [
            record
            for record in table.granted_on(item)
            if not transaction.is_ancestor_or_self(record.transaction)
        ]
        if self.cross_level:
            holders += self._cross_level_holders(table, transaction, item)
        return all(
            locks_compatible(record.mode, mode) for record in holders
        ) and all(
            mode is LockMode.RO and record.mode is LockMode.RO
            for record in ahead
            if not transaction.is_ancestor_or_self(record.transaction)
        )

    def _stamp(self, record: LockRecord, mode: LockMode) -> None:
        """Grant ``mode`` on ``record`` now: its LT period starts afresh."""
        record.mode = mode
        record.granted_at_us = self.clock.now_us
        record.next_expiry_us = self.clock.now_us + self.policy.lt_us
        record.retry_count = 0

    def _cross_level_holders(
        self, home_table: LockTable, transaction: Transaction, item: DataItem
    ) -> List[LockRecord]:
        """Granted records at *other* levels overlapping ``item``'s bytes.

        Waiters at other levels are deliberately ignored: cross-level
        grants are blocked only by holders, which keeps the relaxation
        sound (serializability comes from holder conflicts) without
        entangling the per-level FIFO queues; a starving cross-level
        waiter is eventually served by the LT/N timeout machinery.
        """
        holders: List[LockRecord] = []
        for level, table in self.tables.items():
            if table is home_table:
                continue
            for record in table.all_granted():
                if (
                    not transaction.is_ancestor_or_self(record.transaction)
                    and record.item.conflicts_across_levels(item)
                ):
                    holders.append(record)
        return holders

    def _new_record(
        self,
        transaction: Transaction,
        item: DataItem,
        mode: LockMode,
        process_id: int,
    ) -> LockRecord:
        return LockRecord(
            process_id=process_id,
            transaction=transaction,
            phase=transaction.phase,
            mode=mode,
            granted=False,
            retry_count=0,
            item=item,
        )

    def _promote(self, table: LockTable) -> None:
        """Grant queued requests that have become compatible, in FIFO order."""
        changed = True
        while changed:
            changed = False
            for record in list(table.all_waiting()):
                if not record.transaction.is_live:
                    table.remove(record)
                    changed = True
                    continue
                held = table.get_lock_record(
                    record.tid, record.item, granted_only=True
                )
                # Dead waiters ahead were dropped earlier in this pass.
                ahead = []
                if held is None:
                    queue = table.waiting_on(record.item)
                    ahead = queue[: queue.index(record)]
                if self._may_grant(
                    table, record.transaction, record.item, record.mode, ahead
                ):
                    table.remove(record)
                    if held is None:
                        held = record
                        table.add_granted(record)
                    self._stamp(held, record.mode)
                    self.metrics.add(f"{self.name}.promotions")
                    changed = True
