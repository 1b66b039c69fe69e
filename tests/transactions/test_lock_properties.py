"""Property tests: lock-manager invariants under random schedules.

Whatever sequence of acquires, releases and timeouts arrives, at
whatever granularities, the manager must never grant two incompatible
locks on overlapping bytes to different transactions, and every waiter
must eventually be served once holders drain (no lost wakeups).
"""

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.common.clock import SimClock
from repro.common.ids import SystemName
from repro.common.metrics import Metrics
from repro.file_service.attributes import LockingLevel
from repro.transactions.lock_manager import LockManager, TimeoutPolicy
from repro.transactions.locks import (
    DataItem,
    LockMode,
    file_item,
    locks_compatible,
    page_item,
    record_item,
)
from repro.transactions.transaction import Transaction, TransactionPhase

NAME = SystemName(0, 1, 1)
MODES = [LockMode.RO, LockMode.IR, LockMode.IW]


@st.composite
def schedules(draw):
    n_transactions = draw(st.integers(min_value=2, max_value=6))
    n_ops = draw(st.integers(min_value=1, max_value=40))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["acquire", "release"]))
        txn_index = draw(st.integers(min_value=0, max_value=n_transactions - 1))
        if kind == "acquire":
            lo = draw(st.integers(min_value=0, max_value=80))
            length = draw(st.integers(min_value=1, max_value=40))
            mode = draw(st.sampled_from(MODES))
            ops.append(("acquire", txn_index, lo, length, mode))
        else:
            ops.append(("release", txn_index, 0, 0, None))
    return n_transactions, ops


def overlap(a: DataItem, b: DataItem) -> bool:
    """The same bytes of one file, whatever the granularities (stated
    here, not read from the code under test)."""
    return a.name == b.name and a.lo < b.hi and b.lo < a.hi


def check_no_incompatible_grants(manager: LockManager) -> None:
    """Over all three tables: overlapping bytes conflict at any level."""
    granted = [
        record for table in manager.tables.values() for record in table.all_granted()
    ]
    for i, a in enumerate(granted):
        for b in granted[i + 1 :]:
            if a.tid == b.tid or not overlap(a.item, b.item):
                continue
            # At least one direction must be a compatible share;
            # RO+RO and RO+single-IR are the only legal overlaps.
            legal = (
                locks_compatible(a.mode, b.mode)
                or locks_compatible(b.mode, a.mode)
            )
            assert legal, (
                f"incompatible grants coexist: txn {a.tid} {a.mode} on "
                f"{a.item} and txn {b.tid} {b.mode} on {b.item}"
            )


class TestLockManagerInvariants:
    @given(schedules())
    @settings(max_examples=80, deadline=None)
    def test_never_two_incompatible_grants(self, schedule):
        n_transactions, ops = schedule
        manager = LockManager(SimClock(), Metrics())
        transactions = [
            Transaction(tid=index + 1, machine_id="m", process_id=0)
            for index in range(n_transactions)
        ]
        for kind, txn_index, lo, length, mode in ops:
            transaction = transactions[txn_index]
            if kind == "acquire":
                if transaction.phase is TransactionPhase.LOCKING:
                    manager.acquire(
                        transaction, record_item(NAME, lo, length), mode
                    )
            else:
                manager.release_all(transaction)
            check_no_incompatible_grants(manager)

    @given(schedules())
    @settings(max_examples=60, deadline=None)
    def test_draining_all_holders_serves_every_live_waiter_eventually(
        self, schedule
    ):
        """Release every transaction one by one: afterwards no waiting
        records can remain (no lost wakeups)."""
        n_transactions, ops = schedule
        manager = LockManager(SimClock(), Metrics())
        transactions = [
            Transaction(tid=index + 1, machine_id="m", process_id=0)
            for index in range(n_transactions)
        ]
        for kind, txn_index, lo, length, mode in ops:
            transaction = transactions[txn_index]
            if kind == "acquire":
                manager.acquire(transaction, record_item(NAME, lo, length), mode)
            else:
                manager.release_all(transaction)
        for transaction in transactions:
            manager.release_all(transaction)
        for table in manager.tables.values():
            assert table.all_waiting() == []
            assert table.all_granted() == []

    @given(schedules())
    @settings(max_examples=40, deadline=None)
    def test_ro_overlaps_never_include_two_ir(self, schedule):
        """The single-IR rule holds at every step."""
        n_transactions, ops = schedule
        manager = LockManager(SimClock(), Metrics())
        transactions = [
            Transaction(tid=index + 1, machine_id="m", process_id=0)
            for index in range(n_transactions)
        ]
        for kind, txn_index, lo, length, mode in ops:
            transaction = transactions[txn_index]
            if kind == "acquire":
                manager.acquire(transaction, record_item(NAME, lo, length), mode)
            else:
                manager.release_all(transaction)
            for table in manager.tables.values():
                granted = [r for r in table.all_granted() if r.mode is LockMode.IR]
                for i, a in enumerate(granted):
                    for b in granted[i + 1 :]:
                        if a.tid != b.tid:
                            assert not a.item.conflicts_with(b.item)


FILES = [SystemName(0, 1, 1), SystemName(0, 2, 1)]
PAGE_SIZE = 16


class GrantRuleMachine(RuleBasedStateMachine):
    """Four transactions lock records, pages and whole files of two
    files; a transaction that releases or times out is replaced by a
    fresh one.  After every step the grants obey Table 1 across levels."""

    def __init__(self):
        super().__init__()
        self.clock = SimClock()
        self.manager = LockManager(
            self.clock, Metrics(), TimeoutPolicy(lt_us=100, max_renewals=2)
        )
        self.next_tid = 1
        self.transactions = [self._fresh() for _ in range(4)]

    def _fresh(self) -> Transaction:
        transaction = Transaction(tid=self.next_tid, machine_id="m", process_id=0)
        self.next_tid += 1
        return transaction

    @rule(
        slot=st.integers(0, 3),
        name=st.sampled_from(FILES),
        level=st.sampled_from(
            [LockingLevel.RECORD, LockingLevel.PAGE, LockingLevel.FILE]
        ),
        lo=st.integers(0, 3 * PAGE_SIZE - 1),
        length=st.integers(1, PAGE_SIZE),
        mode=st.sampled_from(MODES),
    )
    def acquire(self, slot, name, level, lo, length, mode):
        if level is LockingLevel.FILE:
            item = file_item(name)
        elif level is LockingLevel.PAGE:
            item = page_item(name, lo // PAGE_SIZE, PAGE_SIZE)
        else:
            item = record_item(name, lo, length)
        self.manager.acquire(self.transactions[slot], item, mode)

    @rule(slot=st.integers(0, 3))
    def release_all(self, slot):
        self.manager.release_all(self.transactions[slot])
        self.transactions[slot] = self._fresh()

    @rule(elapsed_us=st.integers(1, 150))
    def expire(self, elapsed_us):
        self.clock.advance_us(elapsed_us)
        victims = self.manager.expire(self.clock.now_us)
        self.transactions = [
            self._fresh() if any(t is v for v in victims) else t
            for t in self.transactions
        ]

    @invariant()
    def grants_obey_table_1_across_levels(self):
        check_no_incompatible_grants(self.manager)


class TestGrantRuleAcrossLevels:
    def test_no_unrelated_grants_overlap_against_table_1(self):
        run_state_machine_as_test(
            GrantRuleMachine,
            settings=settings(max_examples=60, stateful_step_count=30, deadline=None),
        )
