"""T1 — Table 1: lock compatibility, regenerated from the lock manager.

The paper's only table.  For every (held, requested) pair we run the
actual lock manager with two transactions and record whether the second
request is granted ("ok") or queued ("wait"); the same-transaction
conversion column reproduces the footnote "changed to Iwrite by the
same transaction".
"""

from _helpers import print_table
from repro.common.clock import SimClock
from repro.common.ids import SystemName
from repro.common.metrics import Metrics
from repro.transactions.lock_manager import AcquireResult, LockManager
from repro.transactions.locks import LockMode, record_item
from repro.transactions.transaction import Transaction

ITEM = record_item(SystemName(0, 1, 1), 0, 100)


def outcome(held: LockMode | None, requested: LockMode, *, same_txn: bool = False) -> str:
    manager = LockManager(SimClock(), Metrics())
    holder = Transaction(tid=1, machine_id="m", process_id=0)
    requester = holder if same_txn else Transaction(tid=2, machine_id="m", process_id=0)
    if held is not None:
        assert manager.acquire(holder, ITEM, held) is AcquireResult.GRANTED
    result = manager.acquire(requester, ITEM, requested)
    return "ok" if result is AcquireResult.GRANTED else "wait"


def regenerate():
    rows = []
    for held in (None, LockMode.RO, LockMode.IR, LockMode.IW):
        row = ["None" if held is None else held.value]
        for requested in (LockMode.RO, LockMode.IR, LockMode.IW):
            row.append(outcome(held, requested))
        row.append(
            outcome(held, LockMode.IW, same_txn=True) if held is not None else "ok"
        )
        rows.append(row)
    return rows


def test_t1_lock_compatibility():
    rows = regenerate()
    print_table(
        "T1  Table 1: lock compatibility (measured from the lock manager)",
        ["held \\ requested", "read-only", "Iread", "Iwrite", "IW by same txn"],
        rows,
    )
    table = {row[0]: row[1:] for row in rows}
    # Row 'None': everything grants.
    assert table["None"] == ["ok", "ok", "ok", "ok"]
    # Row RO: RO ok, IR ok, IW waits; same-txn RO->IW converts when alone.
    assert table[LockMode.RO.value] == ["ok", "ok", "wait", "ok"]
    # Row IR: nothing new grants (incl. the anti-starvation RO rule),
    # but the same transaction converts IR->IW.
    assert table[LockMode.IR.value] == ["wait", "wait", "wait", "ok"]
    # Row IW: exclusive; reacquisition by the holder is a no-op grant.
    assert table[LockMode.IW.value] == ["wait", "wait", "wait", "ok"]
