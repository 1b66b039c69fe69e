"""The transaction agent: the client interface to the transaction service.

"The transaction agent in RHODOS is a process which allows operations
on a file using the semantics of transactions.  The transaction agent
process is highly dynamic because the first request to initiate a
transaction in a client's machine brings this process into existence
and it ceases to exist as soon as the last transaction in the client's
machine either completes successfully or aborts" (paper section 6).

Operations (their own verbs, so there is "no ambiguity" with the basic
service): tbegin, tcreate, topen, tdelete, tread, tpread, twrite,
tpwrite, tget_attribute, tlseek, tclose, tend, tabort.

Lifecycle: one :class:`TransactionAgentHost` per machine, and the agent
it models exists exactly while its table holds a transaction.  A
``tbegin`` that succeeds enters one; a transaction leaves when it ends
(``tend`` / ``tabort``), when an operation finds it aborted behind its
back, or when its parent ends, taking its descendants with it.  The
``spawns`` / ``exits`` counters tick at the empty ↔ non-empty
transitions.

Blocking: when a lock must wait, operations raise
:class:`~repro.simkernel.runner.LockWaitPending`, which the
interleaved runner turns into parking + retry — the in-simulation
equivalent of the paper's "the transaction will be put into the wait
queue".  A transaction aborted by the timeout policy surfaces
:class:`~repro.common.errors.LockTimeoutError` from its next
operation.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.common.clock import SimClock
from repro.common.errors import (
    BadDescriptorError,
    FileSizeError,
    InvalidTransactionStateError,
    LockTimeoutError,
    TransactionAbortedError,
)
from repro.common.ids import DEVICE_DESCRIPTOR_LIMIT, SystemName
from repro.common.metrics import Metrics
from repro.common.units import BLOCK_SIZE
from repro.file_service.attributes import FileAttributes, LockingLevel, ServiceType
from repro.naming.attributed import AttributedName
from repro.naming.service import NamingService
from repro.simkernel.runner import LockWaitPending
from repro.transactions.coordinator import TransactionCoordinator
from repro.transactions.lock_manager import AcquireResult
from repro.transactions.locks import (
    DataItem,
    FILE_RANGE_END,
    LockMode,
    file_item,
    page_item,
    record_item,
)
from repro.transactions.transaction import (
    TentativeItem,
    Transaction,
    TransactionStatus,
    TxnOpenFile,
)

#: Files opened at least this often get record-level locking under
#: LockingLevel.DEFAULT — "to support default level of locking it
#: exploits the knowledge of how frequently a file is used" (section 7):
#: hot files want maximum concurrency.
_HOT_FILE_OPENS = 8

_FIRST_TXN_DESCRIPTOR = DEVICE_DESCRIPTOR_LIMIT + 500_000


class TransactionAgentHost:
    """Per-machine transaction interface and the agent's lifecycle.

    "The presence of a transaction agent is event driven: it is invoked
    only when there is a need to perform file operations involving
    transactions" (section 7).  ``agent_exists`` and the spawn/exit
    metrics let tests observe exactly that.

    Args:
        machine_id: this machine's id.
        naming: the naming service.
        coordinator: the system-wide transaction coordinator.
        clock, metrics: shared simulation context.
    """

    def __init__(
        self,
        machine_id: str,
        naming: NamingService,
        coordinator: TransactionCoordinator,
        clock: SimClock,
        metrics: Metrics,
    ) -> None:
        self.machine_id = machine_id
        self.naming = naming
        self.coordinator = coordinator
        self.clock = clock
        self.metrics = metrics
        self._prefix = f"transaction_agent.{machine_id}"
        self._transactions: Dict[int, Transaction] = {}
        self._next_descriptor = _FIRST_TXN_DESCRIPTOR

    # ===================================================== lifecycle

    @property
    def agent_exists(self) -> bool:
        return bool(self._transactions)

    def tbegin(self, *, process_id: int = 0, parent: Optional[int] = None) -> int:
        """Start a transaction; returns its transaction descriptor.

        ``parent`` nests the new transaction inside a live one: the
        child shares the parent's locks and tentative view, and its own
        effects reach the disk only when the top-level ancestor commits.
        """
        parent_transaction = None if parent is None else self._live(parent)
        if not self._transactions:
            # The first transaction brings a fresh agent into existence.
            self._next_descriptor = _FIRST_TXN_DESCRIPTOR
            self.metrics.add(f"{self._prefix}.spawns")
        transaction = self.coordinator.begin(
            self.machine_id, process_id, parent=parent_transaction
        )
        self._transactions[transaction.tid] = transaction
        self.metrics.add(f"{self._prefix}.tbegins")
        return transaction.tid

    def tend(self, tid: int) -> None:
        """Commit: tentative changes become permanent, locks released."""
        transaction = self._live(tid)
        self.coordinator.commit(transaction)
        self.metrics.add(f"{self._prefix}.tends")
        self._ended(transaction)

    def tabort(self, tid: int) -> None:
        """Abort: tentative changes discarded, locks released."""
        transaction = self._transactions.get(tid)
        if transaction is None:
            raise InvalidTransactionStateError(f"no transaction {tid}")
        self._unbind_created(transaction)
        self.coordinator.abort(transaction)
        self.metrics.add(f"{self._prefix}.taborts")
        self._ended(transaction)

    def _ended(self, transaction: Transaction) -> None:
        """It and its descendants leave the table; the last one out exits."""
        for tid, member in list(self._transactions.items()):
            if member.is_ancestor_or_self(transaction):
                del self._transactions[tid]
        if not self._transactions:
            self.metrics.add(f"{self._prefix}.exits")

    # ========================================================= files

    def tcreate(
        self,
        tid: int,
        name: AttributedName,
        *,
        volume_id: Optional[int] = None,
        locking_level: LockingLevel = LockingLevel.DEFAULT,
    ) -> int:
        """Create a file inside a transaction; undone if it aborts."""
        transaction = self._live(tid)
        if volume_id is None:
            hinted = name.get("volume")
            volume_id = (
                int(hinted) if hinted is not None else self.coordinator.volume_ids()[0]
            )
        return self._create(transaction, name, volume_id, locking_level)

    def tcreate_system(self, tid: int, *, volume_id: int) -> int:
        """Create an unnamed file transactionally (system services).

        The file gets no attributed-name binding; the caller records
        its system name wherever it keeps references (e.g. a parent
        directory's entry table).  Undone if the transaction aborts.
        """
        return self._create(self._live(tid), None, volume_id, LockingLevel.DEFAULT)

    def _create(
        self,
        transaction: Transaction,
        name: Optional[AttributedName],
        volume_id: int,
        locking_level: LockingLevel,
    ) -> int:
        server = self.coordinator.file_server(volume_id)
        system_name = server.create(
            service_type=ServiceType.TRANSACTION, locking_level=locking_level
        )
        if name is not None:
            self.naming.bind(name, system_name)
        transaction.created_files.append((name, system_name))
        level = self._effective_level(server.get_attribute(system_name))
        # Lock out everyone else until commit: a whole-range exclusive
        # item, which every locker of the file's bytes conflicts with.
        self._acquire(
            transaction,
            DataItem(system_name, level, 0, FILE_RANGE_END),
            LockMode.IW,
        )
        self.metrics.add(f"{self._prefix}.tcreates")
        return self._open_descriptor(transaction, system_name, level)

    def topen(
        self,
        tid: int,
        name: AttributedName,
        *,
        locking_level: Optional[LockingLevel] = None,
    ) -> int:
        """Open a file for transactional I/O; returns an object descriptor.

        ``locking_level`` overrides the file's own level for this open;
        concurrent transactions may so lock one file at different
        granularities, and their locks conflict wherever the bytes
        overlap.
        """
        transaction = self._live(tid)
        return self._open(transaction, self.naming.resolve_file(name), locking_level)

    def topen_system(
        self,
        tid: int,
        system_name: SystemName,
        *,
        locking_level: Optional[LockingLevel] = None,
    ) -> int:
        """Open a file by its system name directly (no naming lookup).

        System services (e.g. the transactional directory layer) hold
        system names that have no attributed-name binding; this is
        their entry into transactional I/O.
        """
        return self._open(self._live(tid), system_name, locking_level)

    def _open(
        self,
        transaction: Transaction,
        system_name: SystemName,
        locking_level: Optional[LockingLevel],
    ) -> int:
        server = self.coordinator.file_server(system_name.volume_id)
        attrs = server.open(system_name)
        if attrs.service_type is not ServiceType.TRANSACTION:
            server.set_service_type(system_name, ServiceType.TRANSACTION)
        level = (
            locking_level
            if locking_level is not None
            else self._effective_level(attrs)
        )
        self.metrics.add(f"{self._prefix}.topens")
        return self._open_descriptor(transaction, system_name, level)

    def tdelete(self, tid: int, name: AttributedName) -> None:
        """Delete a file transactionally: effective only at commit."""
        transaction = self._live(tid)
        self._delete(transaction, name, self.naming.resolve_file(name))
        self.naming.unbind(name)

    def tdelete_system(self, tid: int, system_name: SystemName) -> None:
        """Transactionally delete a file by system name (at commit)."""
        self._delete(self._live(tid), None, system_name)

    def _delete(
        self,
        transaction: Transaction,
        name: Optional[AttributedName],
        system_name: SystemName,
    ) -> None:
        server = self.coordinator.file_server(system_name.volume_id)
        level = self._effective_level(server.get_attribute(system_name))
        self._acquire(
            transaction,
            DataItem(system_name, level, 0, FILE_RANGE_END),
            LockMode.IW,
        )
        transaction.deleted_files.append((name, system_name))
        self.metrics.add(f"{self._prefix}.tdeletes")

    def system_name_of(self, tid: int, descriptor: int) -> SystemName:
        """The system name behind a transactional descriptor."""
        transaction = self._live(tid)
        return self._open_file(transaction, descriptor).name

    def tclose(self, tid: int, descriptor: int) -> None:
        """Close a transactional descriptor (locks are kept until tend)."""
        transaction = self._live(tid)
        if transaction.open_files.pop(descriptor, None) is None:
            raise BadDescriptorError(f"descriptor {descriptor} not open in txn {tid}")
        self.metrics.add(f"{self._prefix}.tcloses")

    # ========================================================== read

    def tread(
        self, tid: int, descriptor: int, n_bytes: int, *, for_update: bool = False
    ) -> bytes:
        """Read at the descriptor's position, advancing it.

        ``for_update=True`` takes Iread locks (reading in order to
        modify); otherwise read-only locks.
        """
        transaction = self._live(tid)
        open_file = self._open_file(transaction, descriptor)
        data = self._read_at(
            transaction, open_file, open_file.position, n_bytes, for_update
        )
        open_file.position += len(data)
        return data

    def tpread(
        self,
        tid: int,
        descriptor: int,
        n_bytes: int,
        offset: int,
        *,
        for_update: bool = False,
    ) -> bytes:
        """Positional transactional read; position untouched."""
        transaction = self._live(tid)
        open_file = self._open_file(transaction, descriptor)
        return self._read_at(transaction, open_file, offset, n_bytes, for_update)

    # ========================================================= write

    def twrite(self, tid: int, descriptor: int, data: bytes) -> int:
        """Write at the descriptor's position (tentatively), advancing it."""
        transaction = self._live(tid)
        open_file = self._open_file(transaction, descriptor)
        written = self._write_at(transaction, open_file, open_file.position, data)
        open_file.position += written
        return written

    def tpwrite(self, tid: int, descriptor: int, data: bytes, offset: int) -> int:
        """Positional transactional write; position untouched."""
        transaction = self._live(tid)
        open_file = self._open_file(transaction, descriptor)
        return self._write_at(transaction, open_file, offset, data)

    # ========================================================== misc

    def tlseek(self, tid: int, descriptor: int, offset: int, whence: int = os.SEEK_SET) -> int:
        transaction = self._live(tid)
        open_file = self._open_file(transaction, descriptor)
        if whence == os.SEEK_SET:
            new = offset
        elif whence == os.SEEK_CUR:
            new = open_file.position + offset
        elif whence == os.SEEK_END:
            new = self._size(transaction, open_file.name) + offset
        else:
            raise FileSizeError(f"bad whence {whence}")
        if new < 0:
            raise FileSizeError(f"seek to negative position {new}")
        open_file.position = new
        return new

    def tget_attribute(self, tid: int, descriptor: int) -> FileAttributes:
        """Attributes as this transaction sees them (tentative size)."""
        transaction = self._live(tid)
        open_file = self._open_file(transaction, descriptor)
        server = self.coordinator.file_server(open_file.name.volume_id)
        attrs = server.get_attribute(open_file.name)
        attrs.file_size = max(
            attrs.file_size,
            self._tentative_size(transaction, open_file.name),
        )
        return attrs

    # ====================================================== internal

    def _live(self, tid: int) -> Transaction:
        transaction = self._transactions.get(tid)
        if transaction is None:
            raise InvalidTransactionStateError(f"no transaction {tid} on this machine")
        if not transaction.is_live:
            # Aborted behind our back (lock timeout): clean up and surface.
            self._unbind_created(transaction)
            self.coordinator.abort(transaction)
            self._ended(transaction)
            if transaction.abort_reason == "lock-timeout":
                raise LockTimeoutError(
                    f"transaction {tid} was aborted by lock timeout"
                )
            raise TransactionAbortedError(
                f"transaction {tid} was aborted ({transaction.abort_reason})",
                reason=transaction.abort_reason,
            )
        return transaction

    def _open_file(self, transaction: Transaction, descriptor: int) -> TxnOpenFile:
        open_file = transaction.open_files.get(descriptor)
        if open_file is None:
            raise BadDescriptorError(
                f"descriptor {descriptor} not open in transaction {transaction.tid}"
            )
        return open_file

    def _open_descriptor(
        self, transaction: Transaction, system_name: SystemName, level: LockingLevel
    ) -> int:
        descriptor = self._next_descriptor
        self._next_descriptor += 1
        transaction.open_files[descriptor] = TxnOpenFile(
            name=system_name, position=0, level=level
        )
        return descriptor

    @staticmethod
    def _effective_level(attrs: FileAttributes) -> LockingLevel:
        if attrs.locking_level is not LockingLevel.DEFAULT:
            return attrs.locking_level
        # The default exploits how frequently the file is used.
        if attrs.open_count_total >= _HOT_FILE_OPENS:
            return LockingLevel.RECORD
        return LockingLevel.PAGE

    # ---- locking

    def _items_for_range(
        self, open_file: TxnOpenFile, offset: int, length: int
    ) -> List[DataItem]:
        if length <= 0:
            return []
        name = open_file.name
        if open_file.level is LockingLevel.FILE:
            return [file_item(name)]
        if open_file.level is LockingLevel.RECORD:
            return [record_item(name, offset, length)]
        first = offset // BLOCK_SIZE
        last = (offset + length - 1) // BLOCK_SIZE
        return [page_item(name, page, BLOCK_SIZE) for page in range(first, last + 1)]

    def _acquire(
        self, transaction: Transaction, item: DataItem, mode: LockMode
    ) -> None:
        manager = self.coordinator.lock_manager(item.name.volume_id)
        result = manager.acquire(
            transaction, item, mode, process_id=transaction.process_id
        )
        if result is AcquireResult.GRANTED:
            return
        self.metrics.add(f"{self._prefix}.lock_waits")

        def ready() -> bool:
            return (
                manager.is_granted(transaction, item, mode)
                or not transaction.is_live
            )

        # LockWaitPending is the runner's control-flow signal (caught by
        # name, never an error); forcing it under RhodosError would let
        # broad facility handlers swallow a pending wait.
        # repro-lint: allow[error-taxonomy] control-flow signal, not an error
        raise LockWaitPending(str(item), ready)

    # ---- data plane

    def _read_at(
        self,
        transaction: Transaction,
        open_file: TxnOpenFile,
        offset: int,
        n_bytes: int,
        for_update: bool,
    ) -> bytes:
        if offset < 0 or n_bytes < 0:
            raise FileSizeError(f"bad read range ({offset}, {n_bytes})")
        mode = LockMode.IR if for_update else LockMode.RO
        for item in self._items_for_range(open_file, offset, n_bytes):
            self._acquire(transaction, item, mode)
        server = self.coordinator.file_server(open_file.name.volume_id)
        base = server.read(open_file.name, offset, n_bytes)
        size = max(
            self._tentative_size(transaction, open_file.name),
            offset + len(base),
        )
        end = min(offset + n_bytes, size)
        if end <= offset:
            self.metrics.add(f"{self._prefix}.treads")
            return b""
        padded = base + bytes(end - offset - len(base)) if len(base) < end - offset else base
        data = padded[: end - offset]
        # Nested transactions see their ancestors' tentative writes,
        # overlaid root-first so the innermost transaction wins.
        for node in transaction.ancestry():
            data = node.overlay(open_file.name, offset, data)
        self.metrics.add(f"{self._prefix}.treads")
        return data

    def _write_at(
        self,
        transaction: Transaction,
        open_file: TxnOpenFile,
        offset: int,
        data: bytes,
    ) -> int:
        if offset < 0:
            raise FileSizeError(f"bad write offset {offset}")
        if not data:
            return 0
        for item in self._items_for_range(open_file, offset, len(data)):
            self._acquire(transaction, item, LockMode.IW)
        name = open_file.name
        server = self.coordinator.file_server(name.volume_id)
        level = open_file.level
        end = offset + len(data)
        if level is LockingLevel.RECORD:
            transaction.tentative_records.append(
                TentativeItem(
                    item=record_item(name, offset, len(data)),
                    data=bytes(data),
                    sequence=transaction.next_sequence(),
                )
            )
        elif level is LockingLevel.PAGE:
            cursor = offset
            while cursor < end:
                page = cursor // BLOCK_SIZE
                stop = min((page + 1) * BLOCK_SIZE, end)
                self._merge(
                    transaction,
                    name,
                    page_item(name, page, BLOCK_SIZE),
                    page * BLOCK_SIZE,
                    BLOCK_SIZE,
                    cursor,
                    data[cursor - offset : stop - offset],
                )
                cursor = stop
        else:  # FILE level
            self._merge(transaction, name, file_item(name), 0, None, offset, data)
        current = transaction.tentative_sizes.get(name)
        if current is None:
            current = server.get_attribute(name).file_size
        transaction.tentative_sizes[name] = max(current, end)
        self.metrics.add(f"{self._prefix}.twrites")
        return len(data)

    def _merge(
        self,
        transaction: Transaction,
        name: SystemName,
        item: DataItem,
        start: int,
        length: Optional[int],
        offset: int,
        data: bytes,
    ) -> None:
        """Splice ``data`` (at file ``offset``) into ``item``'s tentative
        copy of the bytes ``[start, start + length)``.

        A page spans ``[page * BLOCK_SIZE, +BLOCK_SIZE)``; a file passes
        ``length=None`` and spans ``[0, size)``, its size taken on first
        touch.  The first write to an item reads its span, zero-pads it,
        and overlays the ancestors' tentative writes, so a nested
        transaction starts from their view; a write past the span's end
        grows the copy.
        """
        entry = transaction.tentative_map.get(item)
        if entry is None:
            if length is None:
                length = self._size(transaction, name)
            server = self.coordinator.file_server(name.volume_id)
            base = server.read(name, start, length)
            composed = base + bytes(length - len(base))
            for node in transaction.ancestry()[:-1]:
                composed = node.overlay(name, start, composed)
            entry = TentativeItem(
                item=item,
                data=composed,
                sequence=transaction.next_sequence(),
            )
            transaction.tentative_map[item] = entry
        within = offset - start
        buffer = bytearray(entry.data)
        if len(buffer) < within + len(data):
            buffer.extend(bytes(within + len(data) - len(buffer)))
        buffer[within : within + len(data)] = data
        entry.data = bytes(buffer)

    def _size(self, transaction: Transaction, name: SystemName) -> int:
        server = self.coordinator.file_server(name.volume_id)
        return max(
            server.get_attribute(name).file_size,
            self._tentative_size(transaction, name),
        )

    @staticmethod
    def _tentative_size(transaction: Transaction, name: SystemName) -> int:
        return max(
            (
                node.tentative_sizes.get(name, 0)
                for node in transaction.ancestry()
            ),
            default=0,
        )

    def _unbind_created(self, transaction: Transaction) -> None:
        for attributed, _ in transaction.created_files:
            if attributed is not None and attributed in self.naming:
                try:
                    self.naming.unbind(attributed)
                except Exception:  # noqa: BLE001 - best effort on abort
                    pass
        for attributed, system_name in transaction.deleted_files:
            if attributed is None:
                continue
            if transaction.status is not TransactionStatus.COMMITTED:
                self.naming.rebind(attributed, system_name)

