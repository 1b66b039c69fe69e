"""Transactional directory operations.

The paper's abstract claims that "using transaction semantics file
operations in not only database applications but also in **system
programming** can be made resilient against system and media failure."
Directory maintenance is the canonical piece of system programming:
a rename touches two directory files, and a crash between the two
updates would corrupt the namespace (an entry lost, or present twice).

This module binds the one tree algorithm
(:class:`~repro.naming.directory.DirectoryTree`) to a file store whose
writes are tentative inside a transaction, so multi-entry updates are
atomic: either both parents reflect the rename or neither does, across
any crash.  Reads inside an operation see the operation's own tentative
state; directory files are locked (page-level) for the duration,
serialising concurrent mutators of the same directory.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Protocol

from repro.common.ids import SystemName
from repro.file_service.attributes import FileAttributes, LockingLevel
from repro.naming.directory import (
    DirectoryService,
    DirectoryTree,
    _MAX_DIRECTORY_BYTES,
    _padded,
)


class TransactionHost(Protocol):
    """The slice of the transaction agent host this module drives.

    Declared structurally so the naming layer does not import the
    transaction service (which itself imports naming — the concrete
    :class:`~repro.transactions.agent.TransactionAgentHost` satisfies
    this protocol without either side naming the other).
    """

    def tbegin(
        self, *, process_id: int = 0, parent: Optional[int] = None
    ) -> int: ...

    def tend(self, tid: int) -> None: ...

    def tabort(self, tid: int) -> None: ...

    def topen_system(
        self, tid: int, system_name: SystemName, **kwargs: object
    ) -> int: ...

    def tcreate_system(self, tid: int, *, volume_id: int) -> int: ...

    def tdelete_system(self, tid: int, system_name: SystemName) -> None: ...

    def system_name_of(self, tid: int, descriptor: int) -> SystemName: ...

    def tpread(
        self,
        tid: int,
        descriptor: int,
        n_bytes: int,
        offset: int,
        *,
        for_update: bool = False,
    ) -> bytes: ...

    def tpwrite(
        self, tid: int, descriptor: int, data: bytes, offset: int
    ) -> int: ...

    def tget_attribute(self, tid: int, descriptor: int) -> FileAttributes: ...


class _TxnFiles:
    """The transactional file store: every write is tentative until the
    transaction ends; directory files are page-locked from the first
    read (``for_update``), serialising mutators of one directory."""

    def __init__(self, host: TransactionHost, tid: int) -> None:
        self.host = host
        self.tid = tid
        self._descriptors: Dict[SystemName, int] = {}

    def descriptor(self, name: SystemName, **open_kwargs: object) -> int:
        descriptor = self._descriptors.get(name)
        if descriptor is None:
            descriptor = self.host.topen_system(self.tid, name, **open_kwargs)
            self._descriptors[name] = descriptor
        return descriptor

    def _directory(self, name: SystemName) -> int:
        return self.descriptor(name, locking_level=LockingLevel.PAGE)

    def create(self, volume_id: int, **kwargs: object) -> SystemName:
        descriptor = self.host.tcreate_system(self.tid, volume_id=volume_id, **kwargs)
        name = self.host.system_name_of(self.tid, descriptor)
        self._descriptors[name] = descriptor
        return name

    def read(self, name: SystemName) -> bytes:
        return self.host.tpread(
            self.tid, self._directory(name), _MAX_DIRECTORY_BYTES, 0, for_update=True
        )

    def write(self, name: SystemName, blob: bytes) -> None:
        descriptor = self._directory(name)
        current_size = self.host.tget_attribute(self.tid, descriptor).file_size
        self.host.tpwrite(self.tid, descriptor, _padded(blob, current_size), 0)

    def delete(self, name: SystemName) -> None:
        self.host.tdelete_system(self.tid, name)


class _TxnView(DirectoryTree):
    """The directory tree bound to one open transaction: reads see the
    transaction's own tentative state, and however many directory files
    its mutations touch, they commit or vanish together."""

    def __init__(self, service: "TransactionalDirectory", tid: int) -> None:
        self.tid = tid
        directories = service.directories
        super().__init__(
            _TxnFiles(service.host, tid),
            directories.root,
            directories.root_volume,
            directories.metrics,
        )

    def write_file(self, path: str, offset: int, data: bytes) -> int:
        """Write file content inside the same transaction."""
        descriptor = self.files.descriptor(self.resolve(path))
        return self.files.host.tpwrite(self.tid, descriptor, data, offset)


class TransactionalDirectory:
    """Directory mutations with transaction semantics.

    Wraps a :class:`DirectoryService` (for the root bootstrap and
    read-only conveniences) and a transaction agent host.  Every
    mutation runs inside a transaction; :meth:`transaction` groups
    several into one atomic unit.
    """

    def __init__(
        self, directories: DirectoryService, host: TransactionHost
    ) -> None:
        self.directories = directories
        self.host = host

    @contextmanager
    def transaction(self) -> Iterator[_TxnView]:
        """Group directory mutations into one atomic transaction."""
        tid = self.host.tbegin()
        view = _TxnView(self, tid)
        try:
            yield view
        except BaseException:
            self.host.tabort(tid)
            raise
        else:
            self.host.tend(tid)

    # One-shot conveniences: each runs in its own transaction.

    def mkdir(self, path: str, **kwargs) -> SystemName:
        with self.transaction() as view:
            return view.mkdir(path, **kwargs)

    def create_file(self, path: str, **kwargs) -> SystemName:
        with self.transaction() as view:
            return view.create_file(path, **kwargs)

    def unlink(self, path: str) -> SystemName:
        with self.transaction() as view:
            return view.unlink(path)

    def rmdir(self, path: str) -> None:
        with self.transaction() as view:
            view.rmdir(path)

    def rename(self, old_path: str, new_path: str) -> None:
        with self.transaction() as view:
            view.rename(old_path, new_path)
