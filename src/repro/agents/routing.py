"""Routing file operations to the file server that manages the file.

Step one of the paper's three-step data location (section 5) is "to
locate the file service which manages the file".  A system name
carries its volume id, so routing is a table lookup: volume id ->
:data:`~repro.rpc.endpoint.Caller`.  Whether a caller dispatches
in-process or crosses the message bus is decided where the table is
built (DESIGN.md "Transports"); the router — and the file agent above
it — cannot tell the two apart.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.common.errors import FileServiceError
from repro.common.ids import SystemName
from repro.file_service.attributes import FileAttributes
from repro.rpc.endpoint import Caller

#: Every operation a file server answers: the exposure table of its
#: endpoint, the filter of its direct caller, and all the router sends.
FILE_SERVER_OPS = (
    "create",
    "open",
    "close",
    "delete",
    "read",
    "write",
    "get_attribute",
    "flush",
)


class FileServiceRouter:
    """Carries file-server calls to the volume that owns the file.

    ``callers`` maps volume id -> the transport to that volume's file
    server.
    """

    def __init__(self, callers: Dict[int, Caller]) -> None:
        if not callers:
            raise FileServiceError("router needs at least one file server")
        self._callers = dict(callers)

    def _call(self, volume_id: int, op: str, *args: Any, **kwargs: Any) -> Any:
        caller = self._callers.get(volume_id)
        if caller is None:
            raise FileServiceError(f"no file server for volume {volume_id}")
        return caller(op, *args, **kwargs)

    def volume_ids(self) -> list[int]:
        return sorted(self._callers)

    def create(self, volume_id: int, **kwargs: Any) -> SystemName:
        return self._call(volume_id, "create", **kwargs)

    def open(self, name: SystemName) -> FileAttributes:
        return self._call(name.volume_id, "open", name)

    def close(self, name: SystemName) -> None:
        self._call(name.volume_id, "close", name)

    def delete(self, name: SystemName) -> None:
        self._call(name.volume_id, "delete", name)

    def read(self, name: SystemName, offset: int, n_bytes: int) -> bytes:
        return self._call(name.volume_id, "read", name, offset, n_bytes)

    def write(self, name: SystemName, offset: int, data: bytes) -> int:
        return self._call(name.volume_id, "write", name, offset, data)

    def get_attribute(self, name: SystemName) -> FileAttributes:
        return self._call(name.volume_id, "get_attribute", name)

    def flush_volume(self, volume_id: int) -> None:
        self._call(volume_id, "flush")
