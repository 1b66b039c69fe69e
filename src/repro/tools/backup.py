"""Volume backup and restore.

The paper's transaction recovery "takes care of all sorts of failures
(**except for catastrophes**)" (section 6.6).  Catastrophes — both
stable mirrors gone, a volume physically lost — are what backups are
for.  :func:`dump_volume` walks a volume the way fsck does (rediscover
FITs from the disk, trust nothing volatile) and serialises every file's
attributes and content into one archive blob; :func:`restore_volume`
replays the archive onto any volume, preserving attributes.

The archive is self-describing and versioned; it can be stored in a
RHODOS file on another volume, shipped over a communication port, or
written outside the simulation entirely.

Caveat: restored files receive *fresh system names* (disk addresses
cannot be pinned on a live target volume), so naming-service bindings
and directory entries that referred to the lost volume must be rebound
using the mapping :func:`restore_volume` returns — the same
rebinding any real restore-to-new-media performs.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, List, Tuple

from repro.common.errors import FileServiceError
from repro.common.ids import SystemName
from repro.file_service.attributes import LockingLevel, ServiceType
from repro.file_service.server import FileServer
from repro.verify.fsck import scan_fits

_MAGIC = b"RBAK"
_VERSION = 1
_HEADER = struct.Struct("<4sHI")  # magic, version, n_files


def dump_volume(server: FileServer) -> bytes:
    """Serialise every file of a volume into one archive blob.

    The files are the FITs fsck's scan rediscovers on the disk; an
    unreadable fragment aborts the dump (:class:`MediaError`) rather
    than silently leaving a file out of the archive.
    """
    entries: List[bytes] = []
    for fit_address, fit in scan_fits(server.disk).items():
        attrs = fit.attributes
        name = SystemName(server.volume_id, fit_address, attrs.generation)
        content = server.read(name, 0, attrs.file_size)
        meta = json.dumps(
            {
                "fit": fit_address,
                "generation": attrs.generation,
                "size": attrs.file_size,
                "created_us": attrs.created_us,
                "service_type": int(attrs.service_type),
                "locking_level": int(attrs.locking_level),
                "open_count_total": attrs.open_count_total,
            },
            sort_keys=True,
        ).encode("utf-8")
        entries.append(
            struct.pack("<II", len(meta), len(content)) + meta + content
        )
    return _HEADER.pack(_MAGIC, _VERSION, len(entries)) + b"".join(entries)


def restore_volume(
    server: FileServer, archive: bytes
) -> Dict[Tuple[int, int], SystemName]:
    """Replay an archive onto a volume.

    Files get fresh system names on the target (addresses cannot be
    pinned on a live volume); the returned mapping translates each
    archived ``(fit_address, generation)`` identity to its new system
    name, which callers use to re-bind naming/directory references.
    """
    if len(archive) < _HEADER.size:
        raise FileServiceError("backup archive truncated")
    magic, version, n_files = _HEADER.unpack_from(archive)
    if magic != _MAGIC:
        raise FileServiceError("not a RHODOS backup archive")
    if version != _VERSION:
        raise FileServiceError(f"unsupported archive version {version}")
    mapping: Dict[Tuple[int, int], SystemName] = {}
    offset = _HEADER.size
    for _ in range(n_files):
        meta_len, content_len = struct.unpack_from("<II", archive, offset)
        offset += 8
        meta = json.loads(archive[offset : offset + meta_len].decode("utf-8"))
        offset += meta_len
        content = archive[offset : offset + content_len]
        offset += content_len
        if len(content) != content_len:
            raise FileServiceError("backup archive truncated mid-entry")
        name = server.create(
            service_type=ServiceType(meta["service_type"]),
            locking_level=LockingLevel(meta["locking_level"]),
        )
        if content:
            server.write(name, 0, content)
        mapping[(meta["fit"], meta["generation"])] = name
    server.flush()
    return mapping
