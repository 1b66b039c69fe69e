"""The file agent: per-machine client interface to the file service.

The file agent (paper section 3) resolves attributed names through
the naming service, returns object descriptors above 100 000, and
"cache[s] a substantial amount of file data to avoid trying to access
the file service for each request from a client".  It keeps the
per-descriptor file position and the per-file cached state — which is
exactly why "the RHODOS file service is 'nearly' stateless": the
agent, not the server, remembers what each client is doing, and all
server requests are positional, hence idempotent under retransmission.

Modification policy: delayed-write (paper section 5) — writes land in
the client block cache and reach the file service on ``close``,
``flush``, or cache eviction.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.common.clock import SimClock
from repro.common.errors import BadDescriptorError, FileSizeError
from repro.common.ids import DEVICE_DESCRIPTOR_LIMIT, SystemName
from repro.common.metrics import Metrics
from repro.common.units import BLOCK_SIZE
from repro.file_service.attributes import FileAttributes, LockingLevel, ServiceType
from repro.agents.routing import FileServiceRouter
from repro.naming.attributed import AttributedName
from repro.naming.service import NamingService

#: First descriptor the file agent hands out (100001..100003 are the
#: redirection descriptors; see repro.agents.process).
_FIRST_FILE_DESCRIPTOR = DEVICE_DESCRIPTOR_LIMIT + 10

_CacheKey = Tuple[SystemName, int]  # (file, block index)


class _CacheEntry:
    """One cached block: data plus what we know about it.

    ``valid`` means the whole block was fetched from the server;
    ``dirty`` is the byte range [dirty_lo, dirty_hi) modified locally
    and not yet written back.  A non-valid entry's bytes are only
    meaningful inside its dirty range.
    """

    __slots__ = ("data", "valid", "dirty_lo", "dirty_hi")

    def __init__(self) -> None:
        self.data = bytearray(BLOCK_SIZE)
        self.valid = False
        self.dirty_lo = BLOCK_SIZE
        self.dirty_hi = 0

    @property
    def is_dirty(self) -> bool:
        return self.dirty_hi > self.dirty_lo


@dataclass
class _OpenFile:
    """Per-descriptor state (the stateful half of 'nearly stateless')."""

    name: SystemName
    position: int = 0
    known_size: int = 0


class FileAgent:
    """Client-side file interface for one machine.

    Args:
        machine_id: for metric names (``file_agent.<machine>.*``).
        naming: the naming service (attributed name resolution).
        router: carries operations to the right file server.
        clock: shared simulated clock.
        metrics: shared counter registry.
        cache_blocks: client block-cache capacity; 0 disables client
            caching (the Amoeba-Bullet-server configuration of
            experiment E5).
    """

    def __init__(
        self,
        machine_id: str,
        naming: NamingService,
        router: FileServiceRouter,
        clock: SimClock,
        metrics: Metrics,
        *,
        cache_blocks: int = 128,
        placement: Optional[Callable[[], int]] = None,
    ) -> None:
        self.machine_id = machine_id
        self.naming = naming
        self.router = router
        self.clock = clock
        self.metrics = metrics
        self.placement = placement
        self.cache_blocks = cache_blocks
        self._prefix = f"file_agent.{machine_id}"
        self._open: Dict[int, _OpenFile] = {}
        self._next_descriptor = _FIRST_FILE_DESCRIPTOR
        self._cache: "OrderedDict[_CacheKey, _CacheEntry]" = OrderedDict()
        #: file -> indices of its blocks in ``_cache``: a close or a
        #: delete visits that file's blocks, not the whole cache.
        self._cached_blocks: Dict[SystemName, Set[int]] = {}

    # ===================================================== lifecycle

    def create(
        self,
        name: AttributedName,
        *,
        volume_id: Optional[int] = None,
        service_type: ServiceType = ServiceType.BASIC,
        locking_level: LockingLevel = LockingLevel.DEFAULT,
    ) -> int:
        """Create a file, bind its attributed name, and open it.

        The target volume comes from, in order: the explicit argument,
        the name's ``volume`` attribute, the agent's placement policy
        (chunk->volume write placement, e.g. least-loaded), the first
        volume the router knows.  Returns an object descriptor
        (> 100 000).
        """
        if volume_id is None:
            hinted = name.get("volume")
            if hinted is not None:
                volume_id = int(hinted)
            elif self.placement is not None:
                volume_id = self.placement()
            else:
                volume_id = self.router.volume_ids()[0]
        system_name = self.router.create(
            volume_id,
            service_type=service_type,
            locking_level=locking_level,
        )
        self.naming.bind(name, system_name)
        self.metrics.add(f"{self._prefix}.creates")
        return self._open_system_name(system_name)

    def open(self, name: AttributedName) -> int:
        """Resolve and open an existing file; returns an object descriptor."""
        system_name = self.naming.resolve_file(name)
        self.metrics.add(f"{self._prefix}.opens")
        return self._open_system_name(system_name)

    def close(self, descriptor: int) -> None:
        """Flush this file's delayed writes and release the descriptor."""
        state = self._state(descriptor)
        self._flush_file(state.name)
        self.router.close(state.name)
        del self._open[descriptor]
        self.metrics.add(f"{self._prefix}.closes")

    def delete(self, name: AttributedName) -> None:
        """Unbind and delete a file (it must not be open through this agent)."""
        system_name = self.naming.resolve_file(name)
        for state in self._open.values():
            if state.name == system_name:
                raise BadDescriptorError(
                    f"{name} is still open as descriptor on this machine"
                )
        self._drop_cached(system_name)
        self.naming.unbind(name)
        self.router.delete(system_name)
        self.metrics.add(f"{self._prefix}.deletes")

    # ========================================================== read

    def read(self, descriptor: int, n_bytes: int) -> bytes:
        """Read from the current position, advancing it."""
        state = self._state(descriptor)
        data = self._read_at(state, state.position, n_bytes)
        state.position += len(data)
        return data

    def pread(self, descriptor: int, n_bytes: int, offset: int) -> bytes:
        """Positional read; the file position is untouched."""
        state = self._state(descriptor)
        return self._read_at(state, offset, n_bytes)

    # ========================================================= write

    def write(self, descriptor: int, data: bytes) -> int:
        """Write at the current position, advancing it (delayed-write)."""
        state = self._state(descriptor)
        written = self._write_at(state, state.position, data)
        state.position += written
        return written

    def pwrite(self, descriptor: int, data: bytes, offset: int) -> int:
        """Positional write; the file position is untouched."""
        state = self._state(descriptor)
        return self._write_at(state, offset, data)

    # ========================================================== misc

    def lseek(self, descriptor: int, offset: int, whence: int = os.SEEK_SET) -> int:
        """Move the file position; returns the new position."""
        state = self._state(descriptor)
        if whence == os.SEEK_SET:
            new = offset
        elif whence == os.SEEK_CUR:
            new = state.position + offset
        elif whence == os.SEEK_END:
            size = max(state.known_size, self.router.get_attribute(state.name).file_size)
            state.known_size = size
            new = size + offset
        else:
            raise FileSizeError(f"bad whence {whence}")
        if new < 0:
            raise FileSizeError(f"seek to negative position {new}")
        state.position = new
        self.metrics.add(f"{self._prefix}.lseeks")
        return new

    def get_attribute(self, descriptor: int) -> FileAttributes:
        state = self._state(descriptor)
        # Attribute reads see our delayed writes' effect on size.
        attrs = self.router.get_attribute(state.name)
        attrs.file_size = max(attrs.file_size, state.known_size)
        self.metrics.add(f"{self._prefix}.get_attributes")
        return attrs

    def flush(self) -> None:
        """Write back every dirty cached block (all files)."""
        for key in list(self._cache):
            self._writeback(key)
        self.metrics.add(f"{self._prefix}.flushes")

    def invalidate_volume(self, volume_id: int) -> int:
        """Drop every cached block of files on one volume, dirty or not.

        Called when the volume's file server crashes: its server-side
        cache died unflushed, so client copies of its blocks may
        describe state the server never made durable — serving them
        (or writing them back later) would fabricate data the
        recovered volume does not hold.  Returns how many blocks were
        dropped.
        """
        dropped = 0
        for key in list(self._cache):
            if key[0].volume_id == volume_id:
                self._uncache(key)
                dropped += 1
        if dropped:
            self.metrics.add(f"{self._prefix}.cache.invalidations", dropped)
        return dropped

    def system_name(self, descriptor: int) -> SystemName:
        """The system name behind a descriptor (diagnostics, transactions)."""
        return self._state(descriptor).name

    def open_descriptors(self) -> list[int]:
        return sorted(self._open)

    def position(self, descriptor: int) -> int:
        return self._state(descriptor).position

    # ====================================================== internal

    def _open_system_name(self, system_name: SystemName) -> int:
        attrs = self.router.open(system_name)
        descriptor = self._next_descriptor
        self._next_descriptor += 1
        self._open[descriptor] = _OpenFile(
            name=system_name, position=0, known_size=attrs.file_size
        )
        return descriptor

    def _state(self, descriptor: int) -> _OpenFile:
        state = self._open.get(descriptor)
        if state is None:
            raise BadDescriptorError(f"descriptor {descriptor} is not an open file")
        return state

    # ---- read path

    def _read_at(self, state: _OpenFile, offset: int, n_bytes: int) -> bytes:
        with self.metrics.timer(f"{self._prefix}.read_us", self.clock):
            return self._do_read_at(state, offset, n_bytes)

    def _do_read_at(self, state: _OpenFile, offset: int, n_bytes: int) -> bytes:
        if offset < 0 or n_bytes < 0:
            raise FileSizeError(f"bad read range ({offset}, {n_bytes})")
        self.metrics.add(f"{self._prefix}.reads")
        if n_bytes == 0:
            return b""
        if self.cache_blocks <= 0:
            data = self.router.read(state.name, offset, n_bytes)
            state.known_size = max(state.known_size, offset + len(data))
            return data
        end = offset + n_bytes
        first_block = offset // BLOCK_SIZE
        last_block = (end - 1) // BLOCK_SIZE
        pieces: list[bytes] = []
        for block_index in range(first_block, last_block + 1):
            block_lo = block_index * BLOCK_SIZE
            lo = max(offset, block_lo) - block_lo
            hi = min(end, block_lo + BLOCK_SIZE) - block_lo
            pieces.append(self._read_block_range(state, block_index, lo, hi))
        data = b"".join(pieces)
        # Trim to the actual file size (short read at EOF).
        size = state.known_size
        if offset + len(data) > size:
            refreshed = self.router.get_attribute(state.name).file_size
            size = max(size, refreshed)
            state.known_size = size
        return data[: max(0, min(len(data), size - offset))]

    def _read_block_range(
        self, state: _OpenFile, block_index: int, lo: int, hi: int
    ) -> bytes:
        key = (state.name, block_index)
        entry = self._cache.get(key)
        if entry is not None:
            self._cache.move_to_end(key)
            if entry.valid or (entry.dirty_lo <= lo and hi <= entry.dirty_hi):
                self.metrics.add(f"{self._prefix}.cache.hits")
                return bytes(entry.data[lo:hi])
        self.metrics.add(f"{self._prefix}.cache.misses")
        block_lo = block_index * BLOCK_SIZE
        fetched = self.router.read(state.name, block_lo, BLOCK_SIZE)
        if fetched:
            state.known_size = max(state.known_size, block_lo + len(fetched))
        entry = self._entry(key)
        # Keep local dirty bytes: they are newer than the server copy.
        dirty_save = bytes(entry.data[entry.dirty_lo : entry.dirty_hi])
        entry.data[: len(fetched)] = fetched
        entry.data[len(fetched) :] = bytes(BLOCK_SIZE - len(fetched))
        if entry.is_dirty:
            entry.data[entry.dirty_lo : entry.dirty_hi] = dirty_save
        entry.valid = True
        return bytes(entry.data[lo:hi])

    # ---- write path

    def _write_at(self, state: _OpenFile, offset: int, data: bytes) -> int:
        with self.metrics.timer(f"{self._prefix}.write_us", self.clock):
            return self._do_write_at(state, offset, data)

    def _do_write_at(self, state: _OpenFile, offset: int, data: bytes) -> int:
        if offset < 0:
            raise FileSizeError(f"bad write offset {offset}")
        self.metrics.add(f"{self._prefix}.writes")
        if not data:
            return 0
        if self.cache_blocks <= 0:
            written = self.router.write(state.name, offset, data)
            state.known_size = max(state.known_size, offset + written)
            return written
        end = offset + len(data)
        cursor = offset
        view = memoryview(data)
        while cursor < end:
            block_index = cursor // BLOCK_SIZE
            within = cursor - block_index * BLOCK_SIZE
            chunk = min(BLOCK_SIZE - within, end - cursor)
            self._write_block_range(
                state, block_index, within, bytes(view[:chunk])
            )
            view = view[chunk:]
            cursor += chunk
        state.known_size = max(state.known_size, end)
        return len(data)

    def _write_block_range(
        self, state: _OpenFile, block_index: int, lo: int, chunk: bytes
    ) -> None:
        key = (state.name, block_index)
        entry = self._entry(key)
        hi = lo + len(chunk)
        if entry.is_dirty and not entry.valid:
            # A second dirty range that does not touch the first would
            # leave an unknown gap; fetch the block to make it safe.
            touches = lo <= entry.dirty_hi and entry.dirty_lo <= hi
            if not touches:
                self._read_block_range(state, block_index, 0, BLOCK_SIZE)
                entry = self._entry(key)
        entry.data[lo:hi] = chunk
        entry.dirty_lo = min(entry.dirty_lo, lo)
        entry.dirty_hi = max(entry.dirty_hi, hi)

    # ---- cache plumbing

    def _entry(self, key: _CacheKey) -> _CacheEntry:
        entry = self._cache.get(key)
        if entry is None:
            entry = _CacheEntry()
            self._cache[key] = entry
            self._cached_blocks.setdefault(key[0], set()).add(key[1])
            while len(self._cache) > self.cache_blocks:
                victim_key = next(iter(self._cache))
                self._writeback(victim_key)
                self._uncache(victim_key)
                self.metrics.add(f"{self._prefix}.cache.evictions")
        else:
            self._cache.move_to_end(key)
        return entry

    def _writeback(self, key: _CacheKey) -> None:
        entry = self._cache.get(key)
        if entry is not None and entry.is_dirty:
            self._write_run(key[0], [(key[1], entry)])

    def _write_run(
        self, name: SystemName, run: List[Tuple[int, _CacheEntry]]
    ) -> None:
        """Send the dirty bytes of adjacent blocks as one server write."""
        first_index, first = run[0]
        self.router.write(
            name,
            first_index * BLOCK_SIZE + first.dirty_lo,
            b"".join(
                bytes(entry.data[entry.dirty_lo : entry.dirty_hi])
                for _, entry in run
            ),
        )
        self.metrics.add(f"{self._prefix}.cache.writebacks", len(run))
        for _, entry in run:
            entry.dirty_lo = BLOCK_SIZE
            entry.dirty_hi = 0

    def _flush_file(self, name: SystemName) -> None:
        """Write back one file's dirty blocks, one server write per run.

        A run is blocks in index order whose every shared boundary is
        dirty on both sides, so its bytes are one contiguous range and
        the server allocates and maps it at once.
        """
        cache = self._cache
        dirty = sorted(
            (block_index, entry)
            for block_index in self._cached_blocks.get(name, ())
            if (entry := cache[(name, block_index)]).is_dirty
        )
        run: List[Tuple[int, _CacheEntry]] = []
        for block_index, entry in dirty:
            if run and not (
                run[-1][0] + 1 == block_index
                and run[-1][1].dirty_hi == BLOCK_SIZE
                and entry.dirty_lo == 0
            ):
                self._write_run(name, run)
                run = []
            run.append((block_index, entry))
        if run:
            self._write_run(name, run)

    def _drop_cached(self, name: SystemName) -> None:
        for block_index in self._cached_blocks.pop(name, ()):
            del self._cache[(name, block_index)]

    def _uncache(self, key: _CacheKey) -> None:
        if self._cache.pop(key, None) is None:
            return
        blocks = self._cached_blocks[key[0]]
        blocks.discard(key[1])
        if not blocks:
            del self._cached_blocks[key[0]]
