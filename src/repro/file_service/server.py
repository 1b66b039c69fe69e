"""The file server: one per volume, built on the disk service.

Locating a file's data takes the paper's three steps (section 5): the
*cluster* locates the file server managing the file (step one); the
file server locates and caches the **file index table** (step two);
then locates the data blocks, caches them, and passes the requested
bytes to the caller (step three).

Performance properties implemented here, each tested and benchmarked:

* **dynamic FIT creation** — the FIT fragment and at least the first
  data block are allocated as one contiguous extent, eliminating the
  seek between them, and FITs end up distributed over the disk;
* **contiguity counts** — each block descriptor knows how many
  successive blocks follow it contiguously, so a contiguous run is one
  single ``get`` on the disk service;
* **direct coverage of 512 KB** — any file up to half a megabyte costs
  at most two disk references when read cold (FIT + one data run);
* **server-side caching** — a block pool with the delayed-write policy
  for basic files and write-through for transaction files (section 5).

The server is *nearly stateless*: every operation is positional
(system name + offset), hence idempotent; the per-open file position
lives in the file agent (section 3).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.common.clock import SimClock
from repro.common.errors import (
    BadAddressError,
    DiskFullError,
    FileNotFoundError_,
    FileServiceError,
    FileSizeError,
    MediaError,
)
from repro.common.frames import fan_out
from repro.common.ids import SystemName, monotonic_id_factory
from repro.common.metrics import Metrics
from repro.common.units import BLOCK_SIZE, FRAGMENT_SIZE, FRAGMENTS_PER_BLOCK
from repro.common.weak import weak_method
from repro.disk_service.addresses import Extent
from repro.disk_service.server import DiskServer, Source, Stability, SyncMode
from repro.file_service.attributes import FileAttributes, LockingLevel, ServiceType
from repro.file_service.cache import BufferPool, WritePolicy
from repro.file_service.fit import (
    DIRECT_DESCRIPTORS,
    MAX_FILE_BLOCKS,
    BlockDescriptor,
    FileIndexTable,
    contiguous_runs,
    encode_indirect_block,
    leaves_under,
    logical_map,
    pointer_block_of,
    populated_leaves,
    recompute_counts,
    walk_tree,
)

#: Default for how many blocks the extension policy tries to allocate
#: contiguously ahead of a growing file's last block before falling back
#: to a fresh run (overridable per server; ablation A3 sweeps it).
DEFAULT_GROWTH_BATCH_BLOCKS = 8


def _ignore(*_args: object) -> None:
    return None


def stored_fit(
    disk: DiskServer, fit_address: int, main: Optional[bytes], *, heal: bool
) -> Tuple[Optional[FileIndexTable], bool]:
    """The FIT stored at ``fit_address`` (None if none counts), and
    whether ``main`` — its main copy as read, None if unreadable —
    differed from it, or, when none counts, was no FIT at all.

    The one rule for which copy of a FIT counts, for the file server,
    fsck and backup alike.  "A copy of the file index table is always
    available in stable storage" (paper section 5): a main copy that
    decodes counts as is only in a mirrored fragment (known equal to
    its stable copy).  Any other — stored since the last checkpoint
    before a crash, torn, corrupt or unreadable — counts only through
    the stable copy, since a FIT reaches main storage ahead of the run
    that shares its reference and stable storage after both.  With
    ``heal`` the stable copy is written over main unless equal to it,
    and the fragment is mirrored from then on; without, nothing is
    written.
    """
    try:
        fit = None if main is None else FileIndexTable.decode(main)
    except (FileSizeError, ValueError):
        fit = None
    if fit is not None and disk.is_mirrored_fragment(fit_address):
        return fit, False
    extent = Extent(fit_address, 1)
    try:
        blob = (
            disk.repair_from_stable(extent, main)
            if heal
            else disk.get(extent, source=Source.STABLE)
        )
        return FileIndexTable.decode(blob), blob != main
    except (KeyError, BadAddressError, MediaError, FileSizeError, ValueError):
        return None, fit is None


class _OpenState:
    """Volatile bookkeeping for a file the server currently maps."""

    __slots__ = (
        "fit",
        "fit_dirty",
        "structure_dirty",
        "block_map",
        "leaves",
        "tree_dirty",
        "unstored",
    )

    def __init__(self, fit: FileIndexTable) -> None:
        self.fit = fit
        # The cached FIT differs from the stored one: attributes moved
        # (timestamps, open counts) or the structure did.
        self.fit_dirty = False
        # What differs is structure — size, block map, tree, service type
        # or locking level: what a close must make durable (flush_file).
        self.structure_dirty = False
        # Full logical block map (direct + loaded tree), or None if only
        # the direct area has been materialised.
        self.block_map: Optional[List[Optional[BlockDescriptor]]] = None
        # Leaf number -> address of the tree block holding it: filled by
        # the load of the full map, extended as leaves are allocated.
        self.leaves: Dict[int, int] = {}
        # Set by every fold of the map back into the tree, which re-marks
        # *every* populated leaf; implies ``structure_dirty``.
        self.tree_dirty = False
        # Scratch extents allocated to the file since its FIT was last
        # stored: out of the durable free space, so a crash before the
        # store frees them; the store adopts them (_store_fit).  Only an
        # allocation that moves the structure adds one, and only a store
        # clears ``structure_dirty``, so a state with unstored space is
        # structure-dirty, hence fit-dirty: every FIT store covers it.
        self.unstored: List[Extent] = []

    def structure_moved(self) -> None:
        self.fit_dirty = self.structure_dirty = True


class FileServer:
    """The basic file service for one volume.

    Args:
        volume_id: integer id of this volume (appears in system names).
        disk_server: the disk service instance for this volume's disk.
        clock: shared simulated clock.
        metrics: shared counter registry.
        data_cache_blocks: capacity of the server's block pool; 0
            disables server-side data caching (for experiment E5).
        write_policy: DELAYED (basic-file default) or WRITE_THROUGH.
    """

    def __init__(
        self,
        volume_id: int,
        disk_server: DiskServer,
        clock: SimClock,
        metrics: Metrics,
        *,
        data_cache_blocks: int = 256,
        fit_cache_entries: int = 256,
        write_policy: WritePolicy = WritePolicy.DELAYED,
        growth_batch_blocks: int = DEFAULT_GROWTH_BATCH_BLOCKS,
    ) -> None:
        self.volume_id = volume_id
        self.growth_batch_blocks = max(1, growth_batch_blocks)
        self.disk = disk_server
        self.clock = clock
        self.metrics = metrics
        self.write_policy = write_policy
        #: Metric prefix.
        self.name = f"file_server.{volume_id}"
        self._next_generation = monotonic_id_factory()
        #: fit_address -> state, oldest install first (the eviction order).
        self._files: "OrderedDict[int, _OpenState]" = OrderedDict()
        self._fit_cache_entries = max(8, fit_cache_entries)
        self._data_cache: Optional[BufferPool] = (
            BufferPool(
                f"{self.name}.block_pool",
                metrics,
                data_cache_blocks,
                writeback=weak_method(self._write_block_to_disk),
            )
            if data_cache_blocks > 0
            else None
        )
        #: Hooks of the transaction service, which this layer never
        #: imports: ``before_change(name)`` runs before a basic write or
        #: a delete changes a file, ``after_flush()`` after every full
        #: :meth:`flush`, ``after_crash()`` after :meth:`crash`.
        self.before_change: Callable[[SystemName], None] = _ignore
        self.after_flush: Callable[[], None] = _ignore
        self.after_crash: Callable[[], None] = _ignore

    # ======================================================== create

    def create(
        self,
        *,
        service_type: ServiceType = ServiceType.BASIC,
        locking_level: LockingLevel = LockingLevel.DEFAULT,
        durable: bool = False,
    ) -> SystemName:
        """Create a file; returns its system name.

        The FIT fragment and the first data block are allocated as one
        contiguous five-fragment extent whenever possible (paper
        section 5: "the file index table and at least the first data
        block are always contiguous thus eliminating the seek time to
        retrieve the first data block").  A basic file's FIT is stored
        (original location and stable storage) by its first close,
        flush or FIT-cache eviction, after its data and in the same
        reference as the data's first run; until then a crash leaves no
        file.  A write-through or transaction file's FIT is stored at
        once, and so is a ``durable`` one's: a file that something
        durable names before its first close can store it (a directory).
        """
        with self.metrics.timer(f"{self.name}.create_us", self.clock):
            return self._do_create(
                service_type=service_type,
                locking_level=locking_level,
                durable=durable,
            )

    def _do_create(
        self,
        *,
        service_type: ServiceType,
        locking_level: LockingLevel,
        durable: bool,
    ) -> SystemName:
        first_block: Optional[Extent] = None
        try:
            allocated = self.disk.allocate(
                1 + FRAGMENTS_PER_BLOCK, scratch=True, high=False
            )
            fit_extent, first_block = allocated.split(1)
        except DiskFullError:
            allocated = fit_extent = self.disk.allocate(1, scratch=True, high=False)
        fit = FileIndexTable()
        attrs = fit.attributes
        attrs.created_us = self.clock.now_us
        attrs.generation = self._next_generation()
        attrs.service_type = service_type
        attrs.locking_level = locking_level
        if first_block is not None:
            fit.direct[0] = BlockDescriptor(first_block.start, 1)
        state = _OpenState(fit)
        state.unstored.append(allocated)
        self._install_state(fit_extent.start, state)
        if durable or self._writes_through(attrs):
            self._store_fit(fit_extent.start, state)
        else:
            state.structure_moved()
        self.metrics.add(f"{self.name}.creates")
        return SystemName(self.volume_id, fit_extent.start, attrs.generation)

    # ==================================================== open/close

    def open(self, name: SystemName) -> FileAttributes:
        """Open a file: bumps the reference count, returns attributes."""
        state = self._load_state(name)
        attrs = state.fit.attributes
        attrs.ref_count += 1
        attrs.open_count_total += 1
        state.fit_dirty = True
        self.metrics.add(f"{self.name}.opens")
        return attrs.copy()

    def close(self, name: SystemName) -> None:
        """Close one instance; flushes the file's delayed writes."""
        state = self._load_state(name)
        attrs = state.fit.attributes
        if attrs.ref_count > 0:
            attrs.ref_count -= 1
            state.fit_dirty = True
        self.flush_file(name)
        self.metrics.add(f"{self.name}.closes")

    def delete(self, name: SystemName) -> None:
        """Delete a file, freeing its data, indirect blocks and FIT."""
        self.before_change(name)
        state = self._load_state(name)
        block_map = self._full_map(state)
        freed = 0
        for _, n_blocks, address in contiguous_runs(
            block_map, 0, len(block_map) - 1
        ):
            if address < 0:
                continue
            self.disk.free(Extent.for_block_run(address, n_blocks))
            if self._data_cache is not None:
                for index in range(n_blocks):
                    self._data_cache.invalidate(address + index * FRAGMENTS_PER_BLOCK)
            freed += n_blocks
        # Tree blocks and the FIT were put to both copies, so each is
        # freed *and* its stable copy released; leaves before the pointer
        # blocks that name them, the FIT last.
        tree = [state.leaves[leaf] for leaf in sorted(state.leaves)]
        tree += [a for a in state.fit.double_indirect if a is not None]
        for address in tree:
            self._discard(Extent.for_block_run(address, 1))
        fit_extent = Extent(name.fit_address, 1)
        # The stable copy's tombstone is the delete: a main copy counts
        # only while its fragment is mirrored (stored_fit), and freeing
        # the fragment unmarks it, so a stale system name finds no FIT
        # in the bytes left on the data drive.
        self.disk.release_stable(fit_extent)
        self.disk.free(fit_extent)
        self._files.pop(name.fit_address, None)
        self.metrics.add(f"{self.name}.deletes")
        self.metrics.add(f"{self.name}.blocks_freed", freed)

    # ======================================================== read

    def read(self, name: SystemName, offset: int, n_bytes: int) -> bytes:
        """Read up to ``n_bytes`` at ``offset`` (positional; idempotent).

        Short reads happen at end of file; reads inside holes return
        zero bytes ('\\x00'), matching sparse-file convention.
        """
        with self.metrics.timer(f"{self.name}.read_us", self.clock):
            return self._do_read(name, offset, n_bytes)

    def _do_read(self, name: SystemName, offset: int, n_bytes: int) -> bytes:
        if offset < 0 or n_bytes < 0:
            raise FileSizeError(f"bad read range ({offset}, {n_bytes})")
        state = self._load_state(name)
        attrs = state.fit.attributes
        attrs.last_read_us = self.clock.now_us
        state.fit_dirty = True
        end = min(offset + n_bytes, attrs.file_size)
        if end <= offset:
            return b""
        first_block = offset // BLOCK_SIZE
        last_block = (end - 1) // BLOCK_SIZE
        block_map = self._map_through(state, last_block)
        pieces: List[bytes] = []
        for block_index, n_blocks, address in contiguous_runs(
            block_map, first_block, last_block
        ):
            if address < 0:
                pieces.append(bytes(n_blocks * BLOCK_SIZE))
            else:
                pieces.append(self._fetch_run(address, n_blocks))
        data = b"".join(pieces)
        skip = offset - first_block * BLOCK_SIZE
        self.metrics.add(f"{self.name}.reads")
        self.metrics.add(f"{self.name}.bytes_read", end - offset)
        return data[skip : skip + (end - offset)]

    # ======================================================== write

    def write(
        self, name: SystemName, offset: int, data: bytes, *, delayed: bool = False
    ) -> int:
        """Write ``data`` at ``offset``, extending the file as needed.

        New blocks are allocated contiguously with the file's existing
        last block when possible, so contiguity counts stay large.
        Modified blocks follow the server's write policy: delayed
        (cached dirty) for basic files, write-through for transaction
        files.  ``delayed=True`` keeps the blocks dirty whatever the
        policy says: the transaction service applies a committed
        intentions list this way — the list is its redo log until a
        checkpoint — and it is the one write that skips the
        ``before_change`` hook.  Returns the number of bytes written.
        """
        if not delayed:
            self.before_change(name)
        with self.metrics.timer(f"{self.name}.write_us", self.clock):
            return self._do_write(name, offset, data, delayed)

    def _do_write(
        self, name: SystemName, offset: int, data: bytes, delayed: bool
    ) -> int:
        if offset < 0:
            raise FileSizeError(f"bad write offset {offset}")
        if not data:
            return 0
        state = self._load_state(name)
        attrs = state.fit.attributes
        end = offset + len(data)
        first_block = offset // BLOCK_SIZE
        last_block = (end - 1) // BLOCK_SIZE
        if last_block >= MAX_FILE_BLOCKS:
            raise FileSizeError(
                f"write would exceed the maximum mapped file size "
                f"({MAX_FILE_BLOCKS} blocks)"
            )
        block_map = self._map_through(state, last_block)
        holes = set(
            self._allocate_missing(state, block_map, first_block, last_block)
        )
        unread = not self._writes_through(attrs)
        through = not delayed and not unread
        old_size = attrs.file_size
        cursor = offset
        remaining = memoryview(bytes(data))
        while cursor < end:
            block_index = cursor // BLOCK_SIZE
            within = cursor - block_index * BLOCK_SIZE
            chunk = min(BLOCK_SIZE - within, end - cursor)
            desc = block_map[block_index]
            assert desc is not None  # _allocate_missing filled every slot
            self._write_block(
                desc.address,
                within,
                bytes(remaining[: chunk]),
                through=through,
                # A hole, or a block wholly past EOF, holds no file bytes:
                # what the write leaves of it is zeros, not the disk's.
                blank=block_index in holes or block_index * BLOCK_SIZE >= old_size,
                unread=unread,
            )
            remaining = remaining[chunk:]
            cursor += chunk
        self._grow(state, block_map, end, first_block)
        attrs.last_write_us = self.clock.now_us
        state.fit_dirty = True
        if holes and (through or delayed):
            # Vital structural information reaches stable storage at once,
            # for a committed list's apply too: its redo starts from the
            # stored map.  A basic delayed write's FIT waits for its data
            # (flush_file).
            self._store_fit(name.fit_address, state)
        self.metrics.add(f"{self.name}.writes")
        self.metrics.add(f"{self.name}.bytes_written", len(data))
        return len(data)

    # ===================================================== attributes

    def get_attribute(self, name: SystemName) -> FileAttributes:
        """Return a copy of the file's attribute block."""
        state = self._load_state(name)
        self.metrics.add(f"{self.name}.get_attributes")
        return state.fit.attributes.copy()

    def set_service_type(self, name: SystemName, service_type: ServiceType) -> None:
        """Switch the semantics a file is used under (basic <-> transaction)."""
        state = self._load_state(name)
        state.fit.attributes.service_type = service_type
        state.structure_moved()
        self._store_fit(name.fit_address, state)

    def set_file_size_at_least(self, name: SystemName, size: int) -> None:
        """Raise the recorded file size to ``size`` (transaction commits).

        Used when a shadow-page commit extends a file: the descriptor
        swap installs the data but only the FIT knows the length.
        No-op if the file is already at least that large.
        """
        state = self._load_state(name)
        if state.fit.attributes.file_size < size:
            # The commit just installed the block holding the last byte.
            last_block = (size - 1) // BLOCK_SIZE
            block_map = self._map_through(state, last_block)
            self._grow(state, block_map, size, last_block)
            self._store_fit(name.fit_address, state)

    def exists(self, name: SystemName) -> bool:
        try:
            self._load_state(name)
            return True
        except FileNotFoundError_:
            return False

    # =========================================== transaction support

    def load_fit(self, name: SystemName) -> FileIndexTable:
        """The decoded FIT (transaction service / diagnostics use)."""
        return self._load_state(name).fit

    def block_descriptor(
        self, name: SystemName, block_index: int
    ) -> Optional[BlockDescriptor]:
        """Descriptor of one logical block (None for a hole)."""
        state = self._load_state(name)
        block_map = self._map_through(state, block_index)
        if block_index >= len(block_map):
            return None
        return block_map[block_index]

    def replace_block_descriptor(
        self, name: SystemName, block_index: int, new_address: int
    ) -> Optional[int]:
        """Point logical block ``block_index`` at a different disk block.

        This is the shadow-page commit step (paper section 6.7: the
        shadow technique "requires the replacement of the block
        descriptor of the original data block with that of the shadow
        block in the file index table").  Returns the old address (or
        None if the slot was a hole).  Counts are recomputed and the
        FIT written through to original + stable storage.
        """
        state = self._load_state(name)
        block_map = self._map_through(state, block_index)
        old = block_map[block_index]
        block_map[block_index] = BlockDescriptor(new_address, 1)
        self._writeback_map(state, block_map)
        if self._data_cache is not None and old is not None:
            self._data_cache.invalidate(old.address)
        self._store_fit(name.fit_address, state)
        return old.address if old is not None else None

    def read_block(self, address: int, n_blocks: int = 1) -> bytes:
        """Read ``n_blocks`` contiguous blocks at a raw block address."""
        return self._fetch_run(address, n_blocks)

    def write_block(
        self, address: int, data: bytes, *, through: bool = True
    ) -> None:
        """Write whole blocks at a raw block address."""
        if len(data) % BLOCK_SIZE:
            raise BadAddressError("write_block needs whole blocks")
        for index in range(len(data) // BLOCK_SIZE):
            self._write_block(
                address + index * FRAGMENTS_PER_BLOCK,
                0,
                data[index * BLOCK_SIZE : (index + 1) * BLOCK_SIZE],
                through=through,
            )

    # ====================================================== flushing

    def flush_file(self, name: SystemName) -> None:
        """Write back the file's delayed blocks, then its FIT if its
        structure moved.

        The dirty blocks go back one ``put`` per run of adjacent disk
        blocks, the FIT in the put of the run that follows its fragment
        (:meth:`_store_after_data`).  A close and a transaction
        checkpoint call this: contents, size and map are durable when
        it returns, and a FIT that differs only in timestamps or open
        counts waits for the next structural store, ``flush`` or
        FIT-cache eviction.
        """
        state = self._load_state(name)
        if state.structure_dirty:
            self._store_after_data(name.fit_address, state)
        else:
            self._write_back_runs(self._mapped_below_eof(state))

    def flush(self) -> None:
        """Write back all delayed data, FITs, and the disk server state.

        The whole block pool goes back first, then every FIT that
        moved; one whose structure moved shares the put of the run
        after its fragment, as at its close (:meth:`_store_fits`), which
        adopts every file's unstored space up front, so one settle
        covers them all.
        """
        stores = [
            (fit_address, state, self._take_head(fit_address, state))
            for fit_address, state in self._files.items()
            if state.fit_dirty
        ]
        dirty = (
            {address for address, _ in self._data_cache.dirty_items()}
            if self._data_cache is not None
            else set()
        )
        self._store_fits(dirty, stores)
        self.disk.flush()
        self.metrics.add(f"{self.name}.flushes")
        self.metrics.gauge(f"{self.name}.fits_cached", len(self._files))
        self.after_flush()

    def _write_back_runs(self, addresses: Set[int]) -> None:
        """Write back the dirty blocks among ``addresses``, one disk
        reference per run of adjacent fragments (paper section 4: "any
        set of contiguous fragments/blocks" moves in one reference): a
        partially known block contributes only its known fragments, so
        it joins a run only where they touch its neighbour.

        Flush, close, a transaction checkpoint and FIT-cache eviction
        all reach disk here; only pool eviction writes back block by
        block."""
        pool = self._data_cache
        if pool is None:
            return
        dirty = pool.dirty_among(addresses)
        runs: List[Tuple[int, List[int], List[bytes]]] = []
        run_end = None
        for address in sorted(dirty):
            data, start, end = pool.partial(address) or (dirty[address], 0, BLOCK_SIZE)
            first = address + start // FRAGMENT_SIZE
            if first != run_end:
                runs.append((first, [], []))
            runs[-1][1].append(address)
            runs[-1][2].append(data[start:end])
            run_end = address + end // FRAGMENT_SIZE
            if end - start < BLOCK_SIZE:
                self.metrics.add(f"{self.name}.block_pool.partial_writebacks")
        for first, blocks, pieces in runs:
            payload = b"".join(pieces)
            self.disk.put(Extent(first, len(payload) // FRAGMENT_SIZE), payload)
            for address in blocks:
                pool.mark_clean(address)
            self.metrics.add(f"{self.name}.block_pool.writebacks", len(blocks))

    def _store_after_data(self, fit_address: int, state: _OpenState) -> None:
        """Store a FIT whose structure moved after the dirty blocks it
        maps below EOF, the run that follows its fragment in the FIT's
        own reference."""
        head = self._take_head(fit_address, state)
        self._store_fits(
            self._mapped_below_eof(state), [(fit_address, state, head)]
        )

    def _store_fits(
        self, addresses: Set[int], stores: List[Tuple[int, _OpenState, bytes]]
    ) -> None:
        """Write back the dirty blocks among ``addresses``, then store
        each ``(fit_address, state, head)`` of ``stores``, ``head`` the
        run its FIT shares a reference with (:meth:`_take_head`).

        A FIT counts through its stable copy (DESIGN.md §3, "When a FIT
        is stored"), so the free-space settle goes to the stable mirrors
        beside the data and the main copy of the first FIT without tree
        blocks to store; every stable copy and every tree block, which a
        crash leaves trusted from main, follows it.  The FITs store as
        the branches of one fan-out: one's stable copy overlaps the next
        one's main copy.
        """
        for _, state, _ in stores:
            self._adopt_unstored(state)
        early = next((store for store in stores if not store[1].tree_dirty), None)
        with fan_out(self.clock) as fork:
            with fork.branch():
                self._write_back_runs(addresses)
                if early is not None:
                    self._store_fit(*early, sync=SyncMode.BEFORE_STABLE)
            with fork.branch():
                self.disk.settle_free_space()
        with fan_out(self.clock) as fork:
            for store in stores:
                with fork.branch():
                    if store is early:
                        self.disk.drain_stable()
                    else:
                        self._store_fit(*store)

    def _take_head(self, fit_address: int, state: _OpenState) -> bytes:
        """Take the file's dirty blocks that lie in a run from right
        after its FIT fragment out of the block pool, marked clean: the
        data the FIT goes to disk with, FIT first.  None for a FIT with
        tree blocks to store, which go between its data and it.

        A partially known first block is completed with one fetch (a
        merge read) so the FIT keeps its reference with it; the run
        stops before any later partially known block."""
        pool = self._data_cache
        if state.tree_dirty or pool is None:
            return b""
        dirty = pool.dirty_among(self._mapped_below_eof(state))
        head = []
        address = fit_address + 1
        if address in dirty and pool.partial(address) is not None:
            dirty[address] = self._fetch_run(address, 1)
        while address in dirty and pool.partial(address) is None:
            head.append(dirty[address])
            pool.mark_clean(address)
            address += FRAGMENTS_PER_BLOCK
        if head:
            self.metrics.add(f"{self.name}.block_pool.writebacks", len(head))
        return b"".join(head)

    def _mapped_below_eof(self, state: _OpenState) -> Set[int]:
        """Addresses of the blocks the file maps below its EOF (none
        without a block pool: nothing is ever dirty then)."""
        size = state.fit.attributes.file_size
        if self._data_cache is None or size <= 0:
            return set()
        last = (size - 1) // BLOCK_SIZE
        block_map = self._map_through(state, last)
        return {desc.address for desc in block_map[: last + 1] if desc is not None}

    def crash(self) -> None:
        """Simulate the machine hosting this server crashing.

        Volatile state (FIT cache, block pool) is lost and the disk
        goes offline; subsequent operations raise
        :class:`~repro.common.errors.DiskCrashedError` until
        :meth:`recover` runs after the disk is repaired.
        """
        self.disk.disk.crash()
        self._drop_volatile()
        self.after_crash()
        self.metrics.add(f"{self.name}.crashes")

    def recover(self) -> None:
        """Drop volatile state after a crash; reload from the disk service."""
        self._drop_volatile()
        self.disk.recover()
        self.metrics.add(f"{self.name}.recoveries")

    def _drop_volatile(self) -> None:
        self._files.clear()
        if self._data_cache is not None:
            self._data_cache.invalidate_all()

    # ====================================================== internal

    # ---- state / FIT management

    def _install_state(self, fit_address: int, state: _OpenState) -> None:
        files = self._files
        files[fit_address] = state
        files.move_to_end(fit_address)
        while len(files) > self._fit_cache_entries:
            victim, victim_state = next(iter(files.items()))
            if victim_state.structure_dirty:
                # After its data, as at a close.
                self._store_after_data(victim, victim_state)
            elif victim_state.fit_dirty:
                self._store_fit(victim, victim_state)
            del files[victim]

    def _load_state(self, name: SystemName) -> _OpenState:
        if name.volume_id != self.volume_id:
            raise FileServiceError(
                f"{name} belongs to volume {name.volume_id}, this server is "
                f"volume {self.volume_id}"
            )
        state = self._files.get(name.fit_address)
        if state is None:
            state = self._read_fit_from_disk(name.fit_address)
            self._install_state(name.fit_address, state)
        if state.fit.attributes.generation != name.generation:
            raise FileNotFoundError_(
                f"{name} is stale (file deleted and fragment recycled)"
            )
        return state

    def _read_fit_from_disk(self, fit_address: int) -> _OpenState:
        try:
            main: Optional[bytes] = self.disk.get(Extent(fit_address, 1))
        except (BadAddressError, MediaError):
            main = None
        fit, differed = stored_fit(self.disk, fit_address, main, heal=True)
        if fit is None:
            raise FileNotFoundError_(
                f"no file index table stored at fragment {fit_address}"
            )
        if differed:
            self.metrics.add(f"{self.name}.fit_restores")
        self.metrics.add(f"{self.name}.fit_loads")
        return _OpenState(fit)

    def _store_fit(
        self,
        fit_address: int,
        state: _OpenState,
        run: bytes = b"",
        sync: SyncMode = SyncMode.AFTER_STABLE,
    ) -> None:
        """Dirty tree blocks, then the FIT, to original + stable storage;
        the FIT in one reference with ``run``, the bytes of the blocks
        that follow its fragment, if any, and its stable copy as
        ``sync`` says.

        What was allocated to the file since its last store joins the
        durable free space first: the first stable-bound put settles it
        (a deferred one, at the stable copy).
        """
        self._adopt_unstored(state)
        if state.tree_dirty and state.block_map is not None:
            for address, descriptors in self._tree_writes(state):
                self.disk.put(
                    Extent.for_block_run(address, 1),
                    encode_indirect_block(descriptors),
                    stability=Stability.BOTH,
                )
                self.metrics.add(f"{self.name}.indirect_stores")
        state.tree_dirty = False
        self.disk.put(
            Extent(fit_address, 1 + len(run) // FRAGMENT_SIZE),
            state.fit.encode() + run,
            stability=Stability.HEAD_BOTH if run else Stability.BOTH,
            sync=sync,
        )
        state.fit_dirty = state.structure_dirty = False
        self.metrics.add(f"{self.name}.fit_stores")

    def _adopt_unstored(self, state: _OpenState) -> None:
        for extent in state.unstored:
            self.disk.adopt(extent)
        state.unstored.clear()

    def _writes_through(self, attrs: FileAttributes) -> bool:
        """Write-through for transaction files, and for every file under
        that policy; delayed write otherwise (paper section 5)."""
        return (
            self.write_policy is WritePolicy.WRITE_THROUGH
            or attrs.service_type is ServiceType.TRANSACTION
        )

    def _discard(self, extent: Extent) -> None:
        """Free an extent that was put with ``Stability.BOTH``."""
        self.disk.free(extent)
        self.disk.release_stable(extent)

    # ---- block map (direct descriptors + block-map tree, see fit.py)

    def _map_through(
        self, state: _OpenState, last_block: int
    ) -> List[Optional[BlockDescriptor]]:
        """The logical block map, materialised through ``last_block``."""
        if last_block < DIRECT_DESCRIPTORS and state.block_map is None:
            return state.fit.direct
        full = self._full_map(state)
        while len(full) <= last_block:
            full.append(None)
        return full

    def _full_map(self, state: _OpenState) -> List[Optional[BlockDescriptor]]:
        """The whole logical map; the first call walks the tree from disk."""
        if state.block_map is None:
            blocks = []
            for block in walk_tree(state.fit, self._read_tree_block):
                blocks.append(block)
                if block.leaf is not None:
                    state.leaves[block.leaf] = block.address
                    self.metrics.add(f"{self.name}.indirect_loads")
            state.block_map = logical_map(state.fit, blocks)
        return state.block_map

    def _read_tree_block(self, address: int) -> bytes:
        return self.disk.get(Extent.for_block_run(address, 1))

    def _writeback_map(
        self, state: _OpenState, block_map: List[Optional[BlockDescriptor]]
    ) -> None:
        """Recompute counts and fold the map back into FIT + tree."""
        block_map = recompute_counts(block_map)
        state.block_map = block_map if len(block_map) > DIRECT_DESCRIPTORS else None
        state.fit.direct = block_map[:DIRECT_DESCRIPTORS] + [None] * (
            DIRECT_DESCRIPTORS - len(block_map)
        )
        state.structure_moved()
        # Whatever a populated leaf needs *in the FIT* is allocated now —
        # its own block (leaves 0-7) or its pointer block — because the
        # caller stores the FIT next; a leaf below a pointer block gets
        # its block when first flushed (_tree_writes).
        fit = state.fit
        for leaf, _ in populated_leaves(block_map):
            state.tree_dirty = True
            outer = pointer_block_of(leaf)
            if outer is None:
                if leaf not in state.leaves:
                    address = self._allocate_tree_block(state)
                    state.leaves[leaf] = fit.single_indirect[leaf] = address
            elif fit.double_indirect[outer] is None:
                fit.double_indirect[outer] = self._allocate_tree_block(state)

    def _allocate_tree_block(self, state: _OpenState) -> int:
        extent = self.disk.allocate_block(1, scratch=True, high=False)
        state.unstored.append(extent)
        return extent.start

    def _tree_writes(
        self, state: _OpenState
    ) -> Iterator[Tuple[int, List[Optional[BlockDescriptor]]]]:
        """``(address, descriptors)`` of every tree block to store, in order.

        Children go before parents — leaves under pointer blocks, the
        pointer blocks that gained a leaf, the leaves the FIT itself
        names; the caller stores the FIT last — so a crash never leaves
        a stored block naming one that was never written.
        """
        leaves = state.leaves
        named_by_fit, grown = [], set()
        for leaf, descriptors in populated_leaves(state.block_map):
            outer = pointer_block_of(leaf)
            if outer is None:
                named_by_fit.append((leaves[leaf], descriptors))
                continue
            if leaf not in leaves:
                leaves[leaf] = self.disk.allocate_block(1).start
                grown.add(outer)
            yield leaves[leaf], descriptors
        for outer in sorted(grown):
            yield state.fit.double_indirect[outer], [
                None if address is None else BlockDescriptor(address, 1)
                for address in map(leaves.get, leaves_under(outer))
            ]
        yield from named_by_fit

    # ---- allocation

    def _allocate_missing(
        self,
        state: _OpenState,
        block_map: List[Optional[BlockDescriptor]],
        first_block: int,
        last_block: int,
    ) -> List[int]:
        """Ensure every block in [first_block, last_block] is mapped.

        Returns the indices that were holes (non-empty: a structural
        change).  Allocation policy: extend contiguously with the
        highest mapped predecessor when the adjacent fragments are free,
        else allocate the whole missing range as one contiguous run,
        else gather.
        """
        missing = [
            index
            for index in range(first_block, last_block + 1)
            if index >= len(block_map) or block_map[index] is None
        ]
        if not missing:
            return missing
        while len(block_map) <= last_block:
            block_map.append(None)
        # A reservation maps its surplus blocks past the run, into slots
        # wholly past EOF: a hole below EOF reads as zeros, and mapping
        # it would expose whatever the disk holds there.  While the tree
        # has not been loaded (``block_map`` is the direct area of a
        # file that has one) the surplus stops at the end of that area:
        # beyond it lie blocks the tree may already map.
        limit = MAX_FILE_BLOCKS
        if state.block_map is None and state.fit.uses_indirection():
            limit = DIRECT_DESCRIPTORS
        spare = range(-(-state.fit.attributes.file_size // BLOCK_SIZE), limit)
        for run_start, run_len in self._group_consecutive(missing):
            self._allocate_run(state, block_map, run_start, run_len, spare)
        self._writeback_map(state, block_map)
        return missing

    def _allocate_run(
        self,
        state: _OpenState,
        block_map: List[Optional[BlockDescriptor]],
        run_start: int,
        run_len: int,
        spare: range,
    ) -> None:
        """Map ``run_len`` blocks from ``run_start``: scratch extents,
        where an ordinary allocation would go, kept on ``state.unstored``
        as far as they are mapped."""
        allocated: List[Extent] = []
        # Try to continue contiguously after the preceding mapped block,
        # reserving ahead of the immediate need so interleaved appenders
        # cannot shred each other's layout.  The reservation is capped by
        # how big the file already is (doubling-style), so small files
        # never over-allocate.
        predecessor = block_map[run_start - 1] if run_start > 0 else None
        remaining = run_len
        mapped_before = sum(1 for desc in block_map if desc is not None)
        if predecessor is not None:
            reserve = min(self.growth_batch_blocks - 1, mapped_before)
            want = remaining + max(0, reserve)
            extent = self.disk.try_allocate_at(
                predecessor.address + FRAGMENTS_PER_BLOCK,
                want * FRAGMENTS_PER_BLOCK,
                scratch=True,
            )
            while extent is None and want > 1:
                want -= 1
                extent = self.disk.try_allocate_at(
                    predecessor.address + FRAGMENTS_PER_BLOCK,
                    want * FRAGMENTS_PER_BLOCK,
                    scratch=True,
                )
            if extent is not None:
                allocated.append(extent)
                remaining -= min(want, remaining)
        fresh_reserve = max(0, min(self.growth_batch_blocks - 1, mapped_before))
        while remaining > 0:
            try:
                # A fresh run also reserves ahead: the file could not
                # extend in place, so future appends should at least be
                # contiguous with *this* run.
                try:
                    extent = self.disk.allocate(
                        (remaining + fresh_reserve) * FRAGMENTS_PER_BLOCK,
                        scratch=True,
                        high=False,
                    )
                except DiskFullError:
                    if fresh_reserve == 0:
                        raise
                    fresh_reserve = 0
                    extent = self.disk.allocate(
                        remaining * FRAGMENTS_PER_BLOCK, scratch=True, high=False
                    )
                allocated.append(extent)
                remaining = 0
            except DiskFullError:
                # Scattered fallback: one block at a time.  A block still
                # needs four contiguous fragments; if even that fails the
                # disk genuinely cannot hold another data block.
                allocated.append(
                    self.disk.allocate_block(1, scratch=True, high=False)
                )
                remaining -= 1
        index = run_start
        for extent in allocated:
            kept = extent.whole_blocks
            for block in range(extent.whole_blocks):
                address = extent.start + block * FRAGMENTS_PER_BLOCK
                if index < run_start + run_len:
                    block_map[index] = BlockDescriptor(address, 1)
                    index += 1
                    continue
                # Surplus from the reservation: map it into the directly
                # following unmapped ``spare`` slots (preallocation), free
                # the rest.
                if index in spare and (
                    index >= len(block_map) or block_map[index] is None
                ):
                    while len(block_map) <= index:
                        block_map.append(None)
                    block_map[index] = BlockDescriptor(address, 1)
                    index += 1
                else:
                    self.disk.free(
                        Extent.for_block_run(
                            address, extent.whole_blocks - block
                        )
                    )
                    kept = block
                    break
            if kept:
                state.unstored.append(Extent.for_block_run(extent.start, kept))

    @staticmethod
    def _group_consecutive(indices: List[int]) -> List[Tuple[int, int]]:
        """``(first, length)`` of each run of consecutive ascending
        ``indices``."""
        runs: List[Tuple[int, int]] = []
        for index in indices:
            if runs and index == runs[-1][0] + runs[-1][1]:
                runs[-1] = (runs[-1][0], runs[-1][1] + 1)
            else:
                runs.append((index, 1))
        return runs

    # ---- data block I/O through the server cache

    def _grow(
        self,
        state: _OpenState,
        block_map: List[Optional[BlockDescriptor]],
        end: int,
        written_from: int,
    ) -> None:
        """Raise the file size to ``end``, if that is larger.

        A mapped block that lay wholly past the old EOF and before block
        ``written_from`` (a growth reservation the caller did not write)
        still holds whatever the disk held there — a deleted file's
        bytes.  It is zeroed on disk at once, before any FIT counting it
        below EOF is stored: every mapped block below EOF was written,
        which is what lets a partial write trust the old EOF, and no
        commit's redo, which starts from the stored size, has to.
        """
        attrs = state.fit.attributes
        if end <= attrs.file_size:
            return
        for index in range(-(-attrs.file_size // BLOCK_SIZE), written_from):
            desc = block_map[index]
            if desc is not None:
                self._write_block(desc.address, 0, bytes(BLOCK_SIZE), through=True)
        attrs.file_size = end
        state.structure_moved()

    def _fetch_run(self, address: int, n_blocks: int) -> bytes:
        """Read a contiguous run of blocks, server cache first.

        Fully cached runs cost no disk reference; otherwise uncached
        sub-runs are fetched, each in one disk reference (the
        contiguity-count payoff).  A partially known block counts as
        uncached: its fetch fills in what the pool does not hold, under
        the pool's newer bytes (a merge read).
        """
        pool = self._data_cache
        if pool is None:
            return self.disk.get(Extent.for_block_run(address, n_blocks))
        pieces: List[bytes] = []
        index = 0
        while index < n_blocks:
            block_addr = address + index * FRAGMENTS_PER_BLOCK
            cached = pool.get(block_addr)
            if cached is not None:
                pieces.append(cached)
                index += 1
                continue
            # Find the extent of the uncached sub-run.
            miss_len = 1
            while index + miss_len < n_blocks and not pool.contains(
                address + (index + miss_len) * FRAGMENTS_PER_BLOCK
            ):
                miss_len += 1
            miss = Extent.for_block_run(block_addr, miss_len)
            keys = [block_addr + sub * FRAGMENTS_PER_BLOCK for sub in range(miss_len)]
            partial = [key for key in keys if pool.partial(key) is not None]
            victims = pool.dirty_victims(miss_len - len(partial), partial)
            if victims:
                # What caching the miss evicts goes back beside the get,
                # not after it: on an array the two overlap.
                with fan_out(self.clock) as fork:
                    with fork.branch():
                        data = self.disk.get(miss)
                    with fork.branch():
                        pool.write_back(victims)
            else:
                data = self.disk.get(miss)
            pieces += pool.fill(
                [
                    (key, data[sub * BLOCK_SIZE : (sub + 1) * BLOCK_SIZE])
                    for sub, key in enumerate(keys)
                ]
            )
            index += miss_len
        return b"".join(pieces)

    def _write_block(
        self,
        address: int,
        within: int,
        chunk: bytes,
        *,
        through: bool,
        blank: bool = False,
        unread: bool = False,
    ) -> None:
        """Put ``chunk`` at ``within`` of one block; a partial write merges
        it into the block's current bytes — zeros if ``blank``, else read,
        unless ``unread`` lets whole fragments stay in the pool alone
        (:meth:`_write_fragments`)."""
        if within == 0 and len(chunk) == BLOCK_SIZE:
            block = chunk
        elif not blank and unread and self._write_fragments(address, within, chunk):
            return
        else:
            current = bytes(BLOCK_SIZE) if blank else self._fetch_run(address, 1)
            block = current[:within] + chunk + current[within + len(chunk) :]
        if self._data_cache is None or through:
            self._write_block_to_disk(address, block)
            if self._data_cache is not None:
                self._data_cache.put(address, block, dirty=False)
        else:
            self._data_cache.put(address, block, dirty=True)

    def _write_fragments(self, address: int, within: int, chunk: bytes) -> bool:
        """Keep a fragment-aligned partial write in the pool, dirty,
        without reading the rest of its block (paper section 4: any set
        of contiguous fragments moves in one reference): the block
        becomes, or stays, partially known, and whole once its known
        fragments cover it.  False, with nothing done, for a write that
        is not fragment-aligned, a block the pool holds whole, or one
        whose known range the write would leave a gap beside."""
        pool = self._data_cache
        end = within + len(chunk)
        if pool is None or within % FRAGMENT_SIZE or end % FRAGMENT_SIZE:
            return False
        if pool.contains(address):
            return False
        held = pool.partial(address)
        if held is None:
            current, start, stop = bytes(BLOCK_SIZE), within, end
        else:
            current, start, stop = held
            if within > stop or end < start:
                return False
            start, stop = min(start, within), max(stop, end)
        block = current[:within] + chunk + current[end:]
        whole = start == 0 and stop == BLOCK_SIZE
        pool.put(address, block, dirty=True, known=None if whole else (start, stop))
        return True

    def _write_block_to_disk(self, address: int, data: bytes, start: int = 0) -> None:
        """Write ``data`` at byte ``start`` of the block at ``address``
        (whole fragments)."""
        self.disk.put(
            Extent(address + start // FRAGMENT_SIZE, len(data) // FRAGMENT_SIZE),
            data,
        )

    def __repr__(self) -> str:
        return f"FileServer(volume={self.volume_id}, files_cached={len(self._files)})"

