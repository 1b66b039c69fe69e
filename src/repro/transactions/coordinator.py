"""The transaction coordinator: commit, abort, crash recovery.

This is the file-server side of the transaction service: it owns one
lock manager and one intention store per volume, runs the commit
discipline of sections 6.6–6.7 against the disk and file services, and
replays or discards intentions lists after a crash.

Commit of a transaction with tentative items:

1. **Prepare** — every tentative item's after-image is written to a
   freshly allocated *scratch* extent (the durable tentative data
   item).  Scratch extents are free space as far as every free-space
   record is concerned, so a crash from here to the commit point
   costs nothing to undo.  Each item is tagged with the technique that
   will make it permanent: **WAL** when the file's data blocks are
   contiguous (in-place update preserves the contiguity the allocator
   worked for) or **shadow page** when they are not (descriptor swap,
   cheaper commit I/O, but it "destroys the contiguity of data
   blocks").  Record-level items always use WAL ("there is no
   justification to tie up a complete block or fragment").
2. **Commit point** — one careful write per involved volume puts the
   whole intentions list *and* its flag on stable storage
   (:mod:`repro.transactions.intentions`).  On a single volume the list
   is written with status ``commit`` and that write is the commit
   point; across volumes the lists are ``tentative`` and the
   ``txndecision:`` record written after them is.  A crash before the
   commit point aborts the transaction; after it, recovery redoes the
   lists (both techniques are idempotent).
3. **Apply, and return** — WAL records are written in place through
   the file service and stay dirty in its block pool; shadow records
   have the disk server *adopt* the scratch extent, swap the block
   descriptor in the FIT to it and free the block the swap retired.
   A swap or a delete stores its new structure at once, so the space
   it freed is settled before ``tend`` returns (a crash must not find
   the structure gone and the space still allocated).  Then the locks
   are released (the unlock phase of 2PL ends here) and ``tend``
   returns.  Nothing else is forced: the list is the commit's redo
   log, *pending* on its volume under its commit sequence (lsn) until a
   checkpoint retires it.
4. **Checkpoint** — once the dirty blocks, FITs and free space the
   pending lists applied are durable, one careful write of the
   volume's watermark retires every pending list at once; then their
   WAL scratch extents are freed and their stable slots forgotten
   without tombstones.  It runs after every full
   :meth:`FileServer.flush` (a cluster's ``flush_all``), and as a
   *targeted* checkpoint — flush the pending lists' files, settle free
   space, retire — for the barrier and the bound below and at the end
   of recovery.  A volume with nothing pending writes nothing.

Redo replays a volume's pending lists in commit order and is sound for
in-place writes only, so a file some pending list covers is
checkpointed before anything else changes it: a basic ``write`` or a
``delete`` (the file service's ``before_change`` hook), and a commit
that deletes it or swaps one of its block descriptors.  At most
:data:`MAX_PENDING_LISTS` lists are pending per volume; the commit that
reaches the bound checkpoints.  A crashed server (its block pool lost)
retires nothing until recovery has redone its lists.

Recovery of a volume loads the durable free space (the free-space
log's base and tail) and the watermark, forgets the lists at or below
it without reading them, re-claims the scratch extents the others name,
redoes the committed ones in lsn order, discards the rest, checkpoints,
and writes the free space as the log's new base.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Literal, NamedTuple, Optional, Sequence, Tuple

from repro.common.clock import SimClock
from repro.common.errors import (
    BadAddressError,
    DiskError,
    InvalidTransactionStateError,
    TransactionError,
)
from repro.common.ids import SystemName, monotonic_id_factory
from repro.common.metrics import Metrics
from repro.common.units import BLOCK_SIZE, FRAGMENTS_PER_BLOCK, fragments_for_bytes
from repro.common.weak import weak_method
from repro.disk_service.addresses import Extent
from repro.file_service.attributes import LockingLevel
from repro.file_service.server import FileServer
from repro.transactions.intentions import (
    INLINE_LIMIT,
    IntentionList,
    IntentionRecord,
    IntentionStore,
    Technique,
)
from repro.transactions.lock_manager import LockManager, TimeoutPolicy
from repro.transactions.transaction import (
    TentativeItem,
    Transaction,
    TransactionPhase,
    TransactionStatus,
)

TechniqueChoice = Literal["auto", "wal", "shadow"]

#: Most intentions lists a volume keeps pending: the commit that reaches
#: it checkpoints the volume.  It bounds the stable storage the lists
#: hold and the redo a recovery faces; a ``txn_bank`` unit (256
#: transfers, then a flush) stays at half of it.
MAX_PENDING_LISTS = 512


class _Pending(NamedTuple):
    """A committed list not yet retired by a checkpoint."""

    lsn: int
    tid: int
    #: Extents to free once the list is retired: the WAL after-images
    #: (a shadow extent became a block of its file).
    scratch: Tuple[Extent, ...]
    #: Part of a multi-volume commit, whose decision record outlives it.
    shared: bool


class _VolumeBinding:
    """Everything the coordinator needs about one volume."""

    __slots__ = (
        "file_server", "locks", "intents", "pending", "pending_files",
        "next_lsn", "crashed",
    )

    def __init__(self, file_server: FileServer, locks: LockManager) -> None:
        self.file_server = file_server
        self.locks = locks
        self.intents = IntentionStore(file_server.disk.stable)
        #: Committed lists awaiting the next checkpoint, in lsn order.
        self.pending: List[_Pending] = []
        #: The files those lists cover, in first-commit order (a dict
        #: for that order; the values are unused).
        self.pending_files: Dict[SystemName, None] = {}
        self.next_lsn = 1
        #: The server lost its block pool, and with it what the pending
        #: lists applied: nothing may retire them before recovery redoes
        #: them.
        self.crashed = False


class TransactionCoordinator:
    """System-wide transaction machinery over a set of volumes.

    Args:
        clock, metrics: the shared simulation context.
        policy: LT/N timeout policy applied by every volume's lock
            manager (experiments E8/A2 sweep it).
        technique: ``"auto"`` (the paper's contiguity rule), or force
            ``"wal"`` / ``"shadow"`` everywhere (experiment E9).
    """

    def __init__(
        self,
        clock: SimClock,
        metrics: Metrics,
        *,
        policy: Optional[TimeoutPolicy] = None,
        technique: TechniqueChoice = "auto",
    ) -> None:
        self.clock = clock
        self.metrics = metrics
        self.policy = policy or TimeoutPolicy()
        self.technique: TechniqueChoice = technique
        self._volumes: Dict[int, _VolumeBinding] = {}
        self._next_tid = monotonic_id_factory()
        #: CHAOS-TEST-ONLY.  When True, recovery deliberately skips
        #: replaying committed intentions, and retires them anyway,
        #: leaving whatever partial state the crash produced.  Exists so
        #: the crash sweep can prove it *detects* a broken recovery
        #: path; never set this outside tests.
        self.unsafe_skip_redo = False
        #: CHAOS-TEST-ONLY, like ``unsafe_skip_redo``: recovery redoes
        #: the pending lists in tid order instead of commit order.
        self.unsafe_tid_order = False

    # ------------------------------------------------------- wiring

    def register_volume(self, file_server: FileServer) -> None:
        if file_server.volume_id in self._volumes:
            raise TransactionError(f"volume {file_server.volume_id} already registered")
        locks = LockManager(
            self.clock,
            self.metrics,
            self.policy,
            name=f"lock_manager.{file_server.volume_id}",
        )
        self._volumes[file_server.volume_id] = _VolumeBinding(file_server, locks)
        # The file service never imports this one: it calls back.
        file_server.before_change = weak_method(self._barrier)
        file_server.after_flush = partial(
            weak_method(self._retire), file_server.volume_id
        )
        file_server.after_crash = partial(
            weak_method(self._note_crash), file_server.volume_id
        )

    def lock_manager(self, volume_id: int) -> LockManager:
        return self._binding(volume_id).locks

    def file_server(self, volume_id: int) -> FileServer:
        return self._binding(volume_id).file_server

    def volume_ids(self) -> List[int]:
        return sorted(self._volumes)

    # ----------------------------------------------------- lifecycle

    def begin(
        self,
        machine_id: str,
        process_id: int = 0,
        *,
        parent: Optional[Transaction] = None,
    ) -> Transaction:
        if parent is not None and not parent.is_live:
            raise InvalidTransactionStateError(
                f"cannot nest under transaction {parent.tid}: it is "
                f"{parent.status.value}"
            )
        transaction = Transaction(
            tid=self._next_tid(),
            machine_id=machine_id,
            process_id=process_id,
            started_at_us=self.clock.now_us,
            parent=parent,
        )
        if parent is not None:
            parent.children.append(transaction)
            self.metrics.add("transactions.nested_begun")
        self.metrics.add("transactions.begun")
        return transaction

    # -------------------------------------------------------- commit

    def commit(self, transaction: Transaction) -> None:
        """Make the transaction's tentative changes permanent (tend).

        A *nested* transaction's commit does not touch the disk: its
        tentative items, tentative sizes, created/deleted file lists
        and locks merge into the parent, whose own (eventual) top-level
        commit makes everything durable at once.
        """
        with self.metrics.timer("transactions.commit_us", self.clock):
            self._do_commit(transaction)

    def _do_commit(self, transaction: Transaction) -> None:
        if transaction.status is not TransactionStatus.TENTATIVE:
            raise InvalidTransactionStateError(
                f"transaction {transaction.tid} is {transaction.status.value}, "
                f"cannot commit"
            )
        if any(child.is_live for child in transaction.children):
            raise InvalidTransactionStateError(
                f"transaction {transaction.tid} still has live nested "
                f"children; finish them first"
            )
        if transaction.parent is not None:
            self._commit_child(transaction)
            return
        transaction.phase = TransactionPhase.UNLOCKING
        records = [
            self._prepare_item(transaction, entry)
            for entry in transaction.all_tentative_items()
        ]
        deletes = [name for _, name in transaction.deleted_files]
        volumes = self._volumes_of(records, deletes)
        for name in deletes + [
            r.name for r in records if r.technique is Technique.SHADOW
        ]:
            self._barrier(name)
        # A single volume's list is written with status 'commit' and is
        # itself the commit point.  Across volumes every list goes out
        # 'tentative' and the decision record on the coordinator volume
        # (lowest id), written after them, is: a crash between the list
        # writes aborts everywhere, one after the decision redoes
        # everywhere, and no list is rewritten to say so.
        status = (
            TransactionStatus.COMMITTED
            if len(volumes) == 1
            else TransactionStatus.TENTATIVE
        )
        lists = {}
        for volume_id in volumes:
            binding = self._binding(volume_id)
            lsn = binding.next_lsn
            binding.next_lsn += 1
            lists[volume_id] = (lsn, IntentionList(
                tid=transaction.tid,
                status=status,
                records=tuple(r for r in records if r.name.volume_id == volume_id),
                deletes=tuple(n for n in deletes if n.volume_id == volume_id),
            ))
            binding.intents.write(*lists[volume_id])
        if len(volumes) > 1:
            self._binding(volumes[0]).intents.set_decision(
                transaction.tid, volumes
            )
        transaction.status = TransactionStatus.COMMITTED
        for record in records:
            self._apply(record)
        self._apply_sizes(transaction)
        for name in deletes:
            self._binding(name.volume_id).file_server.delete(name)
        # A delete's FIT tombstone and a swap's FIT are durable already;
        # the space they freed must be too, or a crash before the
        # checkpoint leaks it (redo finds the structure moved, frees
        # nothing).
        for volume_id in sorted(
            {name.volume_id for name in deletes}
            | {r.name.volume_id for r in records if r.technique is Technique.SHADOW}
        ):
            self._binding(volume_id).file_server.disk.settle_free_space()
        for volume_id, (lsn, intentions) in lists.items():
            self._pend(self._binding(volume_id), lsn, intentions, redone=True)
        self._release_locks(transaction)
        self.metrics.add("transactions.committed")
        for volume_id in volumes:
            binding = self._binding(volume_id)
            if len(binding.pending) >= MAX_PENDING_LISTS:
                self._checkpoint(binding)

    def _commit_child(self, child: Transaction) -> None:
        """Merge a committing nested transaction into its parent."""
        parent = child.parent
        assert parent is not None
        child.phase = TransactionPhase.UNLOCKING
        child.status = TransactionStatus.COMMITTED
        # Tentative items: the child's data already layers on top of the
        # parent's (reads composed the ancestry), so later sequences win.
        for entry in child.all_tentative_items():
            entry.sequence = parent.next_sequence()
            if entry.item.level is LockingLevel.RECORD:
                parent.tentative_records.append(entry)
            else:
                parent.tentative_map[entry.item] = entry
        for name, size in child.tentative_sizes.items():
            parent.tentative_sizes[name] = max(
                parent.tentative_sizes.get(name, 0), size
            )
        parent.created_files.extend(child.created_files)
        parent.deleted_files.extend(child.deleted_files)
        parent.open_files.update(child.open_files)
        for binding in self._volumes.values():
            binding.locks.transfer_locks(child, parent)
        parent.children.remove(child)
        self.metrics.add("transactions.nested_committed")

    # --------------------------------------------------------- abort

    def abort(self, transaction: Transaction, *, reason: str = "tabort") -> None:
        """Discard the transaction's tentative changes (tabort).

        Aborting a parent cascades to its live nested children; aborting
        a child discards only the child's own work.
        """
        with self.metrics.timer("transactions.abort_us", self.clock):
            self._do_abort(transaction, reason=reason)

    def _do_abort(self, transaction: Transaction, *, reason: str) -> None:
        if transaction.status is TransactionStatus.COMMITTED:
            raise InvalidTransactionStateError(
                f"transaction {transaction.tid} already committed"
            )
        for child in list(transaction.children):
            if child.is_live:
                self.abort(child, reason=f"parent-{reason}")
        if transaction.parent is not None:
            transaction.parent.children = [
                sibling
                for sibling in transaction.parent.children
                if sibling.tid != transaction.tid
            ]
        transaction.phase = TransactionPhase.UNLOCKING
        if transaction.status is TransactionStatus.TENTATIVE:
            transaction.status = TransactionStatus.ABORTED
            transaction.abort_reason = reason
        for entry in transaction.all_tentative_items():
            if entry.extent is not None:
                self._safe_free(entry.volume_id, entry.extent)
                entry.extent = None
        for _, name in transaction.created_files:
            binding = self._binding(name.volume_id)
            if binding.file_server.exists(name):
                binding.file_server.delete(name)
        self._release_locks(transaction)
        self.metrics.add("transactions.aborted")

    # ------------------------------------------------------ timeouts

    def expire_locks(self, now_us: int) -> List[Transaction]:
        """Run the LT/N timeout policy on every volume; returns victims.

        Victims' locks are broken and their status set to ABORTED; the
        transaction agent surfaces the abort (and cleans up) on the
        victim's next operation.
        """
        victims: List[Transaction] = []
        for binding in self._volumes.values():
            victims.extend(binding.locks.expire(now_us))
        return victims

    def next_expiry_us(self) -> Optional[int]:
        expiries = [
            expiry
            for binding in self._volumes.values()
            if (expiry := binding.locks.next_expiry_us()) is not None
        ]
        return min(expiries) if expiries else None

    # ------------------------------------------------------ recovery

    def recover_volume(self, volume_id: int) -> Tuple[int, int]:
        """Crash recovery for one volume; returns (redone, discarded).

        Lists at or below the volume's watermark were retired and are
        forgotten unread.  Of the rest, those whose flag says ``commit``
        — or ``tentative`` with a multi-volume decision on record — are
        redone in commit order (their after-images are on disk, the
        operations idempotent); any other list is discarded.  A
        checkpoint then retires them all.  The whole pass is one
        ``transactions.recovery_us`` timing observation:
        recovery time is the half of the availability story that crash
        injection alone does not measure.
        """
        with self.metrics.timer("transactions.recovery_us", self.clock):
            return self._recover_volume(volume_id)

    def _recover_volume(self, volume_id: int) -> Tuple[int, int]:
        binding = self._binding(volume_id)
        disk = binding.file_server.disk
        # Stable storage first, over the in-memory directory (the chaos
        # sweeps rebuild it from the mirrors first; both then run this
        # one recover): each key keeps its newest copy that heals and
        # frees the rest, and a key with no copy left to heal — a first
        # careful write that never completed — is dropped, so the
        # file/disk recovery below cannot trip over it when it reads
        # the free-space log.
        disk.stable.recover()
        binding.file_server.recover()
        binding.pending = []
        binding.pending_files.clear()
        binding.crashed = False
        watermark = binding.intents.retired_through()
        lists = []
        for lsn, tid in binding.intents.lists():
            if lsn <= watermark:
                # Retired: its effects are durable and its extents may
                # belong to anyone by now.
                binding.intents.forget(lsn, tid)
            else:
                lists.append((lsn, binding.intents.read(lsn, tid)))
        if self.unsafe_tid_order:
            lists.sort(key=lambda listed: listed[1].tid)
        binding.next_lsn = max(
            [binding.next_lsn, watermark + 1] + [lsn + 1 for lsn, _ in lists]
        )
        # No free-space record contains a scratch extent, so the loaded
        # bitmap calls every surviving after-image free space.  Re-claim them
        # all before anything below allocates.
        for _, intentions in lists:
            for record in intentions.records:
                if record.extent is not None:
                    disk.reclaim_scratch(record.extent)
        redone = 0
        discarded = 0
        for lsn, intentions in lists:
            committed = intentions.status is TransactionStatus.COMMITTED
            if not committed:
                # A tentative list belongs to a multi-volume commit; the
                # decision record on its coordinator volume says whether
                # the commit point was reached.
                decision = self._find_decision(intentions.tid)
                committed = decision is not None and volume_id in decision
            # With the deliberately broken path enabled (see __init__),
            # committed redo information is dropped without replay: the
            # crash sweep must flag the partial state that leaves.
            replay = committed and not self.unsafe_skip_redo
            if replay:
                self._redo(binding, intentions)
            if committed:
                redone += 1
            else:
                discarded += 1
            self._pend(binding, lsn, intentions, redone=replay)
        self._checkpoint(binding)
        self._collect_stale_decisions()
        # A rebase: the whole recovered bitmap as the log's new base.
        disk.checkpoint_free_space()
        self.metrics.add("transactions.recoveries")
        return redone, discarded

    def _redo(self, binding: _VolumeBinding, intentions: IntentionList) -> None:
        """Carry a committed list out again, from wherever the crash left it."""
        server = binding.file_server
        # Deletes run after every apply, so a listed file that is already
        # gone had its records applied before the crash.
        gone = {name for name in intentions.deletes if not server.exists(name)}
        for record in intentions.records:
            if record.name not in gone:
                self._apply(record)
        for name in intentions.deletes:
            if name not in gone:
                server.delete(name)

    # ---------------------------------------------------- checkpoint

    def _pend(
        self,
        binding: _VolumeBinding,
        lsn: int,
        intentions: IntentionList,
        *,
        redone: bool,
    ) -> None:
        """Hold an applied (or discarded) list until the next checkpoint.

        Retiring it frees the scratch extents nothing adopted: a WAL
        after-image's always, a shadow extent's unless ``redone`` applied
        it.
        """
        binding.pending.append(_Pending(
            lsn=lsn,
            tid=intentions.tid,
            scratch=tuple(
                record.extent
                for record in intentions.records
                if record.extent is not None
                and (record.technique is Technique.WAL or not redone)
            ),
            shared=intentions.status is TransactionStatus.TENTATIVE,
        ))
        binding.pending_files.update(
            dict.fromkeys(record.name for record in intentions.records)
        )

    def _barrier(self, name: SystemName) -> None:
        """Checkpoint ``name``'s volume if a pending list covers the file.

        Redo replays a volume's lists in commit order, which is sound
        while every change to their files goes through a list.  A basic
        write, a delete or a descriptor swap does not (a redo would write
        the listed bytes over newer ones, or into released space), so
        those lists are retired first.
        """
        binding = self._volumes.get(name.volume_id)
        if binding is not None and name in binding.pending_files:
            self._checkpoint(binding)

    def _checkpoint(self, binding: _VolumeBinding) -> None:
        """Make what the pending lists applied durable, then retire them.

        The files they cover are flushed (dirty blocks, then a FIT whose
        structure moved) and free space is settled: the part of a full
        :meth:`FileServer.flush` the lists need, and nothing else.  A
        full flush here would also store every timestamp-dirty FIT and
        the protection map: E9's 30 shadow commits, each behind a
        barrier, would write 89 times and 716 sectors instead of 60 and
        600, more than WAL's 708.
        """
        if not binding.pending:
            return
        server = binding.file_server
        for name in binding.pending_files:
            if server.exists(name):  # not deleted since
                server.flush_file(name)
        server.disk.settle_free_space()
        self._retire(server.volume_id)

    def _retire(self, volume_id: int) -> None:
        """Retire every pending list of a volume whose effects are durable.

        Runs after every full flush of the volume's server (and ends a
        targeted checkpoint), which made durable what the lists applied:
        dirty blocks, FITs, free space.
        One careful write of the watermark retires them all; only then
        are their WAL scratch extents freed and their stable slots
        forgotten (no tombstones: the watermark supersedes them).
        """
        binding = self._binding(volume_id)
        if binding.crashed or not binding.pending:
            return
        retired = binding.pending
        binding.intents.retire_through(retired[-1].lsn)
        binding.pending = []
        binding.pending_files.clear()
        for entry in retired:
            binding.intents.forget(entry.lsn, entry.tid)
            for extent in entry.scratch:
                self._safe_free(volume_id, extent)
        self.metrics.add("transactions.lists_retired", len(retired))
        if any(entry.shared for entry in retired):
            self._collect_stale_decisions()

    def _note_crash(self, volume_id: int) -> None:
        self._binding(volume_id).crashed = True

    def _find_decision(self, tid: int) -> Optional[List[int]]:
        """The commit decision for ``tid``, wherever it was recorded."""
        for other in self._volumes.values():
            decision = other.intents.get_decision(tid)
            if decision is not None:
                return decision
        return None

    def _collect_stale_decisions(self) -> None:
        """Drop decision records whose transactions are fully cleaned up.

        A decision may only disappear once no registered volume holds a
        list for the transaction above its durable watermark; until then
        it must stay, because it is what turns a tentative list's
        recovery into a redo.
        """
        for other in self._volumes.values():
            for tid in other.intents.decided_transactions():
                try:
                    live = any(
                        candidate.intents.holds(tid)
                        for candidate in self._volumes.values()
                    )
                except DiskError:
                    # A peer volume is offline: keep the decision; its
                    # recovery may still need it.
                    continue
                if not live:
                    other.intents.remove_decision(tid)

    # ------------------------------------------------------ internal

    def _binding(self, volume_id: int) -> _VolumeBinding:
        binding = self._volumes.get(volume_id)
        if binding is None:
            raise TransactionError(f"volume {volume_id} is not registered")
        return binding

    def _prepare_item(
        self, transaction: Transaction, entry: TentativeItem
    ) -> IntentionRecord:
        """Durable tentative data item for one entry, and the record naming it."""
        name = entry.item.name
        binding = self._binding(name.volume_id)
        disk = binding.file_server.disk
        level = entry.item.level
        size = transaction.tentative_sizes.get(name)
        lo = entry.item.lo
        length = len(entry.data)
        technique = Technique.WAL
        block_index = -1
        extent = None
        if level is LockingLevel.RECORD:
            if length > INLINE_LIMIT:
                extent = disk.allocate(fragments_for_bytes(length), scratch=True)
        elif level is LockingLevel.PAGE:
            block_index = lo // BLOCK_SIZE
            length = min(BLOCK_SIZE, (size if size is not None else lo + BLOCK_SIZE) - lo)
            extent = disk.allocate_block(1, scratch=True)
            technique = self._choose_technique(binding, name, block_index)
        else:  # FILE level: the whole file, applied in place.
            lo = 0
            extent = disk.allocate_block(
                max(1, -(-length // BLOCK_SIZE)), scratch=True
            )
        if extent is not None:
            # Recorded before the put so an abort after a failed write
            # still returns the extent.
            entry.extent = extent
            entry.volume_id = name.volume_id
            image = entry.data[:length]
            disk.put(extent, image + bytes(extent.byte_size - len(image)))
        self.metrics.add("transactions.intentions_written")
        return IntentionRecord(
            sequence=entry.sequence,
            name=name,
            level=level,
            lo=lo,
            length=length,
            technique=technique,
            block_index=block_index,
            extent=extent,
            # The record is the tentative data item: the list's careful
            # write is what makes a small after-image durable.
            data=entry.data if extent is None else None,
        )

    def _choose_technique(
        self, binding: _VolumeBinding, name: SystemName, block_index: int
    ) -> Technique:
        """The paper's rule: WAL when contiguous, shadow when not."""
        if self.technique == "wal":
            return Technique.WAL
        if self.technique == "shadow":
            desc = binding.file_server.block_descriptor(name, block_index)
            return Technique.SHADOW if desc is not None else Technique.WAL
        desc = binding.file_server.block_descriptor(name, block_index)
        if desc is None:
            return Technique.WAL  # extension of the file: nothing to shadow
        if block_index == 0 and desc.address == name.fit_address + 1:
            # The first data block sits right after the FIT — the very
            # adjacency dynamic FIT creation bought; never shadow it away.
            return Technique.WAL
        if desc.count > 1:
            return Technique.WAL
        if block_index > 0:
            prev = binding.file_server.block_descriptor(name, block_index - 1)
            if (
                prev is not None
                and prev.address + FRAGMENTS_PER_BLOCK == desc.address
            ):
                return Technique.WAL
        if binding.file_server.load_fit(name).mapped_blocks() <= 1:
            # A lone block has nothing to be contiguous with; in-place
            # update keeps it where the allocator put it.
            return Technique.WAL
        return Technique.SHADOW

    def _apply(self, record: IntentionRecord) -> None:
        """Make one intention permanent (idempotent for crash redo)."""
        binding = self._binding(record.name.volume_id)
        server = binding.file_server
        if record.technique is Technique.WAL:
            data = record.data
            if data is None:
                data = server.disk.get(record.extent)[: record.length]
            # The after-image is durable and listed, so the in-place
            # copy may sit dirty in the block pool until a checkpoint
            # writes it back: every commit to the block costs one put.
            server.write(record.name, record.lo, data, delayed=True)
            self.metrics.add("transactions.wal_applies")
        else:
            # The scratch extent becomes a block of the file: from here
            # on it is an allocation like any other, checkpointed before
            # the FIT that references it is stored.
            server.disk.adopt(record.extent)
            old = server.replace_block_descriptor(
                record.name, record.block_index, record.extent.start
            )
            if record.length > 0:
                server.set_file_size_at_least(
                    record.name, record.lo + record.length
                )
            if old is not None and old != record.extent.start:
                self._safe_free(
                    record.name.volume_id, Extent.for_block_run(old, 1)
                )
            self.metrics.add("transactions.shadow_applies")

    def _apply_sizes(self, transaction: Transaction) -> None:
        for name, size in transaction.tentative_sizes.items():
            self._binding(name.volume_id).file_server.set_file_size_at_least(
                name, size
            )

    @staticmethod
    def _volumes_of(
        records: Sequence[IntentionRecord], deletes: Sequence[SystemName]
    ) -> List[int]:
        """The volumes a commit involves, ascending."""
        return sorted(
            {record.name.volume_id for record in records}
            | {name.volume_id for name in deletes}
        )

    def _release_locks(self, transaction: Transaction) -> None:
        for binding in self._volumes.values():
            binding.locks.release_all(transaction)

    def _safe_free(self, volume_id: int, extent: Extent) -> None:
        """Free an extent, tolerating already-free state (crash redo)."""
        try:
            self._binding(volume_id).file_server.disk.free(extent)
        except BadAddressError:
            pass
