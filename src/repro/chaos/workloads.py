"""Workloads the crash-schedule explorer sweeps.

Each workload builds a fresh, fully deterministic system (its own
clock, metrics, disks — all seeded, nothing wall-clock dependent), runs
a fixed operation script against it, knows how to run the recovery
path after a crash, and can check its own *content promises* on top of
the structural invariants in :mod:`repro.chaos.invariants`.

Content promises are tracked as the script runs:

* the **basic** file service promises only that data a completed
  ``flush`` made durable survives exactly; files modified since their
  last flush are *in flux* and get structural checks only (the basic
  service makes no atomicity promise — paper section 3);
* the **transaction** service promises all-or-nothing: at every crash
  instant the workload maintains the *admissible set* of complete
  post-recovery contents ({OLD}, {OLD, NEW} during tend, {NEW} after),
  and a recovered state outside the set is a violation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Type

from repro.chaos.invariants import check_volume
from repro.chaos.trace import CrashPointMonitor
from repro.common.clock import SimClock
from repro.common.errors import DiskCrashedError, DiskError, MediaError
from repro.common.ids import SystemName
from repro.common.metrics import Metrics
from repro.common.units import BLOCK_SIZE, FRAGMENT_SIZE
from repro.disk_service.addresses import Extent
from repro.disk_service.pipeline import DiskPipeline
from repro.disk_service.scheduler import CoalescingScheduler, ScanScheduler
from repro.disk_service.scrub import Scrubber
from repro.disk_service.server import DiskServer, Source, Stability
from repro.file_service.attributes import LockingLevel
from repro.file_service.server import FileServer
from repro.naming.attributed import AttributedName
from repro.naming.service import NamingService
from repro.simdisk.disk import SimDisk
from repro.simdisk.geometry import DiskGeometry
from repro.simdisk.raid import ArrayState, RaidRebuilder, StripedVolume
from repro.simdisk.stable import StableStore
from repro.simkernel.future import Completion, wait_all
from repro.simkernel.loop import EventLoop
from repro.transactions.agent import TransactionAgentHost
from repro.transactions.coordinator import TransactionCoordinator
from repro.transactions.intentions import INLINE_LIMIT


class AuditedDiskServer(DiskServer):
    """A disk server that remembers every scratch extent it handed out.

    The tentative-extent leak check needs the whole history: an extent
    the run freed in memory before the crash is exactly the kind a
    stale bitmap checkpoint would leak.  An adopted extent leaves the
    history, along with any earlier grant of the same fragments — it is
    a block of a file from then on, and leaks (or not) as file space
    does.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.scratch_history: List[Extent] = []

    def allocate(self, n_fragments, *, scratch=False):
        got = super().allocate(n_fragments, scratch=scratch)
        if scratch:
            self.scratch_history.append(got)
        return got

    def allocate_block(self, n_blocks=1, *, scratch=False):
        got = super().allocate_block(n_blocks, scratch=scratch)
        if scratch:
            self.scratch_history.append(got)
        return got

    def adopt(self, extent):
        super().adopt(extent)
        self.scratch_history = [
            held
            for held in self.scratch_history
            if held.end <= extent.start or extent.end <= held.start
        ]


class ChaosVolume:
    """One volume's full stack: data disk, stable mirrors, servers."""

    def __init__(
        self,
        volume_id: int,
        clock: SimClock,
        metrics: Metrics,
        geometry: DiskGeometry,
    ) -> None:
        self.volume_id = volume_id
        self.disk = SimDisk(f"chaos{volume_id}", geometry, clock, metrics)
        self.stable_a = SimDisk(
            f"chaos{volume_id}.stable_a", geometry, clock, metrics
        )
        self.stable_b = SimDisk(
            f"chaos{volume_id}.stable_b", geometry, clock, metrics
        )
        self.stable = StableStore(self.stable_a, self.stable_b)
        self.disk_server = AuditedDiskServer(
            self.disk, self.stable, clock, metrics
        )
        self.file_server = FileServer(
            volume_id, self.disk_server, clock, metrics
        )

    @property
    def disks(self) -> Tuple[SimDisk, SimDisk, SimDisk]:
        return (self.disk, self.stable_a, self.stable_b)

    def repair(self) -> None:
        for disk in self.disks:
            disk.repair()


class ChaosWorkload:
    """Base: a deterministic script plus its recovery and checks.

    Construction builds the whole system and attaches one
    :class:`CrashPointMonitor` to every disk; :meth:`run` executes the
    script (raising ``DiskCrashedError`` when the armed monitor fires);
    :meth:`recover` runs the machine-restart path; :meth:`check`
    returns invariant violations (empty = healthy).
    """

    name = "?"

    def __init__(self) -> None:
        self.clock = SimClock()
        self.metrics = Metrics()
        self.monitor = CrashPointMonitor()
        self.volumes: List[ChaosVolume] = []
        #: Set True before :meth:`recover` to exercise the deliberately
        #: broken recovery path (coordinator.unsafe_skip_redo, or
        #: RecordLog.unsafe_ignore_epochs) that the sweep must detect.
        #: Base workloads ignore it.
        self.break_recovery = False
        self.build()

    def build(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def recover(self) -> None:
        """Machine restart: repair drives, rebuild state from disk."""
        for volume in self.volumes:
            volume.repair()
            volume.stable.rebuild_directory()
            volume.stable.recover()
            volume.file_server.recover()

    def check(self) -> List[str]:
        violations: List[str] = []
        for volume in self.volumes:
            violations.extend(
                check_volume(
                    volume.file_server, volume.disk_server.scratch_history
                )
            )
        violations.extend(self.check_content())
        return violations

    def check_content(self) -> List[str]:
        return []

    # ------------------------------------------------------- helpers

    def add_volume(self, volume_id: int) -> ChaosVolume:
        volume = ChaosVolume(
            volume_id, self.clock, self.metrics, DiskGeometry.small()
        )
        self.monitor.attach(*volume.disks)
        self.volumes.append(volume)
        return volume


class AppendOverwriteWorkload(ChaosWorkload):
    """Basic file service: creates, appends, overwrites, deletes.

    Content promise: after each completed ``flush``, the flushed
    contents are durable and must survive any later crash exactly —
    until the file is written again, which puts it back in flux.
    """

    name = "append-overwrite"

    def build(self) -> None:
        self.volume = self.add_volume(0)
        self.names: Dict[str, SystemName] = {}
        self.expected: Dict[str, bytes] = {}
        self.durable: Dict[str, Optional[bytes]] = {}  # None = deleted
        self.in_flux: set[str] = set()

    def run(self) -> None:
        server = self.volume.file_server
        self._create("a")
        self._write("a", 0, b"A" * (2 * BLOCK_SIZE + BLOCK_SIZE // 2))
        self._flush()
        self._create("b")
        self._write("b", 0, b"B" * (BLOCK_SIZE + 100))
        self._write("a", len(self.expected["a"]), b"a" * BLOCK_SIZE)
        self._flush()
        self._write("a", BLOCK_SIZE // 2, b"x" * 700)
        self._write("b", 0, b"Y" * 256)
        self._flush()
        self.in_flux.add("b")
        server.delete(self.names["b"])
        self.durable["b"] = None
        self.in_flux.discard("b")
        self._flush()

    def check_content(self) -> List[str]:
        server = self.volume.file_server
        violations: List[str] = []
        for label, durable in self.durable.items():
            if label in self.in_flux:
                continue  # no promise: modified since its last flush
            name = self.names[label]
            if durable is None:
                if server.exists(name):
                    violations.append(
                        f"file {label!r}: deleted before the crash but "
                        f"resurrected by recovery"
                    )
                continue
            if not server.exists(name):
                violations.append(
                    f"file {label!r}: flushed before the crash but lost"
                )
                continue
            content = server.read(name, 0, len(durable) + 1)
            if content != durable:
                violations.append(
                    f"file {label!r}: durable content changed by the crash "
                    f"(expected {len(durable)} bytes, got {len(content)}, "
                    f"first divergence at byte "
                    f"{_first_divergence(durable, content)})"
                )
        return violations

    # ------------------------------------------------------- internal

    def _create(self, label: str) -> None:
        self.in_flux.add(label)
        self.names[label] = self.volume.file_server.create()
        self.expected[label] = b""

    def _write(self, label: str, offset: int, data: bytes) -> None:
        self.in_flux.add(label)
        old = self.expected[label]
        if len(old) < offset:
            old += bytes(offset - len(old))
        self.expected[label] = old[:offset] + data + old[offset + len(data) :]
        self.volume.file_server.write(self.names[label], offset, data)

    def _flush(self) -> None:
        self.volume.file_server.flush()
        for label in list(self.in_flux):
            self.durable[label] = self.expected[label]
        self.in_flux.clear()


class CreateCloseWorkload(ChaosWorkload):
    """The close path: a completed ``close`` is the durability point.

    Create; one multi-block write whose last block is fresh and
    partial; close; a partial append into a fresh block; close; delete.
    A close writes the file's dirty blocks back one put per contiguous
    run, then stores the FIT if its structure moved since the last
    store, so the sweep crashes inside a merged reference.

    Content promise, from the first completed close on: the recovered
    file is one of the admissible outcomes.  The append lands in the
    block the first write reserved, so no FIT store precedes its data
    and a crash before the second close returns recovers the first
    close's bytes or the second's; during the delete, the second's or
    no file.
    """

    name = "create-close"

    def build(self) -> None:
        self.volume = self.add_volume(0)
        #: Admissible recovered contents (None: no file), or None while
        #: nothing is promised yet.
        self.admissible: Optional[List[Optional[bytes]]] = None

    def run(self) -> None:
        server = self.volume.file_server
        self.file = server.create()
        first = b"C" * (2 * BLOCK_SIZE + 300)
        server.write(self.file, 0, first)
        server.close(self.file)
        second = first + b"c" * BLOCK_SIZE
        self.admissible = [first, second]
        server.write(self.file, len(first), second[len(first) :])
        server.close(self.file)
        self.admissible = [second, None]
        server.delete(self.file)
        self.admissible = [None]

    def check_content(self) -> List[str]:
        if self.admissible is None:
            return []
        server = self.volume.file_server
        content = (
            server.read(self.file, 0, 4 * BLOCK_SIZE)
            if server.exists(self.file)
            else None
        )
        if content in self.admissible:
            return []

        def show(option: Optional[bytes]) -> str:
            return "no file" if option is None else _describe(option)

        return [
            f"closed file recovered as {show(content)}, admissible: "
            + ", ".join(show(option) for option in self.admissible)
        ]


class QueuedWriteWorkload(ChaosWorkload):
    """Disk-server level: waves of adjacent puts through the pipeline.

    The script drives a :class:`DiskPipeline` with SCAN + adjacent-
    extent coalescing.  First a ``Stability.BOTH`` put (served on
    submission: mirrored puts never merge) and its ``release_stable``.
    Then each wave submits adjacent ``Stability.ORIGINAL_ONLY`` puts
    while a read keeps the drive busy, so the whole wave queues and is
    served as one merged disk reference; the second wave overwrites
    half of the first.  Last, ``drain()`` and ``DiskServer.flush()``.
    Sweeping it proves recovery over coalesced references: a crash
    mid-batch tears the one merged reference.

    Content promise: every put whose completion resolved before the
    crash reads back exactly after recovery; the fragments of the batch
    in service at the crash are in flux.  A ``release_stable`` that
    returned is durable: no directory rebuild resurrects the copy.
    """

    name = "queued-writes"

    #: Each wave: (first fragment in the region, the fill bytes of its
    #: adjacent puts of PIECE_FRAGMENTS each).
    WAVES = ((0, b"ABCD"), (4, b"EFG"))
    PIECE_FRAGMENTS = 2

    def build(self) -> None:
        self.volume = self.add_volume(0)
        self.loop = EventLoop(self.clock)
        DiskPipeline(
            self.volume.disk_server,
            self.loop,
            CoalescingScheduler(ScanScheduler()),
        )
        #: fragment -> fill byte of the last resolved put covering it.
        self.acked: Dict[int, bytes] = {}
        self.in_flux: set[int] = set()
        self.released: Optional[Extent] = None

    def run(self) -> None:
        server = self.volume.disk_server
        piece = self.PIECE_FRAGMENTS
        mirrored = server.allocate(piece)
        self._settle({mirrored: b"M"}, stability=Stability.BOTH)
        server.release_stable(mirrored)
        self.released = mirrored
        region = server.allocate(10)
        for first, fills in self.WAVES:
            start = region.start + first
            busy = server.submit_get(Extent(start, 1), use_cache=False)
            pieces = range(start, start + len(fills) * piece, piece)
            self._settle(
                {
                    Extent(at, piece): bytes([fill])
                    for at, fill in zip(pieces, fills)
                },
                busy,
            )
        server.pipeline.drain()
        server.flush()

    def _settle(
        self,
        fills: Dict[Extent, bytes],
        *waiting: Completion,
        stability: Stability = Stability.ORIGINAL_ONLY,
    ) -> None:
        """Put each extent filled with its byte and wait for every
        completion; the extents are in flux until then."""
        server = self.volume.disk_server
        completions = list(waiting) + [
            server.submit_put(
                extent, fill * extent.byte_size, stability=stability
            )
            for extent, fill in fills.items()
        ]
        self.in_flux = {f for extent in fills for f in extent.fragments()}
        wait_all(self.loop, completions)
        self.in_flux = set()
        for extent, fill in fills.items():
            self.acked.update(dict.fromkeys(extent.fragments(), fill))

    def check_content(self) -> List[str]:
        server = self.volume.disk_server
        violations: List[str] = []
        for fragment, fill in sorted(self.acked.items()):
            if fragment in self.in_flux:
                continue
            content = server.get(Extent(fragment, 1), use_cache=False)
            if content != fill * FRAGMENT_SIZE:
                violations.append(
                    f"fragment {fragment}: acked {fill!r} put diverged "
                    f"(read {_describe(content)})"
                )
        if self.released is not None:
            try:
                server.get(self.released, source=Source.STABLE)
            except KeyError:
                pass
            else:
                violations.append(
                    f"{self.released}: released stable copy resurrected "
                    "by recovery"
                )
        return violations


class ScrubRepairWorkload(ChaosWorkload):
    """Disk-server level: mirrored puts, injected rot, scrub repair.

    The script establishes mirrored extents (``Stability.BOTH`` puts),
    flushes so the protection record (checksums + mirrored set) is
    checkpointed, then injects deterministic media failures — at-rest
    byte rot on one extent, a latent unreadable sector on another
    (platter physics: neither injection is a numbered write) — and
    runs one full scrub cycle.  Every scrub repair goes through the
    ordinary put machinery, so each is a crash point: sweeping this
    workload proves the scrubber itself is crash-safe.

    Content promise: everything flushed before the crash reads back
    byte-exact after recovery plus one forced scrub cycle — corruption
    is either repaired or surfaces as an error, never as silently
    wrong bytes — and the stable copies still agree.
    """

    name = "scrub-repair"

    FILLS = b"ABC"
    EXTENT_FRAGMENTS = 2

    def build(self) -> None:
        self.volume = self.add_volume(0)
        self.extents: Dict[str, Extent] = {}
        self.expected: Dict[str, bytes] = {}
        self.durable: set[str] = set()

    def run(self) -> None:
        server = self.volume.disk_server
        for fill in self.FILLS:
            label = chr(fill)
            extent = server.allocate(self.EXTENT_FRAGMENTS)
            payload = bytes([fill]) * extent.byte_size
            self.extents[label] = extent
            self.expected[label] = payload
            server.put(extent, payload, stability=Stability.BOTH)
        server.flush()  # checksums and mirrored set (the put wrote the bitmap)
        self.durable = set(self.expected)
        disk = self.volume.disk
        rotten = self.extents["A"]
        disk.corrupt_sectors(rotten.first_sector, 1)
        failing = self.extents["B"]
        disk.faults.schedule_media_error(failing.first_sector + 1)
        Scrubber(server).run_cycle()

    def recover(self) -> None:
        super().recover()
        # Post-restart scrub: complete any repair the crash interrupted
        # (and find anything the pre-crash cycle never reached) before
        # the checks run.  force is implicit — run_cycle always forces.
        Scrubber(self.volume.disk_server).run_cycle()

    def check_content(self) -> List[str]:
        server = self.volume.disk_server
        violations: List[str] = []
        for label in sorted(self.durable):
            extent, payload = self.extents[label], self.expected[label]
            try:
                content = server.get(extent, use_cache=False)
            except MediaError as exc:
                violations.append(
                    f"extent {label!r}: unreadable after scrub ({exc})"
                )
                continue
            if content != payload:
                violations.append(
                    f"extent {label!r}: content diverged after scrub "
                    f"(first divergence at byte "
                    f"{_first_divergence(payload, content)})"
                )
            if server.get(extent, source=Source.STABLE) != payload:
                violations.append(f"extent {label!r}: stable copy diverged")
        return violations


class RecordLogWorkload(ChaosWorkload):
    """Disk-server level: free space through its record log, past a rebase.

    After the format (the first base), each round allocates a few
    ordinary extents, frees the oldest, takes a scratch extent and
    adopts or returns it, and settles free space: one tail append.  The
    tail fills up and one settle rebases (the whole bitmap as a new
    base); the last rounds append to the new epoch's tail.  So the
    sweep crashes inside the format, inside appends (torn tails),
    inside the rebase (a torn base), and after it while the previous
    epoch's tail is still on disk.

    Content promise: the recovered allocated fragments are exactly the
    durable ones before the interrupted settle or exactly those after
    it, with all scratch space free.  With ``--break-recovery`` the log
    applies its tail whatever the epoch, and the stale tail does not
    fit the new base.
    """

    name = "record-log"

    #: Fragments of each ordinary allocation in a round.
    SIZES = (1, 3, 6, 2, 9)
    #: Rounds after the format: the eighteenth finds the tail full.
    ROUNDS = 20

    def build(self) -> None:
        self.volume = self.add_volume(0)
        self.live: List[Extent] = []
        #: Allocated fragments on stable storage, and the admissible
        #: recovered sets at this instant.
        self.durable: Set[int] = set()
        self.admissible: List[Set[int]] = [self.durable]
        self.recovery_error: Optional[DiskError] = None

    def run(self) -> None:
        server = self.volume.disk_server
        self._settle()
        for round_ in range(self.ROUNDS):
            self.live.extend(server.allocate(size) for size in self.SIZES)
            server.free(self.live.pop(0))
            scratch = server.allocate(2, scratch=True)
            if round_ % 3:
                server.free(scratch)
            else:
                server.adopt(scratch)
                self.live.append(scratch)
            self._settle()

    def _settle(self) -> None:
        after = {f for extent in self.live for f in extent.fragments()}
        self.admissible = [self.durable, after]
        self.volume.disk_server.settle_free_space()
        self.durable = after
        self.admissible = [after]

    def recover(self) -> None:
        self.volume.disk_server.free_space_log.unsafe_ignore_epochs = (
            self.break_recovery
        )
        try:
            super().recover()
        except DiskCrashedError:
            raise
        except DiskError as exc:
            self.recovery_error = exc

    def check(self) -> List[str]:
        if self.recovery_error is not None:
            return [f"recovery failed: {self.recovery_error}"]
        # No file owns this script's extents, so the scratch audit
        # (handed out as scratch, allocated, in no file) cannot tell a
        # leak from a durable allocation; the content check compares the
        # whole allocated set instead.
        return check_volume(self.volume.file_server, []) + self.check_content()

    def check_content(self) -> List[str]:
        bitmap = self.volume.disk_server.bitmap
        recovered = {
            f for run in bitmap.allocated_runs() for f in run.fragments()
        }
        if recovered in self.admissible:
            return []
        return [
            f"recovered {len(recovered)} allocated fragments, admissible: "
            + " or ".join(str(len(option)) for option in self.admissible)
        ]


class _TransactionalWorkload(ChaosWorkload):
    """Shared machinery for the transaction-service workloads."""

    #: (label, volume_id) pairs of the files the script commits to.
    FILES: List[Tuple[str, int]] = []
    BLOCKS = 2
    TECHNIQUE = "auto"
    LEVEL = LockingLevel.PAGE

    def build(self) -> None:
        for _, volume_id in self.FILES:
            if not any(v.volume_id == volume_id for v in self.volumes):
                self.add_volume(volume_id)
        self.naming = NamingService(self.metrics)
        self.coordinator = TransactionCoordinator(
            self.clock, self.metrics, technique=self.TECHNIQUE
        )
        for volume in self.volumes:
            self.coordinator.register_volume(volume.file_server)
        self.host = TransactionAgentHost(
            "chaos", self.naming, self.coordinator, self.clock, self.metrics
        )
        self.names: Dict[str, SystemName] = {}
        #: Admissible complete contents per file at the current instant,
        #: or None while the script is between promises (setup in flux).
        #: Entries are tuples of per-FILES-order contents, so multi-
        #:  volume atomicity is checked jointly, not per volume.
        self.admissible: Optional[List[Tuple[bytes, ...]]] = None

    def _old(self, label: str) -> bytes:
        return label.upper().encode("ascii")[:1] * (self.BLOCKS * BLOCK_SIZE)

    def _new(self, label: str) -> bytes:
        return label.lower().encode("ascii")[:1] * (self.BLOCKS * BLOCK_SIZE)

    def _overwrite(self, tid: int, descriptor: int, label: str) -> None:
        """The measured transaction's writes to one file: OLD -> NEW."""
        self.host.tpwrite(tid, descriptor, self._new(label), 0)

    def run(self) -> None:
        # Seed transaction: create every file, write OLD, commit.
        tid = self.host.tbegin()
        descriptors = {}
        for label, volume_id in self.FILES:
            descriptor = self.host.tcreate(
                tid,
                AttributedName.file(f"/{label}"),
                volume_id=volume_id,
                locking_level=self.LEVEL,
            )
            self.names[label] = self.host.system_name_of(tid, descriptor)
            self.host.twrite(tid, descriptor, self._old(label))
            descriptors[label] = descriptor
        old = tuple(self._old(label) for label, _ in self.FILES)
        empty = tuple(b"" for _ in self.FILES)
        # During the seed commit the files go from empty to OLD; any
        # mix after recovery breaks all-or-nothing.
        self.admissible = [empty, old]
        self.host.tend(tid)
        self.admissible = [old]

        # The measured transaction: overwrite everything with NEW.
        tid = self.host.tbegin()
        for label, _ in self.FILES:
            descriptor = self.host.topen(
                tid, AttributedName.file(f"/{label}")
            )
            self._overwrite(tid, descriptor, label)
        new = tuple(self._new(label) for label, _ in self.FILES)
        self.admissible = [old, new]
        self.host.tend(tid)
        self.admissible = [new]
        for volume in self.volumes:
            volume.file_server.flush()

    def recover(self) -> None:
        self.coordinator.unsafe_skip_redo = self.break_recovery
        for volume in self.volumes:
            volume.repair()
            volume.stable.rebuild_directory()
        for volume in self.volumes:
            self.coordinator.recover_volume(volume.volume_id)

    def check_content(self) -> List[str]:
        if self.admissible is None:
            return []
        observed = []
        for label, volume_id in self.FILES:
            server = self.coordinator.file_server(volume_id)
            name = self.names[label]
            content = (
                server.read(name, 0, self.BLOCKS * BLOCK_SIZE + 1)
                if server.exists(name)
                else b""
            )
            observed.append(content)
        state = tuple(observed)
        if state in self.admissible:
            return []
        return [
            "all-or-nothing broken: recovered contents "
            + ", ".join(
                f"{label}={_describe(content)}"
                for (label, _), content in zip(self.FILES, observed)
            )
            + " match no admissible outcome "
            + str([tuple(_describe(c) for c in option) for option in self.admissible])
        ]


class TransactionCommitWorkload(_TransactionalWorkload):
    """Single-volume commit: one intentions-list write + WAL redo."""

    name = "txn-commit"
    FILES = [("f", 0)]


class ShadowCommitWorkload(TransactionCommitWorkload):
    """The same script committed by the shadow-page technique.

    The overwrite swaps both block descriptors to the tentative
    extents, so every crash point between *adopt*, the bitmap
    checkpoint, the FIT store and the old blocks' frees is visited.
    """

    name = "txn-shadow"
    TECHNIQUE = "shadow"


class RecordCommitWorkload(TransactionCommitWorkload):
    """A RECORD-level file: four record items over two blocks.

    Two of the records land in block 0 and two in block 1; the applies
    stay dirty in the block pool and the cleanup flush writes each
    block once, so the sweep crashes inside the coalesced apply.  Three
    after-images ride in the intentions list and the last is too large
    to, so the list the sweep tears and redoes holds both carriers.
    """

    name = "txn-records"
    FILES = [("r", 0)]
    LEVEL = LockingLevel.RECORD
    #: (offset, length) of the measured transaction's record writes.
    PATCHES = (
        (100, 300),
        (4000, 64),
        (BLOCK_SIZE + 17, 500),
        (BLOCK_SIZE + 1000, INLINE_LIMIT + 500),
    )

    def _new(self, label: str) -> bytes:
        content = bytearray(self._old(label))
        for offset, length in self.PATCHES:
            content[offset : offset + length] = (
                label.lower().encode("ascii")[:1] * length
            )
        return bytes(content)

    def _overwrite(self, tid: int, descriptor: int, label: str) -> None:
        new = self._new(label)
        for offset, length in self.PATCHES:
            self.host.tpwrite(
                tid, descriptor, new[offset : offset + length], offset
            )


class TwoVolumeCommitWorkload(_TransactionalWorkload):
    """One transaction spanning two volumes: the decision-record 2PC.

    A crash between the per-volume list writes, or between them and
    the decision, must still yield a joint all-old or all-new outcome —
    this is what the ``txndecision:`` record on the coordinator volume
    guarantees.
    """

    name = "two-volume"
    FILES = [("p", 1), ("q", 2)]
    BLOCKS = 1


class _RaidChaosWorkload(ChaosWorkload):
    """Shared machinery for the RAID-tier workloads.

    These run *below* the disk service: the script drives a
    :class:`~repro.simdisk.raid.StripedVolume` directly, keeping a
    shadow image of every **acked** ``write_sectors`` call.  There is
    no file stack, so ``self.volumes`` stays empty and the content
    promise is the array's own:

    * every byte of an acked write reads back exactly after recovery —
      including bytes served for a stale member through parity
      reconstruction (zero acked-write loss);
    * the region covered by the single in-flight write is *in flux*
      (old, new, or torn — the array promises nothing below an ack);
    * once recovery completes the rebuild, the parity invariant — the
      XOR of a row's data chunks equals its parity chunk — holds on
      **every** stripe row, read raw from the member platters.
    """

    LEVEL = "raid5"
    MEMBERS = 4
    CHUNK_SECTORS = 4

    def build(self) -> None:
        geometry = DiskGeometry(cylinders=4, heads=2, sectors_per_track=8)
        self.members = [
            SimDisk(f"raidchaos.m{index}", geometry, self.clock, self.metrics)
            for index in range(self.MEMBERS)
        ]
        self.array = StripedVolume(
            "raidchaos",
            self.members,
            level=self.LEVEL,
            chunk_sectors=self.CHUNK_SECTORS,
            metrics=self.metrics,
        )
        # Attach after construction: the freshly initialised
        # superblocks are the pre-script state, not crash points.
        self.monitor.attach(*self.members)
        self.sector_size = geometry.sector_size
        self.logical_sectors = self.array.geometry.total_sectors
        self.shadow = bytearray(self.logical_sectors * self.sector_size)
        #: The single in-flight (un-acked) write, as (start, n_sectors).
        self.flux: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------- helpers

    def _write(self, start: int, fill: str, n_sectors: int) -> None:
        """One logical write; the shadow is updated only on the ack."""
        payload = fill.encode() * (n_sectors * self.sector_size)
        self.flux = (start, n_sectors)
        self.array.write_sectors(start, payload)
        self.flux = None
        base = start * self.sector_size
        self.shadow[base : base + len(payload)] = payload

    def _assert_readback(self) -> None:
        """In-script sanity read (reads add no crash points)."""
        content = self.array.read_sectors(0, self.logical_sectors)
        if content != bytes(self.shadow):
            raise AssertionError(
                "raid workload script read back wrong bytes at "
                f"byte {_first_divergence(bytes(self.shadow), content)}"
            )

    def recover(self) -> None:
        """Machine restart: repair drives, reassemble, rebuild to OPTIMAL."""
        for member in self.members:
            member.repair()
        self.array.recover(resync=True)
        for index in self.array.failed_members:
            self.array.replace_member(index, blank=True)
            RaidRebuilder(self.array, chunks_per_step=8).run_cycle()
            break  # at most one stale member is recoverable

    def check_content(self) -> List[str]:
        violations: List[str] = []
        if self.array.state is not ArrayState.OPTIMAL:
            violations.append(
                f"array recovered to {self.array.state.name}, not OPTIMAL "
                f"(failed members {self.array.failed_members})"
            )
            return violations
        size = self.sector_size
        content = self.array.read_sectors(0, self.logical_sectors)
        flux_lo, flux_hi = (0, 0) if self.flux is None else (
            self.flux[0], self.flux[0] + self.flux[1]
        )
        for sector in range(self.logical_sectors):
            if flux_lo <= sector < flux_hi:
                continue  # covered by the un-acked in-flight write
            base = sector * size
            got = content[base : base + size]
            want = bytes(self.shadow[base : base + size])
            if got != want:
                violations.append(
                    f"logical sector {sector}: acked content diverged "
                    f"(expected {_describe(want)}, read {_describe(got)})"
                )
        violations.extend(self._check_parity())
        return violations

    def _check_parity(self) -> List[str]:
        """The parity invariant, read raw from the member platters."""
        if self.array.level != 5:
            return []
        violations: List[str] = []
        chunk = self.array.chunk_sectors
        meta = self.array.meta_chunks
        for row in range(self.array.member_chunks - meta):
            physical = (meta + row) * chunk
            acc: Optional[bytes] = None
            for member in self.members:
                column = member.read_sectors(physical, chunk)
                acc = (
                    column if acc is None
                    else bytes(a ^ b for a, b in zip(acc, column))
                )
            assert acc is not None
            if acc != bytes(len(acc)):
                violations.append(
                    f"stripe row {row}: parity invariant broken "
                    "(XOR of data chunks != parity chunk)"
                )
        return violations


class RaidDegradedWriteWorkload(_RaidChaosWorkload):
    """RAID-5 service through a member loss: every degraded write path.

    The script writes in OPTIMAL mode (full rows and read-modify-write
    partial rows), kills member 1, then exercises each degraded write
    shape: a full row, exact-slice partial rows on stripes where the
    dead member held parity, and journalled partial rows where it held
    data — with the stale column both covered and not covered by the
    write.  Sweeping every crash point (member writes, parity updates,
    journal arming, superblock rounds) proves the degraded write hole
    stays shut: after recovery plus rebuild, acked bytes are exact and
    the parity invariant holds on every row.
    """

    name = "raid-degraded"

    def run(self) -> None:
        # Optimal phase: full rows 0-1, then small-write partial rows.
        self._write(0, "A", 24)
        self._write(30, "B", 5)
        self._write(50, "C", 10)
        self._write(100, "D", 20)
        self.array.fail_member(1)
        # Degraded phase.  Stripe rows span 12 logical sectors; member
        # 1 holds parity on rows 2, 6, 10 and data elsewhere.
        self._write(12, "E", 12)   # full row, one column short
        self._write(26, "F", 4)    # row 2: exact slices, no parity
        self._write(40, "G", 6)    # row 3: stale data column, uncovered
        self._write(36, "H", 3)    # row 3: stale data column, covered
        self._write(60, "I", 12)   # full row again
        self._write(73, "J", 2)    # row 6: exact slices, no parity
        self._assert_readback()


class RaidRebuildWorkload(_RaidChaosWorkload):
    """Member replacement and background rebuild under foreground load.

    The script loses member 2, keeps writing degraded, swaps in a
    blank platter and interleaves rebuild steps with foreground writes
    — covering write-through below the watermark, journalled updates
    above it, and the rebuild's own reconstruction writes.  A crash at
    any point (including mid-rebuild) must recover by restarting the
    rebuild from scratch off the journalled, parity-consistent
    survivors.
    """

    name = "raid-rebuild"

    def run(self) -> None:
        self._write(0, "A", 36)
        self._write(40, "B", 6)
        self._write(84, "C", 24)
        self.array.fail_member(2)
        self._write(13, "D", 10)
        self.array.replace_member(2, blank=True)
        rebuilder = RaidRebuilder(self.array, chunks_per_step=3)
        fills = iter("EFGHIJKLMN")
        while not rebuilder.done:
            rebuilder.step()
            fill = next(fills)
            # Alternate below/above the advancing watermark.
            self._write(2, fill, 5)
            self._write(120, fill.lower(), 7)
        self._write(70, "Z", 16)
        self._assert_readback()


def _first_divergence(a: bytes, b: bytes) -> int:
    for index, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return index
    return min(len(a), len(b))


def _describe(content: bytes) -> str:
    """Compact human description of a file's content for messages."""
    if not content:
        return "empty"
    runs: List[str] = []
    last = content[0]
    count = 0
    for byte in content:
        if byte == last:
            count += 1
        else:
            runs.append(f"{chr(last)!r}*{count}")
            last, count = byte, 1
    runs.append(f"{chr(last)!r}*{count}")
    if len(runs) > 6:
        runs = runs[:6] + ["..."]
    return "+".join(runs)


WORKLOADS: Dict[str, Type[ChaosWorkload]] = {
    workload.name: workload
    for workload in (
        AppendOverwriteWorkload,
        CreateCloseWorkload,
        QueuedWriteWorkload,
        RaidDegradedWriteWorkload,
        RaidRebuildWorkload,
        RecordLogWorkload,
        ScrubRepairWorkload,
        TransactionCommitWorkload,
        RecordCommitWorkload,
        ShadowCommitWorkload,
        TwoVolumeCommitWorkload,
    )
}
