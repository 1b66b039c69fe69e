"""What a commit writes, what it leaves alone, and what survives a crash.

The commit path puts exactly one intentions-list record per volume on
stable storage and forces nothing else: the blocks it applied stay in
the block pool until the next checkpoint (a flush), which writes each
once and retires every pending list with one watermark record.
Tentative (scratch) extents stay out of every bitmap checkpoint.  A
small record-level after-image rides in the list: the write-sequence
pins say exactly what is left.  The bystander, leak and volume-size
tests fail on the per-item-record / whole-bitmap / whole-server-flush
commit this replaced; the property test drives random transactions
into a crash at a random physical write.
"""

from hypothesis import given, settings, strategies as st

from repro.chaos.invariants import check_volume
from repro.chaos.trace import CrashPointMonitor
from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.chaos.workloads import ChaosVolume
from repro.common.clock import SimClock
from repro.common.errors import DiskCrashedError
from repro.common.metrics import Metrics
from repro.common.units import BLOCK_SIZE, FRAGMENT_SIZE, SECTORS_PER_FRAGMENT
from repro.disk_service.addresses import Extent
from repro.file_service.attributes import LockingLevel
from repro.file_service.fit import DIRECT_DESCRIPTORS
from repro.naming.attributed import AttributedName
from repro.naming.service import NamingService
from repro.simdisk.geometry import DiskGeometry
from repro.transactions.agent import TransactionAgentHost
from repro.transactions.coordinator import TransactionCoordinator
from repro.transactions.intentions import INLINE_LIMIT, WATERMARK_KEY
from repro.verify.fsck import fsck_volume
from tests.conftest import build_file_server

MAIN = AttributedName.file("/main")
VICTIM = AttributedName.file("/victim")


def build(*, geometry=None, technique="auto"):
    clock, metrics = SimClock(), Metrics()
    server = build_file_server(
        clock, metrics, geometry=geometry or DiskGeometry.small()
    )
    naming = NamingService(metrics)
    coordinator = TransactionCoordinator(clock, metrics, technique=technique)
    coordinator.register_volume(server)
    host = TransactionAgentHost("m0", naming, coordinator, clock, metrics)
    return host, server, naming, coordinator, metrics


def seed(host, name, content, level):
    tid = host.tbegin()
    descriptor = host.tcreate(tid, name, locking_level=level)
    host.twrite(tid, descriptor, content)
    system_name = host.system_name_of(tid, descriptor)
    host.tend(tid)
    return system_name


def restart(server, coordinator):
    """The machine dies and comes back: volatile state gone, recovery run."""
    for disk in (server.disk.disk, server.disk.stable.mirror_a,
                 server.disk.stable.mirror_b):
        disk.repair()
    server.disk.stable.rebuild_directory()
    return coordinator.recover_volume(server.volume_id)


class TestTendFlushesOnlyItsOwnFiles:
    def test_bystanders_delayed_writes_stay_delayed(self):
        host, server, naming, coordinator, metrics = build()
        seed(host, MAIN, b"O" * BLOCK_SIZE, LockingLevel.PAGE)
        bystander = server.create()
        data = b"B" * (2 * BLOCK_SIZE)
        server.write(bystander, 0, data)
        home = Extent.for_block_run(
            server.block_descriptor(bystander, 0).address, 2
        )
        platter = server.disk.disk

        def on_disk():
            return platter.read_sectors(home.first_sector, home.n_sectors)

        assert on_disk() != data  # delayed: still only in the block pool
        flushes = metrics.get("disk_server.0.flushes")
        tid = host.tbegin()
        descriptor = host.topen(tid, MAIN)
        host.tpwrite(tid, descriptor, b"N" * BLOCK_SIZE, 0)
        host.tend(tid)
        # The commit wrote back its own file and nobody else's.
        assert server.read(naming.resolve_file(MAIN), 0, 4) == b"NNNN"
        assert on_disk() != data
        assert metrics.get("disk_server.0.flushes") == flushes
        # Their own close makes them durable, as it always did.
        server.close(bystander)
        assert on_disk() == data
        restart(server, coordinator)
        assert server.read(bystander, 0, len(data)) == data


class TestTentativeExtentsNeverLeak:
    def test_a_completed_commit_leaves_nothing_for_a_crash_to_leak(self):
        host, server, naming, coordinator, _ = build()
        name = seed(host, MAIN, b"O" * (2 * BLOCK_SIZE), LockingLevel.PAGE)
        tid = host.tbegin()
        descriptor = host.topen(tid, MAIN)
        host.tpwrite(tid, descriptor, b"N" * (2 * BLOCK_SIZE), 0)
        host.tend(tid)
        restart(server, coordinator)  # no flush since the commit
        report = fsck_volume(server)
        assert report.clean
        assert report.orphaned_fragments == 0
        assert server.read(name, 0, 2 * BLOCK_SIZE) == b"N" * (2 * BLOCK_SIZE)
        assert server.disk.scratch_extents() == []

    def test_a_crash_before_the_commit_point_frees_the_after_images(self):
        host, server, naming, coordinator, _ = build()
        seed(host, MAIN, b"O" * BLOCK_SIZE, LockingLevel.PAGE)
        server.flush()  # retires the seed's list: nothing left to redo
        free_before = server.disk.free_fragments
        tid = host.tbegin()
        descriptor = host.topen(tid, MAIN)
        host.tpwrite(tid, descriptor, b"N" * BLOCK_SIZE, 0)
        # The after-image put is the data disk's first write of the tend;
        # the list's first mirror copy never lands.
        server.disk.stable.mirror_a.faults.crash_after_writes(1)
        try:
            host.tend(tid)
        except DiskCrashedError:
            pass
        assert server.disk.scratch_extents() != []
        assert restart(server, coordinator) == (0, 0)
        assert server.disk.scratch_extents() == []
        assert server.disk.free_fragments == free_before
        assert fsck_volume(server).orphaned_fragments == 0


def commit_writes(geometry, level, writes, technique="auto"):
    """(kind, disk, sectors) of every physical write of one ``tend``, and
    of the checkpoint (a flush of the server) after it."""
    host, server, naming, _, _ = build(geometry=geometry, technique=technique)
    name = seed(host, MAIN, bytes(4 * BLOCK_SIZE), level)
    server.flush()
    tid = host.tbegin()
    descriptor = host.topen(tid, MAIN)
    for offset, data in writes:
        host.tpwrite(tid, descriptor, data, offset)
    stable = server.disk.stable
    monitor = CrashPointMonitor().attach(
        server.disk.disk, stable.mirror_a, stable.mirror_b
    )
    host.tend(tid)
    committed = monitor.writes_seen
    server.flush()
    synced = {
        entry.start: entry.label.partition(":")[0]
        for entry in monitor.trace
        if entry.kind == "stable-sync"
    }
    named = {"intentions": "list", WATERMARK_KEY: "watermark"}
    sequence = []
    for entry in monitor.write_entries():
        disk = entry.disk_id.partition(".")[2] or "data"
        if disk != "data":
            kind = named.get(synced[entry.start], synced[entry.start])
        elif entry.start == name.fit_address * SECTORS_PER_FRAGMENT:
            kind = "fit"
        else:
            kind = "block" if entry.index > committed else "after-image"
        sequence.append((kind, disk, entry.n_sectors))
    return sequence[:committed], sequence[committed:]


TWO_RECORDS = [(40, b"\x01" * 8), (BLOCK_SIZE + 80, b"\x02" * 8)]

#: What every checkpoint after a commit writes after the blocks, which
#: go in one put with the FIT (its timestamps moved): the FIT's stable
#: copy, the protection map, the watermark.
CHECKPOINT_TAIL = [
    ("ext", "stable_a", 5),
    ("ext", "stable_b", 5),
    ("protection", "stable_a", 2),
    ("protection", "stable_b", 2),
    ("watermark", "stable_a", 2),
    ("watermark", "stable_b", 2),
]


class TestWhatACommitWrites:
    """The whole write sequence, pinned on both geometries."""

    GEOMETRIES = (DiskGeometry.small, DiskGeometry.medium)

    def test_a_two_record_commit_is_its_list_and_nothing_else(self):
        # Blocks 0 and 1 follow the FIT's fragment on disk: the
        # checkpoint's one put writes the FIT and both.
        for geometry in self.GEOMETRIES:
            tend, checkpoint = commit_writes(
                geometry(), LockingLevel.RECORD, TWO_RECORDS
            )
            assert tend == [("list", "stable_a", 2), ("list", "stable_b", 2)]
            assert checkpoint == [("fit", "data", 4 + 32)] + CHECKPOINT_TAIL

    def test_a_record_above_the_bound_keeps_its_extent(self):
        big = [(40, b"\x03" * (INLINE_LIMIT + 1))]
        tend, checkpoint = commit_writes(
            DiskGeometry.small(), LockingLevel.RECORD, big
        )
        assert tend == [
            ("after-image", "data", SECTORS_PER_FRAGMENT),
            ("list", "stable_a", 2),
            ("list", "stable_b", 2),
        ]
        assert checkpoint == [("fit", "data", 4 + 16)] + CHECKPOINT_TAIL

    def test_a_page_commit_is_its_after_image_and_its_list(self):
        page = [(0, b"N" * BLOCK_SIZE)]
        for geometry in self.GEOMETRIES:
            tend, checkpoint = commit_writes(geometry(), LockingLevel.PAGE, page)
            assert tend == [
                ("after-image", "data", 16),
                ("list", "stable_a", 2),
                ("list", "stable_b", 2),
            ]
            assert checkpoint == [("fit", "data", 4 + 16)] + CHECKPOINT_TAIL

    def test_a_structural_commit_stores_the_fit_before_the_list_is_retired(self):
        small = DiskGeometry.small()
        extension = commit_writes(
            small, LockingLevel.RECORD, [(4 * BLOCK_SIZE, b"\x04" * 8)]
        )
        swap = commit_writes(
            small, LockingLevel.PAGE, [(BLOCK_SIZE, b"S" * BLOCK_SIZE)], "shadow"
        )
        for tend, checkpoint in (extension, swap):
            kinds = [kind for kind, disk, _ in tend + checkpoint if disk != "stable_b"]
            assert "fit" in kinds
            # ``ext`` is the FIT's stable copy.
            assert kinds.index("list") < kinds.index("ext") < kinds.index("watermark")
        # A swap stores its FIT in the tend; a size is a checkpoint's.
        assert "ext" in [kind for kind, _, _ in swap[0]]
        assert "ext" not in [kind for kind, _, _ in extension[0]]

    def test_n_record_commits_to_one_block_cost_one_write_back(self):
        cluster = RhodosCluster(ClusterConfig(geometry=DiskGeometry.small()))
        host, server = cluster.machine.transactions, cluster.file_servers[0]
        name = seed(host, MAIN, bytes(2 * BLOCK_SIZE), LockingLevel.RECORD)
        cluster.flush_all()
        stable = server.disk.stable
        monitor = CrashPointMonitor().attach(
            server.disk.disk, stable.mirror_a, stable.mirror_b
        )
        for index in range(5):
            tid = host.tbegin()
            descriptor = host.topen(tid, MAIN)
            host.tpwrite(tid, descriptor, bytes([index + 1]) * 8, 16 * index)
            host.tend(tid)
        committed = monitor.writes_seen
        assert committed == 5 * 2  # each tend: its list, on both mirrors
        cluster.flush_all()
        checkpoint = monitor.write_entries()[committed:]
        # Block 0 follows the FIT's fragment: one put writes both.
        fit = name.fit_address * SECTORS_PER_FRAGMENT
        assert server.block_descriptor(name, 0).address == name.fit_address + 1
        assert [
            (entry.start, entry.n_sectors) for entry in checkpoint
            if entry.disk_id == server.disk.disk.disk_id
        ] == [(fit, SECTORS_PER_FRAGMENT + 16)]
        synced = [e.label for e in monitor.trace if e.kind == "stable-sync"]
        assert synced[5:].count(WATERMARK_KEY) == 1
        # No tombstone: every stable write of the checkpoint is a whole
        # record (a tombstone is one sector).
        assert all(
            entry.n_sectors > 1
            for entry in checkpoint
            if ".stable_" in entry.disk_id
        )
        assert cluster.metrics.get("transactions.lists_retired") == 1 + 5
        assert not [k for k in stable.keys() if k.startswith("intentions:")]
        assert server.read(name, 0, 80) == b"".join(
            bytes([index + 1]) * 8 + bytes(8) for index in range(5)
        )


class TestListsAfterACheckpointLandAhead:
    """A checkpoint forgets the slots of the lists it retires, and the
    next lists take them lowest first.  The first goes back to the
    lowest slot; each one after it lands just past the one before, a
    few sectors of rotation away, not a turn behind the head."""

    def test_each_commit_writes_past_the_last_and_waits_no_rotation(self):
        host, server, _, _, metrics = build()
        seed(host, MAIN, bytes(BLOCK_SIZE), LockingLevel.RECORD)

        def commit(index):
            tid = host.tbegin()
            descriptor = host.topen(tid, MAIN)
            host.tpwrite(tid, descriptor, bytes([index + 1]) * 8, 16 * index)
            start = server.clock.now_us
            host.tend(tid)
            return server.clock.now_us - start

        for index in range(8):
            commit(index)
        server.flush()
        assert metrics.get("transactions.lists_retired") >= 8
        stable = server.disk.stable
        monitor = CrashPointMonitor().attach(stable.mirror_a, stable.mirror_b)
        costs = [commit(index) for index in range(9)]
        starts = [
            entry.start
            for entry in monitor.trace
            if entry.kind == "stable-sync" and entry.label.startswith("intentions:")
        ]
        assert max(costs[1:]) < 5_000
        assert len(starts) == 9
        assert all(later > earlier for earlier, later in zip(starts, starts[1:]))


class TestWhatTendMakesDurable:
    """Contents, size and map — not timestamps (DESIGN.md section 3).

    A crash before the next checkpoint leaves the list pending, and its
    redo stamps the FIT with the recovery's own time."""

    def committed(self, offset):
        host, server, naming, coordinator, metrics = build()
        name = seed(host, MAIN, b"O" * (2 * BLOCK_SIZE), LockingLevel.RECORD)
        server.flush()
        stored = server.get_attribute(name)
        server.clock.advance_us(5_000)
        tid = host.tbegin()
        descriptor = host.topen(tid, MAIN)
        host.tpwrite(tid, descriptor, b"n" * 8, offset)
        host.tend(tid)
        return server, coordinator, metrics, name, stored

    def test_a_crash_after_tend_keeps_contents_and_may_lose_the_timestamp(self):
        server, coordinator, _, name, stored = self.committed(40)
        written = server.get_attribute(name).last_write_us
        assert written > stored.last_write_us
        server.crash()
        restart(server, coordinator)
        assert server.read(name, 39, 10) == b"O" + b"n" * 8 + b"O"
        recovered = server.get_attribute(name)  # the FIT decodes
        assert recovered.file_size == stored.file_size
        assert recovered.last_write_us > written  # the redo's
        assert fsck_volume(server).clean

    def test_a_crash_after_an_extending_tend_keeps_the_new_size(self):
        server, coordinator, _, name, stored = self.committed(2 * BLOCK_SIZE)
        server.crash()
        restart(server, coordinator)
        assert server.get_attribute(name).file_size == 2 * BLOCK_SIZE + 8
        assert server.read(name, 2 * BLOCK_SIZE, 8) == b"n" * 8
        assert fsck_volume(server).clean

    def test_an_extension_past_a_reserved_block_leaves_zeros_there(self):
        # The reserved block held a deleted file's bytes; the commit's
        # write carries EOF past it, and only the record's own block is
        # written back.
        host, server, naming, coordinator, _ = build()
        old = server.create()
        server.write(old, 0, b"%" * (8 * BLOCK_SIZE))
        server.flush()
        server.delete(old)
        name = seed(host, MAIN, b"O" * (2 * BLOCK_SIZE), LockingLevel.RECORD)
        server.flush()
        assert server.block_descriptor(name, 2) is not None  # reserved
        tid = host.tbegin()
        descriptor = host.topen(tid, MAIN)
        host.tpwrite(tid, descriptor, b"n" * 8, 3 * BLOCK_SIZE + 40)
        host.tend(tid)
        server.crash()
        restart(server, coordinator)
        assert server.read(name, 2 * BLOCK_SIZE, BLOCK_SIZE) == bytes(BLOCK_SIZE)
        assert server.read(name, 3 * BLOCK_SIZE + 40, 8) == b"n" * 8

    def test_flush_stores_a_timestamp_only_fit_and_close_does_not(self):
        for make_durable, fit_stores in (
            (lambda server, name: server.flush(), 1),
            (lambda server, name: server.close(name), 0),
        ):
            server, coordinator, metrics, name, stored = self.committed(40)
            written = server.get_attribute(name).last_write_us
            stores = metrics.get("file_server.0.fit_stores")
            make_durable(server, name)
            assert metrics.get("file_server.0.fit_stores") == stores + fit_stores
            server.crash()
            restart(server, coordinator)
            # A flush is the checkpoint; after a close the list is
            # pending, and the redo stamps its own time.
            recovered = server.get_attribute(name).last_write_us
            assert recovered == written if fit_stores else recovered > written


class TestCommitCostIsIndependentOfVolumeSize:
    def test_small_and_medium_volumes_write_the_same_stable_sectors(self):
        # The list (header + payload sector) on both mirrors, and a
        # checkpoint after it: nothing that scales with the volume.
        small, medium = (
            commit_writes(geometry, LockingLevel.RECORD, TWO_RECORDS)
            for geometry in (DiskGeometry.small(), DiskGeometry.medium())
        )
        assert small == medium
        tend, _ = small
        assert sum(sectors for _, disk, sectors in tend if disk != "data") == 2 * 2


class TestCommitCostIsIndependentOfFileSize:
    def test_a_tree_mapped_file_has_no_write_back_in_its_commit(self):
        host, server, naming, coordinator, metrics = build()
        blocks = DIRECT_DESCRIPTORS + 36
        name = seed(host, MAIN, b"O" * (blocks * BLOCK_SIZE), LockingLevel.RECORD)
        server.flush()
        # A delayed write elsewhere in the file: the checkpoint's to write.
        server.write(name, 50 * BLOCK_SIZE, b"later", delayed=True)
        writebacks = metrics.get("file_server.0.block_pool.writebacks")
        direct = 3 * BLOCK_SIZE + 40
        through_the_tree = (DIRECT_DESCRIPTORS + 26) * BLOCK_SIZE + 40
        tid = host.tbegin()
        descriptor = host.topen(tid, MAIN)
        host.tpwrite(tid, descriptor, b"n" * 8, direct)
        host.tpwrite(tid, descriptor, b"n" * 8, through_the_tree)
        host.tend(tid)
        assert metrics.get("file_server.0.block_pool.writebacks") == writebacks
        restart(server, coordinator)
        assert server.read(name, direct - 1, 10) == b"O" + b"n" * 8 + b"O"
        assert server.read(name, through_the_tree - 1, 10) == b"O" + b"n" * 8 + b"O"


# --------------------------------------------------------- property test

OLD_MAIN = b"M" * (2 * BLOCK_SIZE)
OLD_VICTIM = b"V" * 700


@st.composite
def scripts(draw):
    level = draw(st.sampled_from(
        [LockingLevel.RECORD, LockingLevel.PAGE, LockingLevel.FILE]
    ))
    # At RECORD level a write is one item: both sides of the inline bound
    # and more than a fragment, so one list can hold both carriers.
    lengths = st.sampled_from(
        [1, INLINE_LIMIT, INLINE_LIMIT + 1, FRAGMENT_SIZE + 1]
    ) | st.integers(1, BLOCK_SIZE + 100)
    writes = draw(st.lists(
        st.tuples(
            st.integers(0, len(OLD_MAIN) - 1),
            lengths,
            st.integers(1, 255),
        ),
        min_size=1,
        max_size=3,
    ))
    if draw(st.booleans()):  # an extension past the end of the file
        writes.append((len(OLD_MAIN) + draw(st.integers(0, 3000)), 600, 0xEE))
    return {
        "level": level,
        "technique": draw(st.sampled_from(["auto", "wal", "shadow"])),
        "writes": writes,
        "delete_victim": draw(st.booleans()),
        "commit": draw(st.booleans()),
        # Past the last write of the script means "no crash".
        "crash_at": draw(st.integers(1, 45)),
    }


def apply_to(content, writes):
    buffer = bytearray(content)
    for offset, length, fill in writes:
        if len(buffer) < offset + length:
            buffer.extend(bytes(offset + length - len(buffer)))
        buffer[offset : offset + length] = bytes([fill]) * length
    return bytes(buffer)


class TestRandomTransactionsCrashAtomically:
    @settings(max_examples=150, deadline=None)
    @given(scripts())
    def test_all_old_or_all_new_and_nothing_left_behind(self, script):
        clock, metrics = SimClock(), Metrics()
        volume = ChaosVolume(0, clock, metrics, DiskGeometry.small())
        server, disk = volume.file_server, volume.disk_server
        coordinator = TransactionCoordinator(
            clock, metrics, technique=script["technique"]
        )
        coordinator.register_volume(server)
        host = TransactionAgentHost(
            "m0", NamingService(metrics), coordinator, clock, metrics
        )
        server.flush()  # the volume's empty state, checkpointed
        baseline = (disk.free_fragments, set(disk.stable.keys()))
        main = seed(host, MAIN, OLD_MAIN, script["level"])
        victim = seed(host, VICTIM, OLD_VICTIM, script["level"])
        server.flush()

        monitor = CrashPointMonitor().attach(*volume.disks)
        monitor.arm(script["crash_at"])
        try:
            tid = host.tbegin()
            descriptor = host.topen(tid, MAIN)
            for offset, length, fill in script["writes"]:
                host.tpwrite(tid, descriptor, bytes([fill]) * length, offset)
            if script["delete_victim"]:
                host.tdelete(tid, VICTIM)
            if script["commit"]:
                host.tend(tid)
            else:
                host.tabort(tid)
        except DiskCrashedError:
            assert monitor.fired_at == script["crash_at"]
        monitor.disarm()
        restart(server, coordinator)

        def observe():
            return (
                server.read(main, 0, 4 * BLOCK_SIZE),
                server.read(victim, 0, BLOCK_SIZE)
                if server.exists(victim) else None,
                disk.free_fragments,
                set(disk.stable.keys()),
            )

        state = observe()
        old = (OLD_MAIN, OLD_VICTIM)
        new = (
            apply_to(OLD_MAIN, script["writes"]),
            None if script["delete_victim"] else OLD_VICTIM,
        )
        if not script["commit"]:
            admissible = [old]
        elif monitor.fired_at is None:
            admissible = [new]
        else:
            admissible = [old, new]
        assert state[:2] in admissible
        # Mirrors agree, no list left, extent table in sync, fsck clean,
        # no scratch extent outstanding or leaked.
        assert check_volume(server, disk.scratch_history) == []
        # What a crash may orphan is file space only (bitmap-before-
        # structure: create, growth, delete) — and nothing without one.
        orphaned = fsck_volume(server).orphaned_fragments
        assert orphaned == 0 or monitor.fired_at is not None

        # Recovery is idempotent: a second pass changes nothing.
        assert restart(server, coordinator) == (0, 0)
        assert observe() == state

        # Nothing else was left behind: deleting every file returns the
        # volume to where it started.
        server.delete(main)
        if server.exists(victim):
            server.delete(victim)
        server.flush()
        assert disk.free_fragments == baseline[0] - orphaned
        # The free-space log's tail, written by the seed, stays, and so
        # does the watermark the seeds' checkpoint wrote.
        assert set(disk.stable.keys()) == baseline[1] | {
            disk.free_space_log.tail_key, WATERMARK_KEY
        }
