"""What a commit writes, what it leaves alone, and what survives a crash.

The commit path puts exactly one intentions-list record per volume on
stable storage, flushes only the files the transaction touched, and
keeps tentative (scratch) extents out of every bitmap checkpoint.  A
small record-level after-image rides in the list and a FIT that moved
only in its timestamps is not a record-level commit's to store: the
write-sequence pins say exactly what is left.  The bystander, leak and
volume-size tests fail on the per-item-record / whole-bitmap /
whole-server-flush commit this replaced; the property test drives
random transactions into a crash at a random physical write.
"""

from hypothesis import given, settings, strategies as st

from repro.chaos.invariants import check_volume
from repro.chaos.trace import CrashPointMonitor
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
from repro.transactions.intentions import INLINE_LIMIT
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
    """(kind, disk, sectors) of every physical write of one ``tend``."""
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
    synced = {
        entry.start: entry.label.partition(":")[0]
        for entry in monitor.trace
        if entry.kind == "stable-sync"
    }
    sequence, listed = [], False
    for entry in monitor.trace:
        if entry.kind != "write":
            continue
        disk = entry.disk_id.partition(".")[2] or "data"
        if disk != "data":
            kind = synced[entry.start]
            if kind == "intentions":
                kind = "tombstone" if listed and entry.n_sectors == 1 else "list"
                listed = listed or disk == "stable_b"
        elif entry.start == name.fit_address * SECTORS_PER_FRAGMENT:
            kind = "fit"
        else:
            kind = "block" if listed else "after-image"
        sequence.append((kind, disk, entry.n_sectors))
    return sequence


TWO_RECORDS = [(40, b"\x01" * 8), (BLOCK_SIZE + 80, b"\x02" * 8)]


class TestWhatACommitWrites:
    """The whole write sequence, pinned on both geometries."""

    GEOMETRIES = (DiskGeometry.small, DiskGeometry.medium)

    def test_a_two_record_commit_is_its_list_and_its_blocks(self):
        for geometry in self.GEOMETRIES:
            assert commit_writes(geometry(), LockingLevel.RECORD, TWO_RECORDS) == [
                ("list", "stable_a", 2),
                ("list", "stable_b", 2),
                ("block", "data", 16),
                ("block", "data", 16),
                ("tombstone", "stable_a", 1),
                ("tombstone", "stable_b", 1),
            ]

    def test_a_record_above_the_bound_keeps_its_extent(self):
        big = [(40, b"\x03" * (INLINE_LIMIT + 1))]
        assert commit_writes(DiskGeometry.small(), LockingLevel.RECORD, big) == [
            ("after-image", "data", SECTORS_PER_FRAGMENT),
            ("list", "stable_a", 2),
            ("list", "stable_b", 2),
            ("block", "data", 16),
            ("tombstone", "stable_a", 1),
            ("tombstone", "stable_b", 1),
        ]

    def test_a_page_commit_is_unchanged_and_still_stores_the_fit(self):
        # Only its timestamp moved, but E9 counts this write (ROADMAP 1(f)).
        page = [(0, b"N" * BLOCK_SIZE)]
        for geometry in self.GEOMETRIES:
            assert commit_writes(geometry(), LockingLevel.PAGE, page) == [
                ("after-image", "data", 16),
                ("list", "stable_a", 2),
                ("list", "stable_b", 2),
                ("block", "data", 16),
                ("fit", "data", 4),
                ("ext", "stable_a", 5),
                ("ext", "stable_b", 5),
                ("tombstone", "stable_a", 1),
                ("tombstone", "stable_b", 1),
            ]

    def test_a_structural_commit_stores_the_fit_before_the_list_is_removed(self):
        small = DiskGeometry.small()
        extension = commit_writes(
            small, LockingLevel.RECORD, [(4 * BLOCK_SIZE, b"\x04" * 8)]
        )
        swap = commit_writes(
            small, LockingLevel.PAGE, [(BLOCK_SIZE, b"S" * BLOCK_SIZE)], "shadow"
        )
        for sequence in (extension, swap):
            kinds = [kind for kind, disk, _ in sequence if disk != "stable_b"]
            assert "fit" in kinds
            # ``ext`` is the FIT's stable copy.
            assert kinds.index("list") < kinds.index("ext") < kinds.index("tombstone")


class TestWhatTendMakesDurable:
    """Contents, size and map — not timestamps (DESIGN.md section 3)."""

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
        assert server.get_attribute(name).last_write_us > stored.last_write_us
        server.crash()
        restart(server, coordinator)
        assert server.read(name, 39, 10) == b"O" + b"n" * 8 + b"O"
        recovered = server.get_attribute(name)  # the FIT decodes
        assert recovered.file_size == stored.file_size
        assert recovered.last_write_us == stored.last_write_us
        assert fsck_volume(server).clean

    def test_a_crash_after_an_extending_tend_keeps_the_new_size(self):
        server, coordinator, _, name, stored = self.committed(2 * BLOCK_SIZE)
        server.crash()
        restart(server, coordinator)
        assert server.get_attribute(name).file_size == 2 * BLOCK_SIZE + 8
        assert server.read(name, 2 * BLOCK_SIZE, 8) == b"n" * 8
        assert fsck_volume(server).clean

    def test_flush_and_close_still_store_a_fit_only_its_timestamps_dirtied(self):
        for make_durable in (
            lambda server, name: server.flush(),
            lambda server, name: server.close(name),
        ):
            server, coordinator, metrics, name, stored = self.committed(40)
            written = server.get_attribute(name).last_write_us
            stores = metrics.get("file_server.0.fit_stores")
            make_durable(server, name)
            assert metrics.get("file_server.0.fit_stores") == stores + 1
            server.crash()
            restart(server, coordinator)
            assert server.get_attribute(name).last_write_us == written


class TestCommitCostIsIndependentOfVolumeSize:
    def test_small_and_medium_volumes_write_the_same_stable_sectors(self):
        # The list (header + payload sector) and its tombstone, each on
        # both mirrors — and nothing that scales with the volume.
        for geometry in (DiskGeometry.small(), DiskGeometry.medium()):
            assert sum(
                sectors
                for _, disk, sectors in commit_writes(
                    geometry, LockingLevel.RECORD, TWO_RECORDS
                )
                if disk != "data"
            ) == 2 * (2 + 1)


class TestCommitCostIsIndependentOfFileSize:
    def test_a_tree_mapped_file_has_only_the_covered_blocks_written_back(self):
        host, server, naming, coordinator, metrics = build()
        blocks = DIRECT_DESCRIPTORS + 36
        name = seed(host, MAIN, b"O" * (blocks * BLOCK_SIZE), LockingLevel.RECORD)
        server.flush()
        # A delayed write elsewhere in the file is not this commit's to flush.
        server.write(name, 50 * BLOCK_SIZE, b"later", delayed=True)
        writebacks = metrics.get("file_server.0.block_pool.writebacks")
        direct = 3 * BLOCK_SIZE + 40
        through_the_tree = (DIRECT_DESCRIPTORS + 26) * BLOCK_SIZE + 40
        tid = host.tbegin()
        descriptor = host.topen(tid, MAIN)
        host.tpwrite(tid, descriptor, b"n" * 8, direct)
        host.tpwrite(tid, descriptor, b"n" * 8, through_the_tree)
        host.tend(tid)
        assert metrics.get("file_server.0.block_pool.writebacks") == writebacks + 2
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
        assert set(disk.stable.keys()) == baseline[1]
