"""The file server: create/open/read/write/delete, paper claims E1/E2/E15."""

import pytest

from repro.chaos.trace import CrashPointMonitor
from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.common.clock import SimClock
from repro.common.errors import DiskCrashedError, FileNotFoundError_, FileSizeError
from repro.common.ids import SystemName
from repro.common.metrics import Metrics
from repro.common.units import BLOCK_SIZE, KIB, SECTORS_PER_BLOCK, SECTORS_PER_FRAGMENT
from repro.disk_service.addresses import Extent
from repro.file_service.attributes import LockingLevel, ServiceType
from repro.file_service.cache import WritePolicy
from repro.file_service.fit import DESCRIPTORS_PER_INDIRECT, DIRECT_COVERAGE_BYTES
from repro.naming.attributed import AttributedName
from repro.verify.fsck import fsck_volume
from tests.conftest import build_file_server


@pytest.fixture
def server():
    return build_file_server(SimClock(), Metrics())


def pattern(n: int, seed: int = 1) -> bytes:
    return bytes((seed * 37 + index) % 256 for index in range(n))


class TestCreate:
    def test_create_returns_system_name(self, server):
        name = server.create()
        assert name.volume_id == server.volume_id
        assert server.exists(name)

    def test_fit_and_first_block_contiguous(self, server):
        """Paper section 5: 'the file index table and at least the first
        data block are always contiguous'."""
        name = server.create()
        descriptor = server.block_descriptor(name, 0)
        assert descriptor is not None
        assert descriptor.address == name.fit_address + 1

    def test_generations_distinguish_recycled_names(self, server):
        first = server.create()
        server.delete(first)
        second = server.create()
        assert second.fit_address == first.fit_address  # fragment recycled
        assert second.generation != first.generation
        with pytest.raises(FileNotFoundError_):
            server.read(first, 0, 1)

    def test_attributes_initialised(self, server):
        clock_before = server.clock.now_us
        name = server.create(
            service_type=ServiceType.TRANSACTION,
            locking_level=LockingLevel.RECORD,
        )
        attrs = server.get_attribute(name)
        assert attrs.file_size == 0
        assert attrs.created_us >= clock_before
        assert attrs.service_type is ServiceType.TRANSACTION
        assert attrs.locking_level is LockingLevel.RECORD
        assert attrs.ref_count == 0


class TestOpenClose:
    def test_ref_count_tracks_opens(self, server):
        name = server.create()
        server.open(name)
        server.open(name)
        assert server.get_attribute(name).ref_count == 2
        server.close(name)
        assert server.get_attribute(name).ref_count == 1

    def test_open_count_total_accumulates(self, server):
        name = server.create()
        for _ in range(3):
            server.open(name)
            server.close(name)
        assert server.get_attribute(name).open_count_total == 3

    def test_stale_name_rejected(self, server):
        name = server.create()
        server.delete(name)
        with pytest.raises(FileNotFoundError_):
            server.open(name)

    def test_wrong_volume_rejected(self, server):
        bogus = SystemName(server.volume_id + 1, 0, 1)
        with pytest.raises(Exception):
            server.open(bogus)


class TestReadWrite:
    def test_round_trip(self, server):
        name = server.create()
        data = pattern(1000)
        assert server.write(name, 0, data) == 1000
        assert server.read(name, 0, 1000) == data

    def test_read_beyond_eof_is_short(self, server):
        name = server.create()
        server.write(name, 0, b"abc")
        assert server.read(name, 0, 100) == b"abc"
        assert server.read(name, 3, 10) == b""
        assert server.read(name, 100, 10) == b""

    def test_partial_overwrite(self, server):
        name = server.create()
        server.write(name, 0, b"a" * 100)
        server.write(name, 40, b"B" * 10)
        assert server.read(name, 0, 100) == b"a" * 40 + b"B" * 10 + b"a" * 50

    def test_cross_block_write(self, server):
        name = server.create()
        data = pattern(3 * BLOCK_SIZE + 17)
        server.write(name, BLOCK_SIZE - 5, data)
        assert server.read(name, BLOCK_SIZE - 5, len(data)) == data

    def test_sparse_hole_reads_zero(self, server):
        name = server.create()
        server.write(name, 10 * BLOCK_SIZE, b"tail")
        assert server.read(name, 5 * BLOCK_SIZE, 8) == bytes(8)
        assert server.get_attribute(name).file_size == 10 * BLOCK_SIZE + 4

    def test_updates_timestamps_and_size(self, server):
        name = server.create()
        server.write(name, 0, b"x")
        t_write = server.get_attribute(name).last_write_us
        server.read(name, 0, 1)
        attrs = server.get_attribute(name)
        assert attrs.last_read_us >= t_write
        assert attrs.file_size == 1

    def test_bad_ranges_rejected(self, server):
        name = server.create()
        with pytest.raises(FileSizeError):
            server.read(name, -1, 5)
        with pytest.raises(FileSizeError):
            server.write(name, -2, b"x")

    def test_empty_write_is_noop(self, server):
        name = server.create()
        assert server.write(name, 0, b"") == 0
        assert server.get_attribute(name).file_size == 0


class TestNoBytesOfADeletedFile:
    """A block with no file bytes in it reads as zeros, whatever a
    deleted file left on the disk there."""

    def recycle(self, server, content):
        old = server.create()
        server.write(old, 0, content)
        server.flush()
        addresses = [
            server.block_descriptor(old, index).address
            for index in range(-(-len(content) // BLOCK_SIZE))
        ]
        server.delete(old)
        return addresses

    def test_a_partial_write_into_a_fresh_block_keeps_nothing_around_it(
        self, server
    ):
        # Found by the block-model test (test_block_tree.py): the write
        # read-modify-wrote the residue of the file deleted before it.
        old = self.recycle(server, bytes(BLOCK_SIZE) + b"%")
        name = server.create()
        server.write(name, BLOCK_SIZE + 1, b"\0")
        assert server.block_descriptor(name, 1).address == old[1]
        assert server.read(name, BLOCK_SIZE, BLOCK_SIZE) == b"\0\0"

    def test_a_write_past_a_reserved_block_zeroes_it(self, server):
        old = self.recycle(server, b"%" * (8 * BLOCK_SIZE))
        name = server.create()
        server.write(name, 0, pattern(BLOCK_SIZE))
        server.write(name, BLOCK_SIZE, pattern(BLOCK_SIZE, 2))
        reserved = server.block_descriptor(name, 2)
        assert reserved is not None and reserved.address in old
        server.write(name, 4 * BLOCK_SIZE, b"x" * 10)
        assert server.read(name, 2 * BLOCK_SIZE, BLOCK_SIZE) == bytes(BLOCK_SIZE)
        server.flush()
        server.recover()
        assert server.read(name, 2 * BLOCK_SIZE, BLOCK_SIZE) == bytes(BLOCK_SIZE)

    def test_a_shadow_swap_past_reserved_blocks_zeroes_them(self, server):
        # A shadow-page commit extending the file: the swap installs the
        # block holding the new last byte, then the size rises past the
        # reserved blocks before it.
        old = self.recycle(server, b"%" * (8 * BLOCK_SIZE))
        name = server.create()
        server.write(name, 0, pattern(2 * BLOCK_SIZE))  # reserves block 2
        server.write(name, 2 * BLOCK_SIZE, pattern(BLOCK_SIZE))
        server.write(name, 3 * BLOCK_SIZE, pattern(BLOCK_SIZE))  # reserves 4-6
        assert server.block_descriptor(name, 5).address in old
        shadow = server.disk.allocate_block(1)
        server.write_block(shadow.start, pattern(BLOCK_SIZE, 2))
        server.replace_block_descriptor(name, 6, shadow.start)
        server.set_file_size_at_least(name, 7 * BLOCK_SIZE)
        assert server.read(name, 4 * BLOCK_SIZE, 2 * BLOCK_SIZE) == bytes(
            2 * BLOCK_SIZE
        )
        assert server.read(name, 6 * BLOCK_SIZE, BLOCK_SIZE) == pattern(
            BLOCK_SIZE, 2
        )

    def test_filling_a_hole_reserves_no_other_hole_below_eof(self, server):
        # Found by the block-model test: the reservation of a write into
        # hole 1 mapped recycled blocks over hole 2.
        self.recycle(server, b"%" * (8 * BLOCK_SIZE))
        name = server.create()
        server.write(name, 3 * BLOCK_SIZE, b"t")
        server.write(name, BLOCK_SIZE, b"h")
        assert server.block_descriptor(name, 2) is None
        assert server.read(name, 2 * BLOCK_SIZE, BLOCK_SIZE) == bytes(BLOCK_SIZE)

    def test_a_write_that_fills_holes_leaves_the_stored_fit_alone(self):
        # At the parent the write stored the FIT at once while block 3
        # sat in the block pool: /victim read 30,100 bytes after the
        # crash, 5,524 of them the deleted file's.
        cluster = RhodosCluster(ClusterConfig(client_cache_blocks=0))
        agent = cluster.machine.file_agent
        old = AttributedName.file("/old")
        descriptor = agent.create(old)
        agent.write(descriptor, b"S" * (40 * KIB))
        agent.close(descriptor)
        agent.delete(old)
        victim = AttributedName.file("/victim")
        descriptor = agent.create(victim)
        agent.write(descriptor, b"v" * 100)
        agent.close(descriptor)
        descriptor = agent.open(victim)
        agent.pwrite(descriptor, b"w" * 100, 30_000)
        cluster.fail_volume(0)
        cluster.restart_volume(0)
        descriptor = cluster.machine.file_agent.open(victim)
        assert cluster.machine.file_agent.pread(descriptor, 40_000, 0) == b"v" * 100

    def test_an_evicted_fit_goes_after_its_blocks(self):
        # At the parent the eviction stored the FIT, size and all, while
        # the reserved block's new bytes sat in the block pool: the file
        # read 110 of the deleted file's bytes after the crash.
        server = build_file_server(SimClock(), Metrics(), fit_cache_entries=8)
        self.recycle(server, b"S" * (8 * BLOCK_SIZE))
        name = server.create()
        server.write(name, 0, pattern(2 * BLOCK_SIZE))  # reserves block 2
        server.close(name)
        reserved = server.block_descriptor(name, 2)
        assert reserved is not None
        server.write(name, 2 * BLOCK_SIZE + 100, b"x" * 10)
        assert server.block_descriptor(name, 2) == reserved  # no allocation
        for _ in range(8):
            server.create()
        assert name.fit_address not in server._files  # evicted
        crash_and_recover(server)
        assert server.read(name, 2 * BLOCK_SIZE, BLOCK_SIZE) == bytes(100) + b"x" * 10


def crash_and_recover(server):
    """The machine dies with every disk of the volume; then recovery."""
    stable = server.disk.stable
    server.crash()
    for disk in (server.disk.disk, stable.mirror_a, stable.mirror_b):
        disk.repair()
    stable.rebuild_directory()
    stable.recover()
    server.recover()


def recycled(server):
    """Block addresses a deleted file left its ``S`` bytes in; its
    delete is checkpointed, its FIT no mirrored fragment."""
    old = TestNoBytesOfADeletedFile().recycle(server, b"S" * (4 * BLOCK_SIZE))
    server.flush()
    return old


class _TearTheFitStore(CrashPointMonitor):
    """Crashes the volume during the first data-disk write that starts
    at ``name``'s FIT, ``survivors`` sectors of it landed."""

    def __init__(self, server, name, survivors):
        super().__init__()
        stable = server.disk.stable
        self.attach(server.disk.disk, stable.mirror_a, stable.mirror_b)
        self.data_disk = server.disk.disk.disk_id
        self.sector = name.fit_address * SECTORS_PER_FRAGMENT
        self.survivors = survivors

    def on_write(self, faults, disk_id, start, n_sectors):
        if (disk_id, start) == (self.data_disk, self.sector) and (
            self.fired_at is None
        ):
            self.arm(self.writes_seen + 1)
        return super().on_write(faults, disk_id, start, n_sectors)

    def torn_sectors(self, crash_point, n_sectors):
        return self.survivors


class TestAnUnclosedFileAfterACrash:
    """A basic file's FIT is stored by its first close, flush or
    eviction, after its data; a crash before that leaves no file."""

    def test_a_created_and_written_file_is_gone(self, server):
        old = recycled(server)
        name = server.create()
        server.write(name, 0, pattern(3 * BLOCK_SIZE))
        assert server.block_descriptor(name, 1).address in old
        crash_and_recover(server)
        with pytest.raises(FileNotFoundError_):
            server.open(name)
        report = fsck_volume(server)
        assert report.clean
        assert report.orphaned_fragments == 0

    def test_the_fit_is_stored_once_in_the_reference_of_its_first_run(self, server):
        name = server.create()
        server.write(name, 0, pattern(3 * BLOCK_SIZE))
        assert server.metrics.get("file_server.0.fit_stores") == 0
        server.close(name)
        assert server.metrics.get("file_server.0.fit_stores") == 1
        crash_and_recover(server)
        assert server.read(name, 0, 4 * BLOCK_SIZE) == pattern(3 * BLOCK_SIZE)

    def test_a_write_through_create_stores_at_once(self):
        server = build_file_server(
            SimClock(), Metrics(), write_policy=WritePolicy.WRITE_THROUGH
        )
        name = server.create()
        transaction = server.create(service_type=ServiceType.TRANSACTION)
        assert server.metrics.get("file_server.0.fit_stores") == 2
        crash_and_recover(server)
        assert server.get_attribute(name).file_size == 0
        assert server.get_attribute(transaction).file_size == 0

    def test_a_durable_create_stores_at_once(self, server):
        name = server.create(durable=True)
        assert server.metrics.get("file_server.0.fit_stores") == 1
        crash_and_recover(server)
        assert server.get_attribute(name).file_size == 0

    def test_another_files_store_leaves_its_space_out_of_free_space(self, server):
        # B's close settles free space; A's blocks stay out of it until
        # A's FIT is stored, so the crash returns them.
        a = server.create()
        server.write(a, 0, pattern(3 * BLOCK_SIZE))
        b = server.create()
        server.write(b, 0, b"b" * 100)
        server.close(b)
        crash_and_recover(server)
        with pytest.raises(FileNotFoundError_):
            server.open(a)
        assert server.read(b, 0, BLOCK_SIZE) == b"b" * 100
        report = fsck_volume(server)
        assert report.clean
        assert report.orphaned_fragments == 0

    def test_an_unstored_growth_is_returned_to_free_space(self, server):
        a = server.create()
        server.write(a, 0, b"a" * 100)
        server.close(a)
        # Past the growth reservation: fresh blocks no stored FIT maps.
        server.write(a, 20 * BLOCK_SIZE, pattern(2 * BLOCK_SIZE))
        b = server.create()
        server.close(b)
        crash_and_recover(server)
        assert server.read(a, 0, 30 * BLOCK_SIZE) == b"a" * 100
        report = fsck_volume(server)
        assert report.clean
        assert report.orphaned_fragments == 0

    def test_a_fit_stored_since_the_checkpoint_is_checked_once(self, server):
        name = server.create()
        server.write(name, 0, b"v" * 100)
        server.close(name)
        crash_and_recover(server)
        disk = server.disk
        assert not disk.is_mirrored_fragment(name.fit_address)
        assert server.read(name, 0, BLOCK_SIZE) == b"v" * 100
        # Main equals stable: nothing rewritten, and mirrored from here on.
        assert server.metrics.get("file_server.0.fit_restores") == 0
        assert server.metrics.get("disk_server.0.stable_repairs") == 0
        assert disk.is_mirrored_fragment(name.fit_address)


class TestATornFitAndRun:
    """A FIT reaches main storage ahead of the run that shares its
    reference, and stable storage after both: when a crash tears the
    run, the FIT's main copy counts only if its stable copy agrees."""

    #: The FIT and block 0 land; blocks 1 and 2 keep the deleted file's bytes.
    SURVIVORS = SECTORS_PER_FRAGMENT + SECTORS_PER_BLOCK

    def test_a_torn_first_store_leaves_no_file(self, server):
        recycled(server)
        name = server.create()
        server.write(name, 0, pattern(3 * BLOCK_SIZE))
        _TearTheFitStore(server, name, self.SURVIVORS)
        with pytest.raises(DiskCrashedError):
            server.close(name)
        crash_and_recover(server)
        with pytest.raises(FileNotFoundError_):
            server.open(name)

    @pytest.mark.parametrize("checkpointed", [False, True])
    def test_a_torn_store_keeps_the_last_stored_fit(self, server, checkpointed):
        # Checkpointed, the FIT is a mirrored fragment and the disk
        # server's read repair rolls it back; stored since the last
        # checkpoint, the file server takes the stable copy itself.
        recycled(server)
        name = server.create()
        server.write(name, 0, b"v" * 100)
        server.close(name)
        if checkpointed:
            server.flush()
        server.write(name, 0, pattern(3 * BLOCK_SIZE))
        _TearTheFitStore(server, name, self.SURVIVORS)
        with pytest.raises(DiskCrashedError):
            server.close(name)
        crash_and_recover(server)
        # The stored size, and block 0 as it landed in place — as it
        # would have in a put of its own ahead of the FIT's.
        restores = server.metrics.get("file_server.0.fit_restores")
        assert server.read(name, 0, 4 * BLOCK_SIZE) == pattern(3 * BLOCK_SIZE)[:100]
        assert server.metrics.get("file_server.0.fit_restores") == restores + (
            not checkpointed
        )
        # Healed either way: main is the stable copy and mirrored again.
        assert server.disk.is_mirrored_fragment(name.fit_address)


class TestPaperClaimTwoReferences:
    def test_cold_read_of_half_megabyte_costs_two_references(self):
        """E1: 'for files up to half a megabyte, the maximum number of
        disk references is two: one for the file index table and the
        other for file data' (section 7)."""
        clock, metrics = SimClock(), Metrics()
        server = build_file_server(clock, metrics)
        name = server.create()
        server.write(name, 0, pattern(DIRECT_COVERAGE_BYTES))
        server.flush()
        server.recover()  # cold caches
        before = metrics.get("disk.0.references")
        server.read(name, 0, DIRECT_COVERAGE_BYTES)
        assert metrics.get("disk.0.references") - before == 2

    def test_contiguous_run_read_in_one_reference(self):
        """E2: count fields let k contiguous blocks cost one get_block."""
        clock, metrics = SimClock(), Metrics()
        server = build_file_server(clock, metrics)
        name = server.create()
        server.write(name, 0, pattern(8 * BLOCK_SIZE))
        server.flush()
        server.recover()
        server.read(name, 0, 1)  # loads the FIT + first run; warm the FIT only
        server.recover()
        before = metrics.get("disk.0.references")
        server.read(name, 0, 8 * BLOCK_SIZE)
        # 1 FIT + 1 data (all eight blocks contiguous)
        assert metrics.get("disk.0.references") - before == 2


class TestBlockPool:
    def test_a_pool_served_read_costs_no_reference(self):
        clock, metrics = SimClock(), Metrics()
        server = build_file_server(clock, metrics)
        name = server.create()
        server.write(name, 0, pattern(512))
        server.flush()  # clean, and still in the block pool
        hits = metrics.get("file_server.0.block_pool.hits")
        before = metrics.get("disk.0.references")
        assert server.read(name, 0, 256) == pattern(256)
        assert metrics.get("disk.0.references") == before
        assert metrics.get("file_server.0.block_pool.hits") > hits


def pool_rig(**config):
    """A one-buffer block pool holding block ``a`` dirty, over a volume
    whose block ``b`` is on disk and uncached: (server, a, b, a's bytes)."""
    server = RhodosCluster(ClusterConfig(server_cache_blocks=1, **config)).file_servers[0]
    a = server.disk.allocate_block(1).start
    for _ in range(6):  # put b on another stripe row
        b = server.disk.allocate_block(1).start
    server.write_block(b, pattern(BLOCK_SIZE, 2))
    server.write_block(a, pattern(BLOCK_SIZE, 3), through=False)
    return server, a, b, pattern(BLOCK_SIZE, 3)


def get_then_put(**config):
    """The parent's order, get then write-back, on a twin rig (us)."""
    server, a, b, data = pool_rig(**config)
    start = server.clock.now_us
    server.disk.get(Extent.for_block_run(b, 1))
    server.disk.put(Extent.for_block_run(a, 1), data)
    return server.clock.now_us - start


class TestPoolEvictionBesideTheGet:
    """A pool miss writes back what it will evict beside its get, get
    first: on raid5 the victim's read-modify-write overlaps the get."""

    def fetch(self, **config):
        server, a, b, data = pool_rig(**config)
        metrics = server.metrics
        writebacks = metrics.get("file_server.0.block_pool.writebacks")
        start = server.clock.now_us
        assert server.read_block(b) == pattern(BLOCK_SIZE, 2)
        elapsed = server.clock.now_us - start
        assert metrics.get("file_server.0.block_pool.writebacks") == writebacks + 1
        assert server.disk.get(Extent.for_block_run(a, 1)) == data
        return elapsed

    def test_on_raid5_the_write_back_overlaps_the_get(self):
        config = {"raid_level": "raid5", "raid_members": 4}
        assert self.fetch(**config) < get_then_put(**config)

    def test_on_one_spindle_the_timing_is_the_sequential_one(self):
        assert self.fetch() == get_then_put()

    def test_a_failing_write_back_leaves_the_victim_dirty(self):
        server, a, b, data = pool_rig()
        server.disk.disk.faults.crash_after_writes(1)
        with pytest.raises(DiskCrashedError):
            server.read_block(b)
        pool = server._data_cache
        assert pool.dirty_among([a]) == {a: data}
        assert not pool.contains(b)


class TestLargeFiles:
    def test_indirect_growth_and_readback(self, server):
        name = server.create()
        size = DIRECT_COVERAGE_BYTES + 5 * BLOCK_SIZE  # forces indirection
        data = pattern(size)
        server.write(name, 0, data)
        assert server.read(name, 0, size) == data
        assert server.load_fit(name).uses_indirection()

    def test_indirect_survives_cache_drop(self, server):
        name = server.create()
        size = DIRECT_COVERAGE_BYTES + 3 * BLOCK_SIZE
        data = pattern(size, seed=9)
        server.write(name, 0, data)
        server.flush()
        server.recover()
        assert server.read(name, 0, size) == data

    def test_island_beyond_an_empty_indirect_slot_survives_cache_drop(self, server):
        """An absent indirect slot still pads the map when a mapped one
        follows it; only trailing holes go unmaterialised."""
        name = server.create()
        island = DIRECT_COVERAGE_BYTES + (2 * DESCRIPTORS_PER_INDIRECT + 5) * BLOCK_SIZE
        server.write(name, island, b"island")
        server.flush()
        server.recover()
        assert server.read(name, island, 6) == b"island"
        assert server.read(name, DIRECT_COVERAGE_BYTES, 8) == bytes(8)
        assert server.read(name, island - BLOCK_SIZE, 8) == bytes(8)

    def test_small_file_map_is_its_mapped_blocks(self, server):
        name = server.create()
        server.write(name, 0, pattern(3 * BLOCK_SIZE))
        server.open(name)
        server.close(name)  # the flush on close walks the full map
        full = server._full_map(server._load_state(name))
        assert 3 <= len(full) < 16  # not 64 direct + ~11 k empty indirect slots
        assert None not in full

    def test_multi_megabyte_file(self, server):
        name = server.create()
        size = 3 * 1024 * 1024
        data = pattern(size, seed=3)
        server.write(name, 0, data)
        assert server.read(name, size - 100, 100) == data[-100:]


class TestDelete:
    def test_delete_frees_all_space(self, server):
        pristine = server.disk.free_fragments
        name = server.create()
        server.write(name, 0, pattern(DIRECT_COVERAGE_BYTES + BLOCK_SIZE))
        server.flush()
        server.delete(name)
        assert server.disk.free_fragments == pristine

    def test_delete_small_file(self, server):
        pristine = server.disk.free_fragments
        name = server.create()
        server.write(name, 0, b"tiny")
        server.delete(name)
        assert server.disk.free_fragments == pristine


class TestWritePolicies:
    def test_delayed_write_defers_disk_writes(self):
        clock, metrics = SimClock(), Metrics()
        server = build_file_server(clock, metrics)
        name = server.create()
        snapshot = metrics.get("disk.0.writes")
        for index in range(16):
            server.write(name, 0, pattern(100, seed=index))  # same block
        deferred_writes = metrics.get("disk.0.writes") - snapshot
        server.flush()
        assert deferred_writes <= 1  # overwrites absorbed by the cache

    def test_write_through_hits_disk_every_time(self):
        clock, metrics = SimClock(), Metrics()
        server = build_file_server(
            clock, metrics, write_policy=WritePolicy.WRITE_THROUGH
        )
        name = server.create()
        snapshot = metrics.get("disk.0.writes")
        for index in range(4):
            server.write(name, 0, pattern(100, seed=index))
        assert metrics.get("disk.0.writes") - snapshot >= 4

    def test_transaction_files_write_through(self):
        """Paper section 5: write-through is adapted for the file
        service because it coordinates transactional access."""
        clock, metrics = SimClock(), Metrics()
        server = build_file_server(clock, metrics)  # delayed policy
        name = server.create(service_type=ServiceType.TRANSACTION)
        snapshot = metrics.get("disk.0.writes")
        server.write(name, 0, b"txn data")
        assert metrics.get("disk.0.writes") > snapshot

    def test_flush_then_recover_preserves_delayed_writes(self, server):
        name = server.create()
        server.write(name, 0, b"must survive")
        server.flush()
        server.recover()
        assert server.read(name, 0, 12) == b"must survive"


class TestDynamicFit:
    def test_fits_distributed_across_disk(self, server):
        """E15: dynamically created FITs 'do not accumulate in one place
        on the disk' — each sits next to its own file's data."""
        names = []
        for index in range(10):
            name = server.create()
            server.write(name, 0, pattern(BLOCK_SIZE, seed=index))
            names.append(name)
        addresses = [name.fit_address for name in names]
        spread = max(addresses) - min(addresses)
        assert spread >= 9 * 4  # interleaved with data, not clustered

    def test_replace_block_descriptor(self, server):
        name = server.create()
        server.write(name, 0, pattern(BLOCK_SIZE))
        shadow = server.disk.allocate_block(1)
        server.write_block(shadow.start, pattern(BLOCK_SIZE, seed=5))
        old = server.replace_block_descriptor(name, 0, shadow.start)
        assert old is not None
        assert server.read(name, 0, BLOCK_SIZE) == pattern(BLOCK_SIZE, seed=5)
