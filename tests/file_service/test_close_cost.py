"""What a close costs: one put per contiguous run of dirty blocks, and
a FIT store only when the file's structure moved since the last one —
after the blocks, and in one put with the run that follows the FIT's
fragment.  The free-space settle goes to the stable mirrors beside
those data-drive writes, and the FIT's stable copy follows both.  A
flush writes the whole block pool back the same way, pipeline or not,
and stores its FITs as the branches of one fan-out.

A transaction checkpoint goes through the same ``flush_file``: its one
put per run is pinned in ``tests/transactions/test_commit_cost.py``
(``TestWhatACommitWrites``).
"""

import pytest

from repro.chaos.trace import CrashPointMonitor
from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.common.clock import SimClock
from repro.common.frames import Timeline
from repro.common.metrics import Metrics
from repro.common.units import BLOCK_SIZE, FRAGMENTS_PER_BLOCK
from repro.disk_service.addresses import Extent
from repro.disk_service.server import PROTECTION_KEY, Stability, _decode_protection
from repro.file_service.fit import FIT_MAGIC
from repro.naming.attributed import AttributedName
from tests.conftest import build_file_server


@pytest.fixture
def server():
    return build_file_server(SimClock(), Metrics())


def recorded_puts(server):
    """Record ``(extent, stability)`` of every put from now on."""
    puts = []
    put = server.disk.put

    def recorded(extent, data, *, stability=Stability.ORIGINAL_ONLY, **kwargs):
        puts.append((extent, stability))
        put(extent, data, stability=stability, **kwargs)

    server.disk.put = recorded
    return puts


def with_fit(name, n_blocks):
    """The extent of a FIT and the ``n_blocks`` that follow it."""
    return Extent(name.fit_address, 1 + n_blocks * FRAGMENTS_PER_BLOCK)


def fit_stores(server):
    return server.metrics.get("file_server.0.fit_stores")


class TestOnePutPerRun:
    def test_adjacent_dirty_blocks_go_back_in_one_put(self, server):
        name = server.create()
        server.write(name, 0, b"r" * (5 * BLOCK_SIZE + 7))
        puts = recorded_puts(server)
        server.close(name)
        # The FIT goes after its data: in the same put, ahead of block 0.
        assert server.block_descriptor(name, 0).address == name.fit_address + 1
        assert puts == [(with_fit(name, 6), Stability.HEAD_BOTH)]

    def test_a_run_ends_where_the_disk_blocks_stop_being_adjacent(self, server):
        name = server.create()
        server.write(name, 0, b"a" * (3 * BLOCK_SIZE))  # reserves block 3
        server.create()  # takes the fragments after block 3
        server.write(name, 5 * BLOCK_SIZE, b"b" * (2 * BLOCK_SIZE))
        addresses = [
            server.block_descriptor(name, index).address for index in (0, 2, 5, 6)
        ]
        assert addresses[1] == addresses[0] + 2 * FRAGMENTS_PER_BLOCK
        assert addresses[2] != addresses[1] + 2 * FRAGMENTS_PER_BLOCK
        puts = recorded_puts(server)
        server.close(name)
        # Blocks 5-6, then the FIT with blocks 0-2: block 3 went to disk,
        # zeroed, when EOF passed it.
        assert puts == [
            (Extent.for_block_run(addresses[2], 2), Stability.ORIGINAL_ONLY),
            (with_fit(name, 3), Stability.HEAD_BOTH),
        ]


def data_disk_writes(server):
    """The trace of every write to ``server``'s data disk from now on."""
    return CrashPointMonitor().attach(server.disk.disk).trace


class TestFlushWritesBackRuns:
    @pytest.fixture(params=["bare", "cluster"])
    def any_server(self, request):
        if request.param == "bare":
            yield build_file_server(SimClock(), Metrics())
            return
        yield RhodosCluster(ClusterConfig()).file_servers[0]

    def test_three_adjacent_dirty_blocks_and_one_apart_make_two_puts(
        self, any_server
    ):
        server = any_server
        name = server.create()
        server.write(name, 0, b"a" * (3 * BLOCK_SIZE))  # reserves block 3
        server.create()  # takes the fragments after block 3
        server.write(name, 5 * BLOCK_SIZE, b"b" * BLOCK_SIZE)
        apart = server.block_descriptor(name, 5).address
        # The FIT was never stored: it goes with blocks 0-2.
        runs = [with_fit(name, 3), Extent.for_block_run(apart, 1)]
        writes = data_disk_writes(server)
        server.flush()
        assert sorted(
            (w.start, w.n_sectors)
            for w in writes
            for run in runs
            if w.start < run.first_sector + run.n_sectors
            and run.first_sector < w.start + w.n_sectors
        ) == sorted(
            (run.first_sector, run.n_sectors) for run in runs
        )
        assert server.read(name, 0, 6 * BLOCK_SIZE) == (
            b"a" * (3 * BLOCK_SIZE) + bytes(2 * BLOCK_SIZE) + b"b" * BLOCK_SIZE
        )

    def test_a_fit_that_moved_in_timestamps_only_goes_with_its_run(self, server):
        """A write into block 0 of a closed file leaves its FIT dirty in
        timestamps only; the flush stores it in the put of block 0, one
        data reference, as a close does a FIT whose structure moved."""
        name = server.create()
        server.write(name, 0, b"a" * (2 * BLOCK_SIZE))
        server.close(name)
        server.write(name, 0, b"b" * 1024)
        writes = data_disk_writes(server)
        server.flush()
        assert [(w.start, w.n_sectors) for w in writes] == [
            (with_fit(name, 1).first_sector, with_fit(name, 1).n_sectors)
        ]
        assert server.read(name, 0, 1024) == b"b" * 1024

    def test_a_flush_fires_no_one_elses_event(self):
        cluster = RhodosCluster(ClusterConfig())
        server = cluster.file_servers[0]
        name = server.create()
        server.write(name, 0, b"e" * (2 * BLOCK_SIZE))
        fired = []
        cluster.loop.call_at(cluster.clock.now_us + 1, lambda: fired.append(1))
        server.flush()
        assert fired == []


class TestCloseStoresTheFitOnlyWhenStructureMoved:
    def test_an_overwrite_in_place_stores_nothing_but_its_blocks(self, server):
        name = server.create()
        server.write(name, 0, b"o" * (2 * BLOCK_SIZE))
        server.close(name)
        server.open(name)
        server.write(name, 10, b"n" * 10)
        stores = fit_stores(server)
        server.close(name)
        assert fit_stores(server) == stores
        assert server.load_fit(name).attributes.ref_count == 0

    def test_a_size_that_moved_is_stored_after_the_blocks(self, server):
        name = server.create()
        server.write(name, 0, b"o" * (2 * BLOCK_SIZE))  # reserves block 2
        server.close(name)
        stores = fit_stores(server)
        server.write(name, 2 * BLOCK_SIZE, b"g" * 10)  # no allocation
        assert fit_stores(server) == stores
        server.close(name)
        assert fit_stores(server) == stores + 1
        server.crash()
        server.disk.disk.repair()
        server.recover()
        assert server.get_attribute(name).file_size == 2 * BLOCK_SIZE + 10
        assert server.read(name, 2 * BLOCK_SIZE, 20) == b"g" * 10


class TestOneHundredKilobyteCreate:
    def test_create_write_close_costs_one_reference_and_one_fit_store(self):
        """On a warm one-disk cluster: nothing at create or write; at
        close the FIT and the data in one reference, then the FIT's
        stable copy (the free-space tail record before it)."""
        cluster = RhodosCluster(ClusterConfig())
        agent, metrics = cluster.machine.file_agent, cluster.metrics
        warm = agent.create(AttributedName.file("/warm"))
        agent.write(warm, b"w" * 5000)
        agent.close(warm)

        def ledger():
            return (
                metrics.get("disk.0.references"),
                metrics.get("disk.0.stable_a.references")
                + metrics.get("disk.0.stable_b.references"),
                metrics.get("file_server.0.fit_stores"),
                cluster.clock.now_us,
            )

        before = ledger()
        descriptor = agent.create(AttributedName.file("/f"))
        agent.write(descriptor, bytes(range(256)) * 400)
        agent.close(descriptor)
        data, stable, stores, elapsed_us = (
            after - was for after, was in zip(ledger(), before)
        )
        # Block by block this was 19 / 18 / 5 and 413 ms; with the FIT
        # stored at create and again at the write, 3 / 8 / 2 and 103 ms;
        # with the free-space tail record before the data, 1 / 4 / 1 and
        # 65.3 ms; now, the record beside the data, 1 / 4 / 1 and 44.2 ms
        # (the FIT's stable copy lands where the slots the root
        # directory's FIT took at bootstrap put it).
        assert data == 1
        assert stable <= 4
        assert stores == 1
        assert elapsed_us < 45_000


class _RecordingTimeline(Timeline):
    __slots__ = ("spans",)

    def charge_ceiled(self, busy):
        span = super().charge_ceiled(busy)
        self.spans.append(span)
        return span


def reference_spans(disk):
    """``(start, end)`` of every reference ``disk`` serves from now on."""
    recording = _RecordingTimeline(disk.clock)
    recording.busy_until_us = disk.timeline.busy_until_us
    recording.busy_total_us = disk.timeline.busy_total_us
    recording.spans = []
    disk.timeline = recording
    return recording.spans


def spans_of(server):
    """The reference spans of the data drive and both stable mirrors."""
    stable = server.disk.stable
    return tuple(
        reference_spans(disk)
        for disk in (server.disk.disk, stable.mirror_a, stable.mirror_b)
    )


def settled_server():
    """A server whose free space has a base: a settle is one tail record."""
    server = build_file_server(SimClock(), Metrics())
    warm = server.create()
    server.write(warm, 0, b"w" * 5000)
    server.close(warm)
    return server


class TestTheSettleGoesBesideTheData:
    def test_the_settle_starts_with_the_data_and_the_stable_copy_follows(self):
        server = settled_server()
        name = server.create()
        server.write(name, 0, bytes(range(256)) * 400)
        data, mirror_a, mirror_b = spans_of(server)
        started = server.clock.now_us
        server.close(name)
        # One data reference (the FIT and its blocks); on each mirror the
        # tail record, then the FIT's stable copy.
        assert len(data) == 1 and len(mirror_a) == len(mirror_b) == 2
        (written,), (settle_a, fit_a), (settle_b, fit_b) = data, mirror_a, mirror_b
        assert written[0] == settle_a[0] == started
        assert fit_a[0] >= max(written[1], settle_b[1])
        assert fit_a[1] <= fit_b[0]
        assert server.clock.now_us == fit_b[1]

    def test_a_delete_writes_one_sector(self):
        """On each mirror, A then B; nothing on the data drive."""
        server = settled_server()
        name = server.create()
        server.write(name, 0, b"d" * BLOCK_SIZE)
        server.close(name)
        stable = server.disk.stable
        monitor = CrashPointMonitor().attach(
            server.disk.disk, stable.mirror_a, stable.mirror_b
        )
        data, mirror_a, mirror_b = spans_of(server)
        started = server.clock.now_us
        server.delete(name)
        # The FIT's stable tombstone, on A and then on B; nothing else.
        assert [
            (entry.disk_id, entry.n_sectors) for entry in monitor.write_entries()
        ] == [(stable.mirror_a.disk_id, 1), (stable.mirror_b.disk_id, 1)]
        (tombstone_a,), (tombstone_b,) = mirror_a, mirror_b
        assert data == [] and tombstone_a[0] == started
        assert tombstone_a[1] <= tombstone_b[0]
        assert server.clock.now_us == tombstone_b[1]

    @pytest.mark.parametrize("rebuilt", [False, True])
    def test_a_file_deleted_after_a_flush_stays_deleted_across_a_crash(
        self, rebuilt
    ):
        """The protection checkpoint still lists the FIT's fragment as
        mirrored and its main copy still holds the FIT: the stable
        tombstone alone keeps the file deleted, whether recovery keeps
        the stable directory or rebuilds it from the mirrors."""
        server = settled_server()
        name = server.create()
        server.write(name, 0, b"d" * BLOCK_SIZE)
        server.close(name)
        server.flush()
        server.delete(name)
        stable = server.disk.stable
        _, mirrored = _decode_protection(stable.get(PROTECTION_KEY))
        assert (name.fit_address, 1) in mirrored
        fit_sector = Extent(name.fit_address, 1).first_sector
        assert server.disk.disk.read_sectors(fit_sector, 1).startswith(FIT_MAGIC)
        server.crash()
        for disk in (server.disk.disk, stable.mirror_a, stable.mirror_b):
            disk.repair()
        if rebuilt:
            stable.rebuild_directory()
            stable.recover()
        server.recover()
        assert not server.exists(name)

    def test_a_tree_dirty_store_settles_before_its_first_tree_block_put(self):
        server = settled_server()
        name = server.create()
        server.write(name, 0, b"t" * (70 * BLOCK_SIZE))  # past the direct area
        puts = recorded_puts(server)
        data, mirror_a, mirror_b = spans_of(server)
        server.close(name)
        runs = next(
            index
            for index, (_, stability) in enumerate(puts)
            if stability is not Stability.ORIGINAL_ONLY
        )
        assert runs > 0 and puts[runs][1] is Stability.BOTH
        # The settle is each mirror's first reference: it starts with the
        # first run and ends before the first tree block's main copy.
        assert data[0][0] == mirror_a[0][0]
        assert data[runs][0] >= mirror_b[0][1]

    def test_a_flush_of_several_fits_costs_less_than_storing_them_in_turn(self):
        server = settled_server()
        names = [server.create() for _ in range(4)]
        for name in names:
            server.write(name, 0, b"f" * 100)
            server.close(name)
        server.flush()
        for name in names:
            server.open(name)  # the FIT moved: its open count
        spans = spans_of(server)
        stores, started = fit_stores(server), server.clock.now_us
        server.flush()
        elapsed = server.clock.now_us - started
        assert fit_stores(server) == stores + 4
        # In turn, the flush would cost the sum of its references.
        assert elapsed < sum(end - start for disk in spans for start, end in disk)
