"""What a close costs: one put per contiguous run of dirty blocks, and
a FIT store only when the file's structure moved since the last one.
A flush writes the whole block pool back the same way, pipeline or not.

A commit's cleanup goes through the same ``flush_file``: its one put
per run is pinned in ``tests/transactions/test_commit_cost.py``
(``TestWhatACommitWrites``).
"""

import pytest

from repro.chaos.trace import CrashPointMonitor
from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.common.clock import SimClock
from repro.common.metrics import Metrics
from repro.common.units import BLOCK_SIZE, FRAGMENTS_PER_BLOCK
from repro.disk_service.addresses import Extent
from repro.naming.attributed import AttributedName
from tests.conftest import build_file_server


@pytest.fixture
def server():
    return build_file_server(SimClock(), Metrics())


def data_puts(server):
    """Record the extent of every ORIGINAL_ONLY put: data blocks."""
    puts = []
    put = server.disk.put

    def recorded(extent, data, **kwargs):
        if not kwargs:
            puts.append(extent)
        put(extent, data, **kwargs)

    server.disk.put = recorded
    return puts


def fit_stores(server):
    return server.metrics.get("file_server.0.fit_stores")


class TestOnePutPerRun:
    def test_adjacent_dirty_blocks_go_back_in_one_put(self, server):
        name = server.create()
        server.write(name, 0, b"r" * (5 * BLOCK_SIZE + 7))
        puts = data_puts(server)
        server.close(name)
        first = server.block_descriptor(name, 0).address
        assert puts == [Extent.for_block_run(first, 6)]

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
        puts = data_puts(server)
        server.close(name)
        # Blocks 0-2 and 5-6: block 3 went to disk, zeroed, when EOF
        # passed it.
        assert sorted(puts) == sorted(
            [
                Extent.for_block_run(addresses[0], 3),
                Extent.for_block_run(addresses[2], 2),
            ]
        )


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
        first, apart = (
            server.block_descriptor(name, index).address for index in (0, 5)
        )
        runs = [Extent.for_block_run(first, 3), Extent.for_block_run(apart, 1)]
        blocks = {
            Extent.for_block_run(run.start + index * FRAGMENTS_PER_BLOCK, 1)
            .first_sector
            for run in runs
            for index in range(run.whole_blocks)
        }
        writes = data_disk_writes(server)
        server.flush()
        assert sorted(
            (w.start, w.n_sectors) for w in writes if w.start in blocks
        ) == sorted(
            (run.first_sector, run.n_sectors) for run in runs
        )
        assert server.read(name, 0, 6 * BLOCK_SIZE) == (
            b"a" * (3 * BLOCK_SIZE) + bytes(2 * BLOCK_SIZE) + b"b" * BLOCK_SIZE
        )

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
    def test_create_write_close_costs_one_run_and_two_fit_stores(self):
        """On a warm one-disk cluster: the FIT at create, the FIT once at
        the write that maps the file, the data in one reference at close."""
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
        # Block by block this was 19 / 18 / 5 and 413 ms.
        assert data <= 3
        assert stable <= 8
        assert stores == 2
        assert elapsed_us < 225_000
