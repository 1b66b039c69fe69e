"""A partial write reads nothing it overwrites (DESIGN.md §3).

A fragment-aligned write into a block that is mapped below EOF and not
in the server's block pool keeps only its own fragments there, dirty and
*partially known*; nothing is read.  Its write-back moves only those
fragments, joined with an adjacent block into one put where they touch
it; a later read of the rest fetches the block once and lays the newer
bytes over it (a merge read).  Everything else — write-through,
transaction files, holes, writes past EOF, unaligned writes — merges
into a fetched block as before.
"""

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.common.clock import SimClock
from repro.common.metrics import Metrics
from repro.common.units import BLOCK_SIZE, KIB, SECTORS_PER_FRAGMENT
from repro.disk_service.addresses import Extent
from repro.disk_service.server import Stability
from repro.file_service.attributes import ServiceType
from repro.file_service.cache import BufferPool, WritePolicy
from repro.naming.attributed import AttributedName
from repro.simdisk.geometry import DiskGeometry
from tests.conftest import build_file_server

POOL = "file_server.0.block_pool"


def pattern(n: int, seed: int = 1) -> bytes:
    return bytes((seed * 31 + i * 7) % 251 for i in range(n))


class Calls:
    """Records the data gets and puts a file server makes."""

    def __init__(self, server):
        self.gets, self.puts = [], []
        disk = server.disk
        get, put = disk.get, disk.put

        def recorded_get(extent, **kwargs):
            self.gets.append(extent)
            return get(extent, **kwargs)

        def recorded_put(extent, data, **kwargs):
            self.puts.append((extent, kwargs.get("stability")))
            return put(extent, data, **kwargs)

        disk.get, disk.put = recorded_get, recorded_put


def cold_file(n_blocks=3, **kwargs):
    """A flushed file of ``n_blocks`` blocks whose blocks have left the
    pool and whose FIT is cached: (server, name, its bytes, the data
    block addresses, a recorder)."""
    server = build_file_server(SimClock(), Metrics(), **kwargs)
    name = server.create()
    data = pattern(n_blocks * BLOCK_SIZE)
    server.write(name, 0, data)
    server.close(name)
    server.recover()  # cold pool (and FIT cache) ...
    server.get_attribute(name)  # ... then the FIT back in
    blocks = [
        server.block_descriptor(name, index).address for index in range(n_blocks)
    ]
    return server, name, data, blocks, Calls(server)


def merged(old: bytes, offset: int, new: bytes) -> bytes:
    return old[:offset] + new + old[offset + len(new) :]


class TestTheCostPins:
    def test_a_cold_aligned_4k_overwrite_reads_nothing(self):
        server, name, _, blocks, calls = cold_file()
        server.write(name, BLOCK_SIZE + 2 * KIB, pattern(4 * KIB, 2))
        assert calls.gets == []
        assert server._data_cache.partial(blocks[1])[1:] == (2 * KIB, 6 * KIB)

    def test_its_write_back_is_one_put_of_two_fragments(self):
        server, name, _, blocks, calls = cold_file()
        server.write(name, BLOCK_SIZE + 2 * KIB, pattern(4 * KIB, 2))
        server.flush_file(name)
        assert calls.puts == [(Extent(blocks[1] + 1, 2), None)]
        assert calls.puts[0][0].length * SECTORS_PER_FRAGMENT == 8
        assert server.metrics.get(f"{POOL}.partial_writebacks") == 1
        assert calls.gets == []

    def test_a_partial_block_and_its_dirty_neighbour_go_back_in_one_put(self):
        server, name, _, blocks, calls = cold_file()
        server.write(name, BLOCK_SIZE + 4 * KIB, pattern(4 * KIB, 2))
        server.write(name, 2 * BLOCK_SIZE, pattern(BLOCK_SIZE, 3))
        server.flush_file(name)
        assert calls.puts == [(Extent(blocks[1] + 2, 2 + 4), None)]
        assert blocks[2] == blocks[1] + 4

    def test_fragments_that_do_not_touch_the_neighbour_go_back_apart(self):
        server, name, _, blocks, calls = cold_file()
        server.write(name, BLOCK_SIZE, pattern(4 * KIB, 2))
        server.write(name, 2 * BLOCK_SIZE, pattern(BLOCK_SIZE, 3))
        server.flush_file(name)
        assert calls.puts == [
            (Extent(blocks[1], 2), None),
            (Extent(blocks[2], 4), None),
        ]

    def test_an_unaligned_partial_write_still_makes_one_get(self):
        server, name, _, blocks, calls = cold_file()
        server.write(name, BLOCK_SIZE + 100, pattern(4 * KIB, 2))
        assert calls.gets == [Extent(blocks[1], 4)]
        assert server._data_cache.partial(blocks[1]) is None

    def test_a_read_of_the_unknown_half_makes_one_get_and_merges(self):
        server, name, data, blocks, calls = cold_file()
        new = pattern(4 * KIB, 2)
        server.write(name, BLOCK_SIZE, new)
        got = server.read(name, BLOCK_SIZE, BLOCK_SIZE)
        assert got == merged(data, BLOCK_SIZE, new)[BLOCK_SIZE : 2 * BLOCK_SIZE]
        assert calls.gets == [Extent(blocks[1], 4)]
        assert server.metrics.get(f"{POOL}.merge_reads") == 1
        # Whole and still dirty: the flush writes the whole block.
        server.flush_file(name)
        assert calls.puts == [(Extent(blocks[1], 4), None)]
        assert server.metrics.get(f"{POOL}.partial_writebacks") == 0

    def test_a_victim_written_back_ahead_of_a_fetch_moves_only_its_fragments(self):
        server, name, data, blocks, calls = cold_file(data_cache_blocks=1)
        new = pattern(4 * KIB, 2)
        server.write(name, BLOCK_SIZE + 4 * KIB, new)
        assert server._data_cache.dirty_victims(1) == [blocks[1]]
        server.read(name, 2 * BLOCK_SIZE, 10)  # evicts block 1
        assert calls.gets == [Extent(blocks[2], 4)]
        assert calls.puts == [(Extent(blocks[1] + 2, 2), None)]
        assert server.metrics.get(f"{POOL}.partial_writebacks") == 1
        assert server.metrics.get(f"{POOL}.merge_reads") == 0
        server.recover()
        expected = merged(data, BLOCK_SIZE + 4 * KIB, new)
        assert server.read(name, 0, len(data)) == expected

    def test_completing_a_partial_block_in_a_full_pool_evicts_nothing(self):
        """Its buffer is present: the fetch inserts no key, so nothing
        is a victim — least of all the oldest buffer, itself."""
        server, name, data, blocks, calls = cold_file(data_cache_blocks=2)
        server.write(name, BLOCK_SIZE, pattern(4 * KIB, 2))
        server.write(name, 2 * BLOCK_SIZE, pattern(4 * KIB, 3))
        evictions = server.metrics.get(f"{POOL}.evictions")
        server.read(name, BLOCK_SIZE, BLOCK_SIZE)
        assert calls.gets == [Extent(blocks[1], 4)]
        assert calls.puts == []
        assert server.metrics.get(f"{POOL}.evictions") == evictions
        assert set(server._data_cache.dirty_among(blocks)) == {blocks[1], blocks[2]}

    def test_two_halves_make_a_whole_block_with_no_read(self):
        server, name, data, blocks, calls = cold_file()
        first, second = pattern(4 * KIB, 2), pattern(4 * KIB, 3)
        server.write(name, BLOCK_SIZE + 4 * KIB, second)
        server.write(name, BLOCK_SIZE, first)
        assert server._data_cache.partial(blocks[1]) is None
        assert server.read(name, BLOCK_SIZE, BLOCK_SIZE) == first + second
        assert calls.gets == []

    def test_a_write_that_leaves_a_gap_reads_the_block_once(self):
        server, name, data, blocks, calls = cold_file()
        server.write(name, BLOCK_SIZE, pattern(2 * KIB, 2))
        server.write(name, BLOCK_SIZE + 6 * KIB, pattern(2 * KIB, 3))
        assert calls.gets == [Extent(blocks[1], 4)]
        expected = merged(data, BLOCK_SIZE, pattern(2 * KIB, 2))
        expected = merged(expected, BLOCK_SIZE + 6 * KIB, pattern(2 * KIB, 3))
        server.flush_file(name)
        server.recover()
        assert server.read(name, 0, len(data)) == expected


class TestTheFitSharesItsReference:
    """The rule chosen for a partially known block right after the FIT
    fragment: the FIT store completes it with one fetch, so the FIT and
    the run after it still go down in one put."""

    def test_a_partial_head_block_is_completed_at_the_fit_store(self):
        server, name, data, blocks, calls = cold_file()
        assert blocks[0] == name.fit_address + 1
        new = pattern(4 * KIB, 2)
        server.write(name, 4 * KIB, new)
        server.write(name, BLOCK_SIZE, pattern(BLOCK_SIZE, 3))
        assert calls.gets == []
        server.flush()
        assert calls.gets == [Extent(blocks[0], 4)]
        assert calls.puts == [
            (Extent(name.fit_address, 1 + 2 * 4), Stability.HEAD_BOTH)
        ]
        assert server.metrics.get(f"{POOL}.merge_reads") == 1
        server.recover()
        expected = merged(data, 4 * KIB, new)
        expected = merged(expected, BLOCK_SIZE, pattern(BLOCK_SIZE, 3))
        assert server.read(name, 0, len(data)) == expected


class TestTheUnchangedPaths:
    def test_write_through_merges_into_a_read_block(self):
        server, name, _, blocks, calls = cold_file(
            write_policy=WritePolicy.WRITE_THROUGH
        )
        server.write(name, BLOCK_SIZE, pattern(4 * KIB, 2))
        assert calls.gets == [Extent(blocks[1], 4)]
        assert calls.puts == [(Extent(blocks[1], 4), None)]

    def test_a_transaction_file_merges_into_a_read_block(self):
        server, name, _, blocks, calls = cold_file()
        server.set_service_type(name, ServiceType.TRANSACTION)
        del calls.puts[:]
        server.write(name, BLOCK_SIZE, pattern(4 * KIB, 2), delayed=True)
        assert calls.gets == [Extent(blocks[1], 4)]
        assert server._data_cache.partial(blocks[1]) is None

    def test_a_hole_and_a_block_past_eof_read_nothing_and_stay_whole(self):
        server, name, _, _, calls = cold_file(n_blocks=1)
        server.write(name, 3 * BLOCK_SIZE + 2 * KIB, pattern(2 * KIB, 2))  # hole
        server.write(name, 4 * BLOCK_SIZE + 2 * KIB, pattern(2 * KIB, 3))  # past EOF
        assert calls.gets == []
        for index in (3, 4):
            address = server.block_descriptor(name, index).address
            assert server._data_cache.partial(address) is None
            assert server._data_cache.contains(address)


class TestKnownRanges:
    """The pool's side of the four hazards."""

    def pool(self, capacity=2):
        written = []
        pool = BufferPool(
            "pool", Metrics(), capacity,
            writeback=lambda key, *data: written.append((key, *data)),
        )
        return pool, written

    @pytest.mark.parametrize("end", ["evict", "invalidate", "invalidate_all", "whole"])
    def test_a_known_range_dies_with_its_buffer(self, end):
        pool, written = self.pool(capacity=1)
        pool.put("a", b"..xx", dirty=True, known=(2, 4))
        if end == "evict":
            pool.put("b", b"bbbb")
            assert written == [("a", b"xx", 2)]
        elif end == "invalidate":
            pool.invalidate("a")
        elif end == "invalidate_all":
            pool.invalidate_all()
        if end != "whole":
            assert pool.partial("a") is None
            assert pool.dirty_victims(1) == []
        pool.put("a", b"AAAA", dirty=True)
        assert pool.partial("a") is None
        assert pool.get("a") == b"AAAA"
        pool.write_back(["a"])
        assert written[-1] == ("a", b"AAAA")

    def test_a_partially_known_buffer_is_missing_to_get_and_contains(self):
        pool, _ = self.pool()
        pool.put("a", b"..xx", dirty=True, known=(2, 4))
        assert pool.get("a") is None
        assert not pool.contains("a")
        assert pool.partial("a") == (b"..xx", 2, 4)
        assert pool.dirty_among(["a"]) == {"a": b"..xx"}

    def test_dirty_victims_counts_only_absent_keys(self):
        pool, written = self.pool(capacity=2)
        pool.put("p", b"..xx", dirty=True, known=(2, 4))
        pool.put("q", b"qqqq", dirty=True)
        # Fetching p and x inserts one absent key; p is refreshed, not evicted.
        assert pool.dirty_victims(1, ["p"]) == ["q"]
        held = pool.fill([("p", b"PPPP"), ("x", b"XXXX")])
        assert held == [b"PPxx", b"XXXX"]
        assert written == [("q", b"qqqq")]
        assert pool.dirty_among(["p", "x"]) == {"p": b"PPxx"}
        assert pool.metrics.get("pool.merge_reads") == 1

    def test_a_victim_write_back_passes_only_the_known_bytes(self):
        pool, written = self.pool(capacity=1)
        pool.put("a", b"xx..", dirty=True, known=(0, 2))
        pool.write_back(pool.dirty_victims(1))
        assert written == [("a", b"xx", 0)]
        assert pool.metrics.get("pool.partial_writebacks") == 1
        assert pool.partial("a") == (b"xx..", 0, 2)  # clean, still known


class TestOnReplicatedRaid5:
    def test_a_4k_write_reads_nothing_on_either_array(self):
        cluster = RhodosCluster(ClusterConfig(
            n_disks=3, raid_level="raid5", raid_members=4,
            replication_degree=2, geometry=DiskGeometry.small(),
        ))
        name = AttributedName.file("/replicated")
        service = cluster.replication
        replicas = service.create(name).replicas
        service.write(name, 0, pattern(4 * BLOCK_SIZE))
        cluster.flush_all()
        for server in cluster.file_servers.values():
            server._data_cache.invalidate_all()  # flushed: clean
        metrics = cluster.metrics

        def member_sectors_read():
            return [
                sum(
                    metrics.get(f"disk.{member.disk_id}.sectors_read")
                    for member in cluster.disks[replica.volume_id].members
                )
                for replica in replicas
            ]

        before = member_sectors_read()
        service.write(name, BLOCK_SIZE + 4 * KIB, pattern(4 * KIB, 2))
        assert member_sectors_read() == before
        assert len(before) == 2
        cluster.flush_all()
        expected = merged(
            pattern(4 * BLOCK_SIZE), BLOCK_SIZE + 4 * KIB, pattern(4 * KIB, 2)
        )
        assert service.read(name, 0, 4 * BLOCK_SIZE) == expected
        # The write-back moved two fragments on each replica.
        for replica in replicas:
            assert metrics.get(
                f"file_server.{replica.volume_id}.block_pool.partial_writebacks"
            ) == 1
