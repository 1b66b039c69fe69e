"""The file agent: descriptors, positions, client caching, delayed write."""

import os

import pytest

from repro.agents.file_agent import FileAgent
from repro.common.clock import SimClock
from repro.cluster.system import RhodosCluster
from repro.common.errors import (
    BadDescriptorError,
    FileNotFoundError_,
    FileSizeError,
    NameExistsError,
)
from repro.common.ids import DEVICE_DESCRIPTOR_LIMIT
from repro.common.metrics import Metrics
from repro.common.units import BLOCK_SIZE
from repro.naming.attributed import AttributedName
from repro.naming.service import NamingService
from repro.verify.fsck import fsck_volume
from tests.conftest import build_direct_router, build_file_server


def build_agent(cache_blocks=64):
    clock, metrics = SimClock(), Metrics()
    server = build_file_server(clock, metrics)
    naming = NamingService(metrics)
    agent = FileAgent(
        "m0",
        naming,
        build_direct_router({0: server}),
        clock,
        metrics,
        cache_blocks=cache_blocks,
    )
    return agent, server, metrics


class TestDescriptors:
    def test_file_descriptors_above_limit(self):
        """Paper section 3: file descriptors > 100 000."""
        agent, _, _ = build_agent()
        descriptor = agent.create(AttributedName.file("/a"))
        assert descriptor > DEVICE_DESCRIPTOR_LIMIT

    def test_unknown_descriptor_rejected(self):
        agent, _, _ = build_agent()
        with pytest.raises(BadDescriptorError):
            agent.read(123456, 1)

    def test_close_releases_descriptor(self):
        agent, _, _ = build_agent()
        descriptor = agent.create(AttributedName.file("/a"))
        agent.close(descriptor)
        with pytest.raises(BadDescriptorError):
            agent.read(descriptor, 1)

    def test_open_descriptors_listing(self):
        agent, _, _ = build_agent()
        d1 = agent.create(AttributedName.file("/a"))
        d2 = agent.create(AttributedName.file("/b"))
        assert agent.open_descriptors() == [d1, d2]


class TestPositionSemantics:
    def test_read_write_advance_position(self):
        agent, _, _ = build_agent()
        descriptor = agent.create(AttributedName.file("/a"))
        agent.write(descriptor, b"hello")
        assert agent.position(descriptor) == 5
        agent.lseek(descriptor, 0)
        assert agent.read(descriptor, 2) == b"he"
        assert agent.position(descriptor) == 2

    def test_pread_pwrite_do_not_move_position(self):
        agent, _, _ = build_agent()
        descriptor = agent.create(AttributedName.file("/a"))
        agent.write(descriptor, b"0123456789")
        agent.lseek(descriptor, 4)
        assert agent.pread(descriptor, 3, 0) == b"012"
        assert agent.position(descriptor) == 4
        agent.pwrite(descriptor, b"XY", 8)
        assert agent.position(descriptor) == 4
        assert agent.pread(descriptor, 10, 0) == b"01234567XY"

    def test_lseek_whences(self):
        agent, _, _ = build_agent()
        descriptor = agent.create(AttributedName.file("/a"))
        agent.write(descriptor, b"0123456789")
        assert agent.lseek(descriptor, 3, os.SEEK_SET) == 3
        assert agent.lseek(descriptor, 2, os.SEEK_CUR) == 5
        assert agent.lseek(descriptor, -1, os.SEEK_END) == 9
        assert agent.read(descriptor, 1) == b"9"

    def test_negative_seek_rejected(self):
        agent, _, _ = build_agent()
        descriptor = agent.create(AttributedName.file("/a"))
        with pytest.raises(FileSizeError):
            agent.lseek(descriptor, -1, os.SEEK_SET)

    def test_independent_positions_per_descriptor(self):
        agent, _, _ = build_agent()
        d1 = agent.create(AttributedName.file("/a"))
        agent.write(d1, b"abcdef")
        agent.close(d1)
        d2 = agent.open(AttributedName.file("/a"))
        d3 = agent.open(AttributedName.file("/a"))
        assert agent.read(d2, 3) == b"abc"
        assert agent.read(d3, 2) == b"ab"  # own position


class TestClientCache:
    def test_reread_served_from_cache(self):
        agent, _, metrics = build_agent()
        descriptor = agent.create(AttributedName.file("/a"))
        agent.write(descriptor, b"x" * BLOCK_SIZE)
        agent.pread(descriptor, 100, 0)
        hits_before = metrics.get("file_agent.m0.cache.hits")
        server_reads = metrics.get("file_server.0.reads")
        agent.pread(descriptor, 100, 0)
        assert metrics.get("file_agent.m0.cache.hits") == hits_before + 1
        # A hit never leaves the client machine.
        assert metrics.get("file_server.0.reads") == server_reads

    def test_delayed_write_reaches_server_on_close(self):
        agent, server, _ = build_agent()
        descriptor = agent.create(AttributedName.file("/a"))
        agent.write(descriptor, b"deferred")
        name = agent.system_name(descriptor)
        assert server.read(name, 0, 8) == b""  # not yet written back
        agent.close(descriptor)
        assert server.read(name, 0, 8) == b"deferred"

    def test_flush_without_close(self):
        agent, server, _ = build_agent()
        descriptor = agent.create(AttributedName.file("/a"))
        agent.write(descriptor, b"flush me")
        agent.flush()
        assert server.read(agent.system_name(descriptor), 0, 8) == b"flush me"

    def test_read_your_own_delayed_writes(self):
        agent, _, _ = build_agent()
        descriptor = agent.create(AttributedName.file("/a"))
        agent.write(descriptor, b"not yet on server")
        assert agent.pread(descriptor, 17, 0) == b"not yet on server"

    def test_disjoint_writes_in_one_block_do_not_corrupt(self):
        agent, server, _ = build_agent()
        descriptor = agent.create(AttributedName.file("/a"))
        agent.close(descriptor)
        # Seed the server with known content, bypassing the agent cache.
        name = agent.naming.resolve_path("/a")
        server.write(name, 0, b"a" * 1000)
        descriptor = agent.open(AttributedName.file("/a"))
        agent.pwrite(descriptor, b"X", 10)
        agent.pwrite(descriptor, b"Y", 900)  # disjoint: forces block fetch
        agent.close(descriptor)
        content = server.read(name, 0, 1000)
        assert content[10:11] == b"X"
        assert content[900:901] == b"Y"
        assert content[11:900] == b"a" * 889  # the gap kept server data

    def test_eviction_writes_back(self):
        agent, server, _ = build_agent(cache_blocks=2)
        descriptor = agent.create(AttributedName.file("/a"))
        for block in range(4):
            agent.pwrite(descriptor, b"Z" * 10, block * BLOCK_SIZE)
        name = agent.system_name(descriptor)
        # At least the first two blocks were evicted and written back.
        assert server.read(name, 0, 10) == b"Z" * 10

    def test_invalidate_volume_drops_cached_blocks(self):
        """A crashed volume's blocks must not be served from the client
        cache — the server-side state they describe may be gone."""
        agent, _, metrics = build_agent()
        descriptor = agent.create(AttributedName.file("/a"))
        agent.write(descriptor, b"x" * BLOCK_SIZE)
        agent.flush()
        agent.pread(descriptor, 100, 0)  # cached, clean
        dropped = agent.invalidate_volume(0)
        assert dropped >= 1
        assert metrics.get("file_agent.m0.cache.invalidations") == dropped
        # Other volumes are untouched (and there is nothing left here).
        assert agent.invalidate_volume(7) == 0
        # The next read refetches from the server, not the dead cache.
        hits_before = metrics.get("file_agent.m0.cache.hits")
        assert agent.pread(descriptor, 100, 0) == b"x" * 100
        assert metrics.get("file_agent.m0.cache.hits") == hits_before

    def test_no_cache_mode_goes_straight_through(self):
        agent, server, metrics = build_agent(cache_blocks=0)
        descriptor = agent.create(AttributedName.file("/a"))
        agent.write(descriptor, b"direct")
        assert server.read(agent.system_name(descriptor), 0, 6) == b"direct"
        assert metrics.get("file_agent.m0.cache.hits") == 0


class TestCloseWritesBackRuns:
    """Close sends each run of adjacent dirty blocks as one server write;
    a run goes on only across a block boundary dirty on both sides."""

    def close_after(self, writes):
        """Pwrite ``writes``, close, check the bytes; (server writes the
        close issued, metrics)."""
        agent, server, metrics = build_agent()
        descriptor = agent.create(AttributedName.file("/a"))
        expected = bytearray()
        for offset, data in writes:
            agent.pwrite(descriptor, data, offset)
            expected.extend(bytes(max(0, offset + len(data) - len(expected))))
            expected[offset : offset + len(data)] = data
        name = agent.system_name(descriptor)
        before = metrics.get("file_server.0.writes")
        agent.close(descriptor)
        issued = metrics.get("file_server.0.writes") - before
        assert server.read(name, 0, len(expected) + 1) == bytes(expected)
        return issued, metrics

    def test_a_contiguous_range_is_one_write(self):
        issued, metrics = self.close_after([(100, b"r" * (5 * BLOCK_SIZE))])
        assert issued == 1
        assert metrics.get("file_agent.m0.cache.writebacks") == 6

    def test_a_gap_splits_the_run(self):
        issued, _ = self.close_after(
            [(0, b"a" * (2 * BLOCK_SIZE)), (3 * BLOCK_SIZE, b"b" * BLOCK_SIZE)]
        )
        assert issued == 2

    def test_a_boundary_clean_on_one_side_splits_the_run(self):
        issued, _ = self.close_after(
            [(0, b"a" * 100), (BLOCK_SIZE, b"b" * (2 * BLOCK_SIZE))]
        )
        assert issued == 2

    def test_flush_still_writes_back_block_by_block(self):
        agent, _, metrics = build_agent()
        descriptor = agent.create(AttributedName.file("/a"))
        agent.write(descriptor, b"f" * (3 * BLOCK_SIZE))
        before = metrics.get("file_server.0.writes")
        agent.flush()
        assert metrics.get("file_server.0.writes") - before == 3


class TestAttributesAndDelete:
    def test_get_attribute_sees_delayed_size(self):
        agent, _, _ = build_agent()
        descriptor = agent.create(AttributedName.file("/a"))
        agent.write(descriptor, b"123456")
        assert agent.get_attribute(descriptor).file_size == 6

    def test_delete_requires_closed(self):
        agent, _, _ = build_agent()
        descriptor = agent.create(AttributedName.file("/a"))
        with pytest.raises(BadDescriptorError):
            agent.delete(AttributedName.file("/a"))
        agent.close(descriptor)
        agent.delete(AttributedName.file("/a"))

    def test_open_unbinds_a_name_that_outlived_its_file(self):
        # Created and written, never closed: the crash leaves no file.
        agent, server, _ = build_agent()
        descriptor = agent.create(AttributedName.file("/a"))
        agent.write(descriptor, b"lost")
        server.crash()
        server.disk.disk.repair()
        server.recover()
        with pytest.raises(FileNotFoundError_):
            agent.open(AttributedName.file("/a"))
        assert AttributedName.file("/a") not in agent.naming
        agent.close(agent.create(AttributedName.file("/a")))
        assert agent.read(agent.open(AttributedName.file("/a")), 10) == b""

    def test_a_create_whose_name_is_taken_leaves_no_file(self):
        cluster = RhodosCluster()
        agent = cluster.machine.file_agent
        name = AttributedName.file("/x")
        agent.close(agent.create(name))
        with pytest.raises(NameExistsError):
            agent.create(name)
        cluster.flush_all()
        report = fsck_volume(cluster.file_servers[0])
        assert report.clean
        assert report.files_found == 2  # the root directory and /x

    def test_delete_removes_binding_and_file(self):
        agent, server, _ = build_agent()
        descriptor = agent.create(AttributedName.file("/a"))
        name = agent.system_name(descriptor)
        agent.close(descriptor)
        agent.delete(AttributedName.file("/a"))
        assert not server.exists(name)
        assert AttributedName.file("/a") not in agent.naming
