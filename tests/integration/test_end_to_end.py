"""End-to-end flows across every layer of the facility."""

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.naming.attributed import AttributedName
from repro.simdisk.geometry import DiskGeometry


@pytest.fixture
def cluster():
    return RhodosCluster(ClusterConfig(n_machines=2, n_disks=2))


class TestBasicFileLifecycle:
    def test_create_write_reopen_read_delete(self, cluster):
        agent = cluster.machine.file_agent
        name = AttributedName.file("/project/report.txt", owner="raj")
        descriptor = agent.create(name)
        agent.write(descriptor, b"chapter one\n")
        agent.write(descriptor, b"chapter two\n")
        agent.close(descriptor)

        descriptor = agent.open(AttributedName.file(owner="raj"))
        assert agent.read(descriptor, 100) == b"chapter one\nchapter two\n"
        agent.close(descriptor)
        agent.delete(name)
        from repro.common.errors import NameNotFoundError

        with pytest.raises(NameNotFoundError):
            agent.open(name)

    def test_cross_machine_visibility_after_close(self, cluster):
        """Close flushes the writer's delayed writes, so a reader on
        another machine sees them (session semantics)."""
        writer = cluster.machines[0].file_agent
        reader = cluster.machines[1].file_agent
        name = AttributedName.file("/shared/doc")
        descriptor = writer.create(name)
        writer.write(descriptor, b"v1 content")
        writer.close(descriptor)
        other = reader.open(name)
        assert reader.read(other, 10) == b"v1 content"
        reader.close(other)

    def test_mixed_transaction_and_basic_usage(self, cluster):
        """A file written transactionally is readable as a basic file
        afterwards — 'at any moment a file can be used either as a basic
        file or as a transaction file' (section 2.2)."""
        host = cluster.machine.transactions
        agent = cluster.machine.file_agent
        name = AttributedName.file("/ledger")
        tid = host.tbegin()
        descriptor = host.tcreate(tid, name)
        host.twrite(tid, descriptor, b"committed ledger")
        host.tend(tid)
        basic = agent.open(name)
        assert agent.read(basic, 16) == b"committed ledger"
        agent.close(basic)


class TestFullStackDurability:
    def test_everything_survives_crash_recover(self, cluster):
        agent = cluster.machine.file_agent
        host = cluster.machine.transactions
        basic_name = AttributedName.file("/basic")
        txn_name = AttributedName.file("/transactional")

        descriptor = agent.create(basic_name)
        agent.write(descriptor, b"basic data")
        agent.close(descriptor)

        tid = host.tbegin()
        descriptor = host.tcreate(tid, txn_name)
        host.twrite(tid, descriptor, b"txn data")
        host.tend(tid)

        cluster.flush_all()
        cluster.fail_volume(0)
        cluster.restart_volume(0)

        descriptor = agent.open(basic_name)
        assert agent.read(descriptor, 10) == b"basic data"
        agent.close(descriptor)
        descriptor = agent.open(txn_name)
        assert agent.read(descriptor, 8) == b"txn data"
        agent.close(descriptor)

    def test_naming_database_stored_in_a_rhodos_file(self, cluster):
        """The naming service's own database round-trips through the
        facility it names."""
        agent = cluster.machine.file_agent
        for index in range(5):
            descriptor = agent.create(AttributedName.file(f"/f{index}"))
            agent.write(descriptor, bytes([index]))
            agent.close(descriptor)
        blob = cluster.naming.to_bytes()
        meta = agent.create(AttributedName.file("/etc/naming.db"))
        agent.write(meta, blob)
        agent.close(meta)

        meta = agent.open(AttributedName.file("/etc/naming.db"))
        restored_blob = agent.read(meta, 10**6)
        from repro.naming.service import NamingService

        restored = NamingService.from_bytes(restored_blob)
        assert restored.resolve_path("/f3") == cluster.naming.resolve_path("/f3")


class TestManyFilesManyMachines:
    def test_interleaved_writers_on_distinct_files(self, cluster):
        agents = [machine.file_agent for machine in cluster.machines]
        descriptors = []
        for index, agent in enumerate(agents):
            descriptor = agent.create(AttributedName.file(f"/m{index}/file"))
            descriptors.append((agent, descriptor, index))
        for round_number in range(5):
            for agent, descriptor, index in descriptors:
                agent.write(descriptor, bytes([index]) * 100)
        for agent, descriptor, index in descriptors:
            agent.lseek(descriptor, 0)
            assert agent.read(descriptor, 500) == bytes([index]) * 500
            agent.close(descriptor)

    def test_hundred_small_files(self, cluster):
        agent = cluster.machine.file_agent
        for index in range(100):
            descriptor = agent.create(AttributedName.file(f"/many/{index}"))
            agent.write(descriptor, f"file {index}".encode())
            agent.close(descriptor)
        for index in (0, 42, 99):
            descriptor = agent.open(AttributedName.file(f"/many/{index}"))
            assert agent.read(descriptor, 32) == f"file {index}".encode()
            agent.close(descriptor)
        assert len(cluster.naming.list_directory("/many")) == 100
