"""Fault-injection integration: idempotency and replication under failures."""

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.naming.attributed import AttributedName
from repro.rpc.bus import FaultProfile
from repro.simdisk.geometry import DiskGeometry


def checksum_state(cluster, name, size):
    agent = cluster.machine.file_agent
    descriptor = agent.open(name)
    data = agent.read(descriptor, size)
    agent.close(descriptor)
    return data


class TestIdempotencyUnderMessageFaults:
    """E12: 'repetition in RHODOS does not produce any uncertain effect'."""

    def run_workload(self, profile, seed=0):
        cluster = RhodosCluster(
            ClusterConfig(
                fault_profile=profile,
                seed=seed,
                geometry=DiskGeometry.small(),
                client_cache_blocks=0,  # every op really goes to the wire
            )
        )
        agent = cluster.machine.file_agent
        name = AttributedName.file("/target")
        descriptor = agent.create(name)
        for index in range(20):
            agent.pwrite(descriptor, bytes([index]) * 97, index * 131)
        agent.close(descriptor)
        descriptor = agent.open(name)
        data = agent.read(descriptor, 20 * 131 + 97)
        agent.close(descriptor)
        return data, cluster

    def test_final_state_identical_with_and_without_faults(self):
        clean, _ = self.run_workload(FaultProfile.reliable())
        for seed in range(3):
            faulty, cluster = self.run_workload(
                FaultProfile(
                    request_loss=0.15, reply_loss=0.15, duplication=0.15
                ),
                seed=seed,
            )
            assert faulty == clean
            assert cluster.metrics.get("rpc.retransmissions") > 0

    def test_duplicated_executions_really_happened(self):
        _, cluster = self.run_workload(FaultProfile(duplication=0.3), seed=1)
        assert cluster.metrics.get("rpc.duplicated_executions") > 0


class TestReplicationUnderVolumeCrash:
    def test_service_continues_through_rolling_crashes(self):
        cluster = RhodosCluster(
            ClusterConfig(n_disks=3, geometry=DiskGeometry.small())
        )
        name = AttributedName.file("/replicated")
        cluster.replication.create(name, degree=3)
        cluster.replication.write(name, 0, b"generation-0")
        for generation in range(1, 3):
            crashed = generation % 3
            cluster.disks[crashed].crash()
            payload = f"generation-{generation}".encode()
            cluster.replication.write(name, 0, payload)
            assert cluster.replication.read(name, 0, len(payload)) == payload
            cluster.disks[crashed].repair()
            cluster.file_servers[crashed].recover()
            cluster.replication.resync(name)
        assert cluster.replication.live_replicas(name) == 3


class TestBadSectors:
    def test_stable_storage_survives_bad_sectors_on_one_mirror(self):
        cluster = RhodosCluster(ClusterConfig(geometry=DiskGeometry.small()))
        agent = cluster.machine.file_agent
        name = AttributedName.file("/vital")
        descriptor = agent.create(name)
        agent.write(descriptor, b"vital structural info")
        agent.close(descriptor)
        cluster.flush_all()
        stable = cluster.disk_servers[0].stable
        # Corrupt the first 64 sectors of mirror A.
        for sector in range(64):
            stable.mirror_a.faults.mark_bad(sector)
        # Reads fall back to mirror B transparently.
        system_name = cluster.naming.resolve_path("/vital")
        fit_key = f"ext:{system_name.fit_address}:1"
        assert stable.get(fit_key) is not None
