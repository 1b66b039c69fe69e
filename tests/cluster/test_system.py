"""The assembled cluster: wiring, shared clock, cache toggles, RPC mode."""

import gc
import weakref

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.file_service.cache import WritePolicy
from repro.naming.attributed import AttributedName
from repro.rpc.bus import FaultProfile
from repro.simdisk.geometry import DiskGeometry
from repro.simdisk.raid import ArrayState


class TestAssembly:
    def test_default_build(self):
        cluster = RhodosCluster()
        assert len(cluster.machines) == 1
        assert len(cluster.file_servers) == 1
        assert cluster.bus is None  # direct calls by default

    def test_multi_machine_multi_disk(self):
        cluster = RhodosCluster(ClusterConfig(n_machines=3, n_disks=4))
        assert len(cluster.machines) == 3
        assert len(cluster.disk_servers) == 4
        assert sorted(cluster.file_servers) == [0, 1, 2, 3]

    def test_everything_shares_one_clock(self):
        cluster = RhodosCluster(ClusterConfig(n_disks=2, n_machines=2))
        assert cluster.disks[0].clock is cluster.clock
        assert cluster.machines[1].file_agent.clock is cluster.clock
        assert cluster.coordinator.clock is cluster.clock

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_machines=0)
        with pytest.raises(ValueError):
            ClusterConfig(n_disks=0)

    def test_no_disk_server_has_a_request_pipeline(self):
        # The cluster's traffic is blocking: only explicit submitters
        # build a pipeline, each over a bare DiskServer of its own.
        cluster = RhodosCluster(ClusterConfig(n_disks=2))
        agent = cluster.machine.file_agent
        descriptor = agent.create(AttributedName.file("/blocking"))
        agent.write(descriptor, b"b" * 20_000)
        agent.close(descriptor)
        cluster.flush_all()
        assert all(
            server.pipeline is None for server in cluster.disk_servers.values()
        )
        assert cluster.metrics.histogram_samples("disk_service.queue_wait_us") == []


class TestEndToEnd:
    def test_file_io_through_a_machine(self):
        cluster = RhodosCluster()
        agent = cluster.machine.file_agent
        descriptor = agent.create(AttributedName.file("/hello"))
        agent.write(descriptor, b"hello rhodos")
        agent.lseek(descriptor, 0)
        assert agent.read(descriptor, 64) == b"hello rhodos"
        agent.close(descriptor)

    def test_machines_share_files_through_naming(self):
        cluster = RhodosCluster(ClusterConfig(n_machines=2))
        writer = cluster.machines[0].file_agent
        reader = cluster.machines[1].file_agent
        descriptor = writer.create(AttributedName.file("/shared"))
        writer.write(descriptor, b"from m0")
        writer.close(descriptor)
        other = reader.open(AttributedName.file("/shared"))
        assert reader.read(other, 7) == b"from m0"

    def test_files_spread_across_volumes(self):
        cluster = RhodosCluster(ClusterConfig(n_disks=3))
        agent = cluster.machine.file_agent
        for volume in range(3):
            descriptor = agent.create(
                AttributedName.file(f"/v{volume}", volume=str(volume))
            )
            agent.write(descriptor, b"x")
            assert agent.system_name(descriptor).volume_id == volume
            agent.close(descriptor)

    def test_crash_and_recover_volume(self):
        cluster = RhodosCluster()
        agent = cluster.machine.file_agent
        descriptor = agent.create(AttributedName.file("/durable"))
        agent.write(descriptor, b"checkpointed")
        agent.close(descriptor)
        cluster.flush_all()
        cluster.crash_volume(0)
        cluster.recover_volume(0)
        descriptor = agent.open(AttributedName.file("/durable"))
        assert agent.read(descriptor, 12) == b"checkpointed"


class TestConfigurations:
    def test_bullet_style_disables_client_cache(self):
        config = ClusterConfig.bullet_style()
        assert config.client_cache_blocks == 0
        cluster = RhodosCluster(config)
        assert cluster.machine.file_agent.cache_blocks == 0

    def test_uncached_disables_every_level(self):
        config = ClusterConfig.uncached()
        cluster = RhodosCluster(config)
        assert cluster.machine.file_agent.cache_blocks == 0
        assert cluster.disk_servers[0].cache is None

    def test_write_policy_propagates(self):
        cluster = RhodosCluster(
            ClusterConfig(write_policy=WritePolicy.WRITE_THROUGH)
        )
        assert cluster.file_servers[0].write_policy is WritePolicy.WRITE_THROUGH

    def test_total_disk_references_counts_data_disks_only(self):
        cluster = RhodosCluster()
        agent = cluster.machine.file_agent
        descriptor = agent.create(AttributedName.file("/a"))
        agent.write(descriptor, b"x")
        agent.close(descriptor)
        assert cluster.total_disk_references() > 0
        assert cluster.total_disk_references() < cluster.metrics.total("disk.")


class TestLifecycle:
    def test_fail_and_restart_volume_round_trip(self):
        cluster = RhodosCluster(ClusterConfig(n_disks=2, replication_degree=2))
        replicated = AttributedName.file("/repl")
        cluster.replication.create(replicated)
        cluster.replication.write(replicated, 0, b"v1")
        cluster.fail_volume(0)
        # The dead volume fails over; the write lands on the survivor
        # and marks volume 0 stale.
        cluster.replication.write(replicated, 0, b"v2")
        assert cluster.replication.live_replicas(replicated) == 1
        cluster.restart_volume(0)
        # restart fires the recovery event: resync runs automatically.
        assert cluster.replication.live_replicas(replicated) == 2
        assert cluster.metrics.get("cluster.volume_failures") == 1
        assert cluster.metrics.get("cluster.volume_restarts") == 1
        assert cluster.metrics.get("replication.resyncs_verified") == 1

    def test_fail_volume_invalidates_client_caches(self):
        cluster = RhodosCluster()
        agent = cluster.machine.file_agent
        descriptor = agent.create(AttributedName.file("/cached"))
        agent.write(descriptor, b"hot block")
        agent.flush()
        agent.pread(descriptor, 9, 0)  # block now cached client-side
        cluster.fail_volume(0)
        assert cluster.metrics.get("file_agent.m0.cache.invalidations") >= 1

    def test_fail_volume_downs_the_bus_endpoint(self):
        cluster = RhodosCluster(
            ClusterConfig(fault_profile=FaultProfile(latency_us=100))
        )
        cluster.fail_volume(0)
        assert cluster.bus is not None
        arrived, _ = cluster.bus.transmit("file_server.0", "exists", ((), {}))
        assert not arrived
        cluster.restart_volume(0)


class TestRaidRebuild:
    def test_pumped_from_concurrent_ops_the_rebuild_completes(self):
        """Four clients pump step_rebuilds() from inside their ops.  With
        no foreground gate every pump builds until the array is whole,
        and the rebuilt member then serves degraded reads byte-exactly."""
        cluster = RhodosCluster(
            ClusterConfig.uncached(
                n_machines=4,
                geometry=DiskGeometry.small(),
                raid_level="raid5",
                raid_members=4,
                replication_degree=1,
            )
        )
        names = [AttributedName.file(f"/c{client}") for client in range(4)]
        agents = [machine.file_agent for machine in cluster.machines]
        descriptors = [agent.create(name) for agent, name in zip(agents, names)]
        expected = [bytearray() for _ in names]
        built = []
        for client, (agent, descriptor) in enumerate(zip(agents, descriptors)):
            data = bytes([200 + client]) * 48_000  # on disk before the loss
            agent.write(descriptor, data)
            expected[client] += data
        cluster.fail_member(0, 1)
        cluster.replace_member(0, 1)

        def op(cluster, client, op_index):
            data = bytes([16 * client + op_index % 16 + 1]) * 3_000
            agents[client].write(descriptors[client], data)
            expected[client] += data
            built.append(cluster.step_rebuilds())

        cluster.run_concurrent(op, n_clients=4, ops_per_client=40)
        chunks = cluster.arrays[0].member_chunks - 2  # less the metadata
        assert chunks == 2_046
        assert sum(built) == chunks
        assert [count > 0 for count in built] == [True] * 64 + [False] * 96
        assert cluster.metrics.get("raid.0.rebuild.chunks") == chunks
        assert cluster.arrays[0].state is ArrayState.OPTIMAL
        assert not cluster.rebuilders
        for agent, descriptor in zip(agents, descriptors):
            agent.close(descriptor)
        cluster.fail_member(0, 2)  # reads now reconstruct through member 1
        for agent, name, content in zip(agents, names, expected):
            descriptor = agent.open(name)
            assert agent.read(descriptor, len(content) + 1) == bytes(content)
            agent.close(descriptor)


class TestRpcMode:
    def test_cluster_over_message_bus(self):
        cluster = RhodosCluster(
            ClusterConfig(fault_profile=FaultProfile(latency_us=200))
        )
        assert cluster.bus is not None
        agent = cluster.machine.file_agent
        descriptor = agent.create(AttributedName.file("/over-rpc"))
        agent.write(descriptor, b"via the bus")
        agent.close(descriptor)
        descriptor = agent.open(AttributedName.file("/over-rpc"))
        assert agent.read(descriptor, 11) == b"via the bus"
        assert cluster.metrics.get("rpc.messages") > 0

    def test_faulty_bus_still_converges(self):
        """Idempotent operations under loss + duplication: the E12 core."""
        cluster = RhodosCluster(
            ClusterConfig(
                fault_profile=FaultProfile(
                    request_loss=0.1, reply_loss=0.1, duplication=0.1
                ),
                seed=3,
            )
        )
        agent = cluster.machine.file_agent
        descriptor = agent.create(AttributedName.file("/lossy"))
        payload = bytes(range(256)) * 40
        agent.write(descriptor, payload)
        agent.close(descriptor)
        descriptor = agent.open(AttributedName.file("/lossy"))
        assert agent.read(descriptor, len(payload)) == payload
        assert cluster.metrics.get("rpc.retransmissions") > 0


class TestLifetime:
    """A dropped cluster is freed by reference counting, not by the cycle
    collector: ownership runs top-down and every way back (flush hooks,
    listeners, write-back, peer links) is weak.  A campaign that builds
    clusters in a loop otherwise carries each one's sector store until
    the collector's next full pass."""

    CONFIGS = {
        "default": dict(),
        "pipelined_over_the_bus": dict(
            n_disks=2, n_machines=2, fault_profile=FaultProfile.reliable()
        ),
        "sharded": dict(n_disks=2, n_shards=4, fault_profile=FaultProfile.reliable()),
        "replicated_raid5": dict(
            n_disks=3, raid_level="raid5", raid_members=4, replication_degree=2
        ),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_dropped_cluster_leaves_no_cyclic_garbage(self, name):
        gc.collect()
        gc.disable()
        try:
            cluster = RhodosCluster(
                ClusterConfig(geometry=DiskGeometry.small(), **self.CONFIGS[name])
            )
            agent = cluster.machine.file_agent
            descriptor = agent.create(AttributedName.file("/doomed"))
            agent.write(descriptor, b"x" * 20_000)
            agent.close(descriptor)
            cluster.flush_all()
            parts = [cluster, cluster.metrics, cluster.naming, cluster.shards[0]]
            parts += cluster.disks + list(cluster.disk_servers.values())
            parts += list(cluster.file_servers.values())
            watched = [weakref.ref(part) for part in parts]
            del cluster, agent, parts
            assert [ref() for ref in watched if ref() is not None] == []
        finally:
            gc.enable()

    def test_dropped_disk_loses_no_accounting(self):
        """The registry holds a disk's flush hook weakly; what the disk
        had charged but not yet drained is drained as it goes."""
        from repro.common.clock import SimClock
        from repro.common.metrics import Metrics
        from repro.simdisk.disk import SimDisk

        metrics = Metrics()
        disk = SimDisk("t", DiskGeometry.small(), SimClock(), metrics)
        disk.write_sectors(0, bytes(512))
        disk.read_sectors(0, 1)
        del disk
        assert metrics.get("disk.t.references") == 2
        assert len(metrics.histogram_samples("disk.t.service_us")) == 2
