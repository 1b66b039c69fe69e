"""The assembled cluster with a sharded namespace (PR 10 tentpole)."""

import json

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.common.errors import ShardDownError
from repro.naming.attributed import AttributedName
from repro.naming.shard import ShardedNamespace, shard_component
from repro.recovery.health import HealthState
from repro.recovery.schedule import FailureSchedule, Outage
from repro.rpc.bus import FaultProfile
from repro.simdisk.geometry import DiskGeometry


def small_config(**overrides):
    merged = dict(geometry=DiskGeometry.small())
    merged.update(overrides)
    return ClusterConfig(**merged)


def populate(cluster, count=12):
    agent = cluster.machine.file_agent
    for index in range(count):
        descriptor = agent.create(AttributedName.file(f"/s/f{index}"))
        agent.write(descriptor, bytes([index]) * 64)
        agent.close(descriptor)


class TestConstruction:
    def test_default_is_one_shard_behind_the_same_facade(self):
        cluster = RhodosCluster(small_config())
        assert isinstance(cluster.naming, ShardedNamespace)
        assert len(cluster.shards) == 1
        populate(cluster, 4)
        assert cluster.shards[0].size() == len(cluster.naming)

    def test_shards_split_the_binding_space(self):
        cluster = RhodosCluster(small_config(n_shards=4))
        populate(cluster, 24)
        sizes = [cluster.shards[s].size() for s in sorted(cluster.shards)]
        assert sum(sizes) == len(cluster.naming)
        assert sum(1 for size in sizes if size > 0) > 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_shards=0)
        with pytest.raises(ValueError):
            ClusterConfig(n_shards=65)  # more shards than hash slots
        with pytest.raises(ValueError):
            ClusterConfig(shard_service_us=-1)

    def test_flat_equivalence_read_back(self):
        flat = RhodosCluster(small_config(n_shards=1, seed=7))
        sharded = RhodosCluster(small_config(n_shards=4, seed=7))
        for cluster in (flat, sharded):
            populate(cluster, 10)
        for index in range(10):
            path = f"/s/f{index}"
            agent_flat = flat.machine.file_agent
            agent_sharded = sharded.machine.file_agent
            fd_flat = agent_flat.open(AttributedName.file(path))
            fd_sharded = agent_sharded.open(AttributedName.file(path))
            assert agent_flat.read(fd_flat, 64) == agent_sharded.read(
                fd_sharded, 64
            )
            agent_flat.close(fd_flat)
            agent_sharded.close(fd_sharded)
        assert sorted(flat.naming.list_directory("/s")) == sorted(
            sharded.naming.list_directory("/s")
        )


class TestShardsOverTheBus:
    def test_metadata_rides_the_fault_profile(self):
        cluster = RhodosCluster(
            small_config(
                n_shards=3,
                fault_profile=FaultProfile(
                    request_loss=0.1, reply_loss=0.1, duplication=0.1
                ),
                client_cache_blocks=0,
            )
        )
        populate(cluster, 12)
        assert len(cluster.naming) == 13  # 12 files + the root binding
        for index in range(12):
            assert cluster.naming.resolve_path(f"/s/f{index}")
        assert cluster.metrics.get("rpc.retransmissions") > 0

    def test_faulted_run_matches_clean_run(self):
        """E12 extended to sharded metadata: the faulted run ends with
        the same binding set and the same file bytes.  (Targets are not
        compared — a retransmitted create may land on a different FIT
        slot, exactly as in the flat E12 bench.)"""

        def final_state(profile, seed):
            cluster = RhodosCluster(
                small_config(
                    n_shards=3,
                    fault_profile=profile,
                    client_cache_blocks=0,
                    seed=seed,
                )
            )
            populate(cluster, 8)
            agent = cluster.machine.file_agent
            contents = []
            for index in range(8):
                descriptor = agent.open(AttributedName.file(f"/s/f{index}"))
                contents.append(agent.read(descriptor, 64))
                agent.close(descriptor)
            return sorted(str(name) for name in cluster.naming), contents

        clean = final_state(FaultProfile.reliable(), seed=0)
        for seed in range(2):
            faulty = final_state(
                FaultProfile(request_loss=0.15, reply_loss=0.15, duplication=0.15),
                seed=seed,
            )
            assert faulty == clean


class TestFailoverLifecycle:
    def test_fail_shard_routes_reads_to_replica(self):
        cluster = RhodosCluster(small_config(n_shards=3))
        populate(cluster, 18)
        victim = max(cluster.shards, key=lambda s: cluster.shards[s].size())
        cluster.fail_shard(victim)
        for index in range(18):
            assert cluster.naming.resolve_path(f"/s/f{index}")
        assert cluster.metrics.get("cluster.shard_failures") == 1
        assert cluster.metrics.get("naming_shard.failovers") > 0

    def test_dead_shard_feeds_the_health_registry(self):
        cluster = RhodosCluster(small_config(n_shards=3))
        populate(cluster, 18)
        victim = max(cluster.shards, key=lambda s: cluster.shards[s].size())
        cluster.fail_shard(victim)
        cluster.naming.resolve_path("/s/f0")  # reads trip the detector
        for index in range(18):
            cluster.naming.resolve_path(f"/s/f{index}")
        assert (
            cluster.health.state(shard_component(victim)) is HealthState.DOWN
        )
        cluster.restart_shard(victim)
        assert cluster.health.state(shard_component(victim)) is HealthState.UP

    def test_restart_resyncs_and_serves_writes_again(self):
        cluster = RhodosCluster(small_config(n_shards=3))
        populate(cluster, 18)
        victim = max(cluster.shards, key=lambda s: cluster.shards[s].size())
        held = cluster.shards[victim].size()
        cluster.fail_shard(victim)
        cluster.restart_shard(victim)
        assert cluster.shards[victim].size() == held
        agent = cluster.machine.file_agent
        descriptor = agent.create(AttributedName.file("/after/restart"))
        agent.write(descriptor, b"back")
        agent.close(descriptor)
        assert cluster.naming.resolve_path("/after/restart")
        assert cluster.metrics.get("cluster.shard_restarts") == 1
        assert cluster.metrics.get("naming_shard.resyncs") >= 1

    def test_schedule_drives_shard_lifecycle(self):
        cluster = RhodosCluster(small_config(n_shards=3))
        populate(cluster, 6)
        victim = max(cluster.shards, key=lambda s: cluster.shards[s].size())
        schedule = FailureSchedule(
            [Outage(cluster.clock.now_us + 10, 50, ("shard", victim))],
            cluster.clock,
            metrics=cluster.metrics,
        )
        actions = schedule.run_out(cluster)
        assert len(actions) == 2
        assert not cluster.shards[victim].crashed
        for index in range(6):
            assert cluster.naming.resolve_path(f"/s/f{index}")
        assert cluster.metrics.get("recovery.shard_kills_injected") == 1


class TestRebalanceOnTheCluster:
    def test_add_shard_and_migrate(self):
        cluster = RhodosCluster(small_config(n_shards=2))
        populate(cluster, 20)
        new_id = cluster.add_shard()
        assert new_id == 2
        assert cluster.shards[new_id].size() == 0
        slots = cluster.shard_manager.begin_rebalance(new_id)
        assert slots
        while not cluster.shard_manager.rebalance_done:
            cluster.shard_manager.step_rebalance(max_bindings=5)
        cluster.shard_manager.complete_rebalance()
        assert cluster.shards[new_id].size() > 0
        for index in range(20):
            assert cluster.naming.resolve_path(f"/s/f{index}")
        agent = cluster.machine.file_agent
        descriptor = agent.create(AttributedName.file("/post/rebalance"))
        agent.write(descriptor, b"fresh")
        agent.close(descriptor)
        assert cluster.metrics.get("cluster.shards_added") == 1


class TestPlacement:
    def test_least_loaded_spreads_creates(self):
        cluster = RhodosCluster(
            small_config(n_disks=3, placement_policy="least_loaded")
        )
        agent = cluster.machine.file_agent
        volumes = set()
        for index in range(9):
            descriptor = agent.create(AttributedName.file(f"/p/f{index}"))
            agent.write(descriptor, b"y" * 8192)
            volumes.add(agent.system_name(descriptor).volume_id)
            agent.close(descriptor)
        assert len(volumes) > 1

    def test_fixed_keeps_the_historical_choice(self):
        cluster = RhodosCluster(small_config(n_disks=3))
        agent = cluster.machine.file_agent
        for index in range(4):
            descriptor = agent.create(AttributedName.file(f"/p/f{index}"))
            assert agent.system_name(descriptor).volume_id == 0
            agent.close(descriptor)

    def test_explicit_volume_attr_still_wins(self):
        cluster = RhodosCluster(
            small_config(n_disks=3, placement_policy="round_robin")
        )
        agent = cluster.machine.file_agent
        descriptor = agent.create(AttributedName.file("/pin", volume="2"))
        assert agent.system_name(descriptor).volume_id == 2
        agent.close(descriptor)


class TestDeterminism:
    def test_sharded_cluster_double_run_is_byte_identical(self):
        def run():
            cluster = RhodosCluster(
                small_config(
                    n_shards=4,
                    n_disks=2,
                    shard_service_us=200,
                    placement_policy="least_loaded",
                    fault_profile=FaultProfile(request_loss=0.05),
                    seed=11,
                )
            )
            populate(cluster, 15)
            victim = max(
                cluster.shards, key=lambda s: cluster.shards[s].size()
            )
            cluster.fail_shard(victim)
            reads = [
                str(cluster.naming.resolve_path(f"/s/f{index}"))
                for index in range(15)
            ]
            cluster.restart_shard(victim)
            return json.dumps(
                {
                    "reads": reads,
                    "metrics": cluster.metrics.snapshot(),
                    "dumps": {
                        str(k): v.decode("utf-8")
                        for k, v in sorted(
                            cluster.naming.shard_dumps().items()
                        )
                    },
                },
                sort_keys=True,
            )

        assert run() == run()
