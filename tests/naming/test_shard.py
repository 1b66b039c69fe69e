"""The sharded namespace: map, routing, failover, rebalancing."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import (
    NameNotFoundError,
    NamingError,
    ShardDownError,
    WrongShardError,
)
from repro.common.ids import SystemName
from repro.common.metrics import Metrics
from repro.naming.attributed import AttributedName
from repro.naming.service import NamingService
from repro.naming.shard import (
    DEFAULT_SLOTS,
    NAMING_SHARD_OPS,
    NamingShard,
    PlacementPolicy,
    ShardedNamespace,
    ShardManager,
    ShardMap,
    canonical_key,
    routing_key,
    slot_of,
)
from repro.rpc.endpoint import direct_caller


def make_namespace(n_shards=3, service_us=0, n_slots=DEFAULT_SLOTS):
    clock = SimClock()
    metrics = Metrics()
    shards = {
        shard_id: NamingShard(shard_id, clock, metrics, service_us=service_us)
        for shard_id in range(n_shards)
    }
    manager = ShardManager(shards, n_slots=n_slots, metrics=metrics)
    namespace = ShardedNamespace(
        {
            sid: direct_caller(shard, NAMING_SHARD_OPS)
            for sid, shard in shards.items()
        },
        manager.get_map,
        peer_of=manager.peer_id_of,
        metrics=metrics,
    )
    return namespace, manager, shards, clock, metrics


def sys_name(index):
    return SystemName(0, index, 1)


class TestKeysAndMap:
    def test_canonical_key_prefers_path(self):
        name = AttributedName.file("/a/b", directory="d", owner="o")
        assert canonical_key(name) == "p:/a/b"

    def test_canonical_key_directory_fallback(self):
        name = AttributedName.file(directory="etc")
        assert canonical_key(name) == "d:etc"

    def test_canonical_key_attrs_fallback(self):
        name = AttributedName.tty("kbd", room="12")
        key = canonical_key(name)
        assert key.startswith("a:") and "room=12" in key

    def test_subset_query_with_path_is_routable(self):
        binding = AttributedName.file("/x", owner="alice")
        query = AttributedName.file("/x")
        assert routing_key(query) == canonical_key(binding)

    def test_pathless_query_fans_out(self):
        assert routing_key(AttributedName.file(owner="alice")) is None

    def test_assign_covers_every_slot(self):
        shard_map = ShardMap.assign((0, 1, 2), n_slots=64)
        assert shard_map.n_slots == 64
        assert set(shard_map.owners) <= {0, 1, 2}
        assert shard_map.shard_ids == (0, 1, 2)

    def test_assign_is_deterministic(self):
        a = ShardMap.assign((0, 1, 2, 3), n_slots=64)
        b = ShardMap.assign((0, 1, 2, 3), n_slots=64)
        assert a.owners == b.owners

    def test_growth_moves_a_minority_of_slots(self):
        before = ShardMap.assign((0, 1, 2, 3), n_slots=256)
        after = ShardMap.assign((0, 1, 2, 3, 4), n_slots=256)
        moved = sum(1 for s in range(256) if before.owners[s] != after.owners[s])
        # consistent hashing: roughly 1/5 of slots move, never a majority
        assert 0 < moved < 128
        # and every moved slot moved *to* the new shard
        assert all(
            after.owners[s] == 4
            for s in range(256)
            if before.owners[s] != after.owners[s]
        )

    def test_moved_bumps_epoch(self):
        shard_map = ShardMap.assign((0, 1), n_slots=8)
        successor = shard_map.moved((0, 1), 1)
        assert successor.epoch == shard_map.epoch + 1
        assert successor.owner_of_slot(0) == 1
        assert successor.owner_of_slot(1) == 1


class TestRoutingEquivalence:
    """The sharded namespace behaves exactly like the flat service."""

    def test_bind_resolve_across_shards(self):
        namespace, _, shards, _, _ = make_namespace()
        for index in range(40):
            namespace.bind_path(f"/f{index}", sys_name(index))
        for index in range(40):
            assert namespace.resolve_path(f"/f{index}") == sys_name(index)
        # the bindings really are spread over more than one shard
        occupied = [sid for sid, shard in shards.items() if shard.size() > 0]
        assert len(occupied) > 1

    def test_wrong_shard_raises_out_of_band(self):
        _, manager, shards, _, _ = make_namespace()
        name = AttributedName.file("/x")
        slot = slot_of(canonical_key(name), manager.map.n_slots)
        owner = manager.map.owner_of_slot(slot)
        stranger = next(s for sid, s in shards.items() if sid != owner)
        with pytest.raises(WrongShardError) as exc:
            stranger.bind(name, sys_name(1))
        assert exc.value.slot == slot

    def test_pathless_resolve_fans_out_with_flat_arbitration(self):
        namespace, _, _, _, metrics = make_namespace()
        oracle = NamingService()
        for index in range(10):
            name = AttributedName.file(f"/d/f{index}", owner=f"u{index % 3}")
            namespace.bind(name, sys_name(index))
            oracle.bind(name, sys_name(index))
        query = AttributedName.file(owner="u1")
        with pytest.raises(NamingError):
            oracle.resolve(query)
        with pytest.raises(NamingError):
            namespace.resolve(query)
        assert metrics.get("naming_shard.fan_outs") > 0
        # a unique pathless match resolves identically
        unique = AttributedName.file(owner="only")
        bound = AttributedName.file("/solo", owner="only")
        namespace.bind(bound, sys_name(99))
        oracle.bind(bound, sys_name(99))
        assert namespace.resolve(unique) == oracle.resolve(unique)

    def test_missing_name_raises(self):
        namespace, _, _, _, _ = make_namespace()
        with pytest.raises(NameNotFoundError):
            namespace.resolve_path("/missing")

    def test_lookup_and_iteration_union(self):
        namespace, _, _, _, _ = make_namespace()
        names = [AttributedName.file(f"/u/f{i}", kind="t") for i in range(12)]
        for index, name in enumerate(names):
            namespace.bind(name, sys_name(index))
        assert len(namespace) == 12
        assert set(namespace) == set(names)
        found = namespace.lookup(AttributedName.file(kind="t"))
        assert {name for name, _ in found} == set(names)

    def test_list_directory_merges_shards(self):
        namespace, _, _, _, _ = make_namespace()
        for index in range(9):
            namespace.bind_path(f"/dir/f{index}", sys_name(index))
        flat = NamingService()
        for index in range(9):
            flat.bind_path(f"/dir/f{index}", sys_name(index))
        assert namespace.list_directory("/dir") == flat.list_directory("/dir")

    def test_unbind_path_routes_by_path_key(self):
        namespace, _, _, _, _ = make_namespace()
        namespace.bind_path("/gone", sys_name(7))
        assert namespace.unbind_path("/gone") == sys_name(7)
        with pytest.raises(NameNotFoundError):
            namespace.resolve_path("/gone")


class TestIdempotentDelivery:
    """The reply cache absorbs duplicated/retransmitted mutations."""

    def test_duplicate_bind_with_token_is_absorbed(self):
        _, manager, shards, _, _ = make_namespace()
        name = AttributedName.file("/dup")
        owner = shards[manager.map.owner_of(canonical_key(name))]
        owner.bind(name, sys_name(1), 42)
        owner.bind(name, sys_name(1), 42)  # the duplicate delivery
        assert owner.service.resolve(name) == sys_name(1)

    def test_duplicate_unbind_returns_the_recorded_target(self):
        _, manager, shards, _, _ = make_namespace()
        name = AttributedName.file("/dup")
        owner = shards[manager.map.owner_of(canonical_key(name))]
        owner.bind(name, sys_name(1), 1)
        assert owner.unbind(name, 2) == sys_name(1)
        assert owner.unbind(name, 2) == sys_name(1)  # duplicate
        with pytest.raises(NameNotFoundError):
            owner.unbind(name, 3)  # a *new* unbind still fails

    def test_retransmitted_unbind_path_returns_the_recorded_target(self):
        _, manager, shards, _, metrics = make_namespace()
        owner = shards[manager.map.owner_of("p:/dup")]
        owner.bind(AttributedName.file("/dup", owner="a"), sys_name(1), 1)
        ops_before = metrics.get(f"naming_shard.{owner.shard_id}.ops")
        assert owner.unbind_path("/dup", 2) == sys_name(1)
        assert owner.unbind_path("/dup", 2) == sys_name(1)  # retransmission
        # each delivery is charged exactly once
        assert metrics.get(f"naming_shard.{owner.shard_id}.ops") == ops_before + 2
        with pytest.raises(NameNotFoundError):
            owner.unbind_path("/dup", 3)  # a *new* unbind still fails

    def test_unbind_path_checks_ownership_before_the_lookup(self):
        _, manager, shards, _, _ = make_namespace()
        stranger = shards[(manager.map.owner_of("p:/nowhere") + 1) % len(shards)]
        with pytest.raises(WrongShardError):
            stranger.unbind_path("/nowhere", 9)

    def test_untokened_calls_keep_flat_semantics(self):
        _, manager, shards, _, _ = make_namespace()
        name = AttributedName.file("/dup")
        owner = shards[manager.map.owner_of(canonical_key(name))]
        owner.bind(name, sys_name(1))
        from repro.common.errors import NameExistsError

        with pytest.raises(NameExistsError):
            owner.bind(name, sys_name(1))


class TestFailover:
    def test_read_fails_over_to_replica_peer(self):
        namespace, _, shards, _, metrics = make_namespace()
        for index in range(20):
            namespace.bind_path(f"/f{index}", sys_name(index))
        victim = max(shards, key=lambda sid: shards[sid].size())
        shards[victim].crash()
        for index in range(20):
            assert namespace.resolve_path(f"/f{index}") == sys_name(index)
        assert metrics.get("naming_shard.failovers") > 0

    def test_write_to_dead_shard_raises(self):
        namespace, manager, shards, _, _ = make_namespace()
        namespace.bind_path("/a", sys_name(1))
        name = AttributedName.file("/a")
        victim = manager.map.owner_of(canonical_key(name))
        shards[victim].crash()
        with pytest.raises(ShardDownError):
            namespace.rebind(name, sys_name(2))

    def test_restart_resyncs_from_peer(self):
        namespace, manager, shards, _, _ = make_namespace()
        for index in range(20):
            namespace.bind_path(f"/f{index}", sys_name(index))
        victim = max(shards, key=lambda sid: shards[sid].size())
        held = shards[victim].size()
        shards[victim].crash()
        manager.restart_shard(victim)
        assert shards[victim].size() == held
        for index in range(20):
            assert namespace.resolve_path(f"/f{index}") == sys_name(index)

    def test_single_shard_recovers_from_stable_snapshot(self):
        namespace, manager, shards, _, _ = make_namespace(n_shards=1)
        for index in range(5):
            namespace.bind_path(f"/f{index}", sys_name(index))
        shards[0].crash()
        manager.restart_shard(0)
        for index in range(5):
            assert namespace.resolve_path(f"/f{index}") == sys_name(index)

    def test_replica_read_serves_reads_only(self):
        _, _, shards, _, _ = make_namespace()
        with pytest.raises(NamingError, match="no replica read 'unbind'"):
            shards[0].replica_read("unbind", AttributedName.file("/a"))

    def test_fan_out_survives_a_dead_shard(self):
        namespace, _, shards, _, _ = make_namespace()
        bound = AttributedName.file("/solo", owner="only")
        namespace.bind(bound, sys_name(3))
        victim = max(shards, key=lambda sid: shards[sid].size())
        shards[victim].crash()
        assert namespace.resolve(AttributedName.file(owner="only")) == sys_name(3)
        assert len(namespace) == 1


class TestRebalancing:
    def fill(self, namespace, count=30):
        for index in range(count):
            namespace.bind_path(f"/f{index}", sys_name(index))

    def test_split_to_a_new_shard(self):
        namespace, manager, shards, clock, metrics = make_namespace(n_shards=2)
        self.fill(namespace)
        spare = NamingShard(2, clock, metrics)
        manager.add_shard(spare)
        namespace.add_caller(2, direct_caller(spare, NAMING_SHARD_OPS))
        slots = manager.begin_rebalance(2)
        assert slots  # the new shard's tokens capture something
        while not manager.rebalance_done:
            manager.step_rebalance(max_bindings=4)
        old_epoch = manager.map.epoch
        manager.complete_rebalance()
        assert manager.map.epoch == old_epoch + 1
        assert spare.size() > 0
        for index in range(30):
            assert namespace.resolve_path(f"/f{index}") == sys_name(index)
        assert len(namespace) == 30

    def test_writes_during_migration_are_not_lost(self):
        namespace, manager, shards, clock, metrics = make_namespace(n_shards=2)
        self.fill(namespace, 10)
        spare = NamingShard(2, clock, metrics)
        manager.add_shard(spare)
        namespace.add_caller(2, direct_caller(spare, NAMING_SHARD_OPS))
        manager.begin_rebalance(2)
        # interleave fresh writes and unbinds with the stream
        namespace.bind_path("/during", sys_name(100))
        namespace.unbind_path("/f3")
        step = 0
        while not manager.rebalance_done:
            manager.step_rebalance(max_bindings=2)
            namespace.bind_path(f"/mid{step}", sys_name(200))
            step += 1
        manager.complete_rebalance()
        assert namespace.resolve_path("/during") == sys_name(100)
        with pytest.raises(NameNotFoundError):
            namespace.resolve_path("/f3")
        for index in range(10):
            if index == 3:
                continue
            assert namespace.resolve_path(f"/f{index}") == sys_name(index)

    def test_unbind_path_mid_migration_drops_one_binding_not_every_sharer(self):
        """Two bindings share a path; one ``unbind_path`` between the
        stream and the cutover must remove the same single name on the
        source, its mirror and the destination's staging."""
        namespace, manager, shards, _, _ = make_namespace(n_shards=2)
        namespace.bind_path("/x", sys_name(1), owner="a")
        namespace.bind_path("/x", sys_name(2), owner="b")
        slot = slot_of("p:/x", manager.map.n_slots)
        source_id = manager.map.owner_of_slot(slot)
        manager.begin_rebalance(1 - source_id, slots=(slot,))
        while not manager.rebalance_done:
            manager.step_rebalance()
        assert namespace.unbind_path("/x") == sys_name(1)
        manager.complete_rebalance()
        assert namespace.resolve_path("/x") == sys_name(2)
        assert len(namespace) == 1
        # the replica copy lost the same name, so a failover agrees
        shards[1 - source_id].crash()
        assert namespace.resolve_path("/x") == sys_name(2)

    def test_reads_never_miss_mid_migration(self):
        namespace, manager, shards, clock, metrics = make_namespace(n_shards=2)
        self.fill(namespace, 25)
        spare = NamingShard(2, clock, metrics)
        manager.add_shard(spare)
        namespace.add_caller(2, direct_caller(spare, NAMING_SHARD_OPS))
        manager.begin_rebalance(2)
        while not manager.rebalance_done:
            manager.step_rebalance(max_bindings=1)
            for index in range(25):  # every binding resolvable at every step
                assert namespace.resolve_path(f"/f{index}") == sys_name(index)
        manager.complete_rebalance()
        for index in range(25):
            assert namespace.resolve_path(f"/f{index}") == sys_name(index)

    def test_dead_destination_aborts_cleanly(self):
        namespace, manager, shards, clock, metrics = make_namespace(n_shards=2)
        self.fill(namespace, 20)
        spare = NamingShard(2, clock, metrics)
        manager.add_shard(spare)
        namespace.add_caller(2, direct_caller(spare, NAMING_SHARD_OPS))
        manager.begin_rebalance(2)
        manager.step_rebalance(max_bindings=3)
        spare.crash()
        manager.step_rebalance(max_bindings=3)  # detects the death, aborts
        assert not manager.rebalance_in_flight
        assert metrics.get("naming_shard.migrations_aborted") == 1
        # sources kept sole ownership: everything still resolves
        for index in range(20):
            assert namespace.resolve_path(f"/f{index}") == sys_name(index)
        # and the aborted rebalance can be re-run after a restart
        manager.restart_shard(2)
        manager.begin_rebalance(2)
        while not manager.rebalance_done:
            manager.step_rebalance()
        manager.complete_rebalance()
        assert spare.size() > 0
        assert len(namespace) == 20

    def test_explicit_slot_migration(self):
        namespace, manager, shards, _, _ = make_namespace(n_shards=2, n_slots=8)
        self.fill(namespace, 16)
        donor = manager.map.owner_of_slot(0)
        receiver = next(sid for sid in shards if sid != donor)
        manager.begin_rebalance(receiver, slots=(0,))
        while not manager.rebalance_done:
            manager.step_rebalance()
        new_map = manager.complete_rebalance()
        assert new_map.owner_of_slot(0) == receiver
        for index in range(16):
            assert namespace.resolve_path(f"/f{index}") == sys_name(index)


class TestShardServiceTime:
    """Shard service time rides the shared busy-until ``Timeline``."""

    def test_blocking_ops_serialize_on_one_shard(self):
        namespace, _, _, clock, _ = make_namespace(n_shards=1, service_us=250)
        before = clock.now_us
        namespace.bind_path("/a", sys_name(1))
        namespace.bind_path("/b", sys_name(2))
        assert clock.now_us == before + 500

    def test_zero_service_time_is_free(self):
        namespace, _, _, clock, _ = make_namespace(n_shards=2, service_us=0)
        namespace.bind_path("/a", sys_name(1))
        assert clock.now_us == 0


class TestPlacementPolicy:
    def test_fixed_always_first(self):
        policy = PlacementPolicy([2, 0, 1], "fixed")
        assert [policy.place() for _ in range(3)] == [0, 0, 0]

    def test_round_robin_cycles(self):
        policy = PlacementPolicy([0, 1, 2], "round_robin")
        assert [policy.place() for _ in range(5)] == [0, 1, 2, 0, 1]

    def test_least_loaded_reads_the_gauges(self):
        metrics = Metrics()
        metrics.gauge("disk.0.utilization", 5)
        metrics.gauge("disk.1.utilization", 1)
        metrics.gauge("disk.2.utilization", 3)
        policy = PlacementPolicy([0, 1, 2], "least_loaded", metrics)
        assert policy.place() == 1
        metrics.gauge("disk.1.utilization", 9)
        assert policy.place() == 2

    def test_least_loaded_ties_break_by_volume_id(self):
        policy = PlacementPolicy([3, 1, 2], "least_loaded", Metrics())
        assert policy.place() == 1

    def test_unknown_policy_rejected(self):
        with pytest.raises(NamingError):
            PlacementPolicy([0], "random")
