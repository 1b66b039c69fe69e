"""Satellite: the naming codec round-trips under partition.

Over random bind/unbind scripts, dump the sharded namespace per shard
and prove three partition invariants against the unsharded oracle:

1. each shard's blob round-trips through the flat codec unchanged;
2. the shards' binding sets are pairwise disjoint;
3. their union equals the oracle's binding set, target for target.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.clock import SimClock
from repro.common.errors import NameNotFoundError, NamingError
from repro.common.ids import SystemName
from repro.common.metrics import Metrics
from repro.naming.attributed import AttributedName, ObjectType
from repro.naming.service import NamingService
from repro.naming.shard import (
    _READS,
    NAMING_SHARD_OPS,
    NamingShard,
    ShardedNamespace,
    ShardManager,
    canonical_key,
)
from repro.rpc.endpoint import direct_caller

PATHS = [f"/d{d}/f{f}" for d in range(3) for f in range(4)]
OWNERS = ["alice", "bob"]


def make_namespace(n_shards=3):
    clock = SimClock()
    metrics = Metrics()
    shards = {
        shard_id: NamingShard(shard_id, clock, metrics)
        for shard_id in range(n_shards)
    }
    manager = ShardManager(shards, metrics=metrics)
    namespace = ShardedNamespace(
        {
            sid: direct_caller(shard, NAMING_SHARD_OPS)
            for sid, shard in shards.items()
        },
        manager.get_map,
        peer_of=manager.peer_id_of,
        metrics=metrics,
    )
    return namespace, shards


@st.composite
def binding_scripts(draw):
    n_ops = draw(st.integers(min_value=1, max_value=30))
    ops = []
    for index in range(n_ops):
        kind = draw(st.sampled_from(["bind", "bind", "rebind", "unbind"]))
        path = draw(st.sampled_from(PATHS))
        owner = draw(st.sampled_from(OWNERS))
        ops.append((kind, path, owner, index))
    return ops


def apply_script(target_service, script):
    for kind, path, owner, index in script:
        name = AttributedName.file(path, owner=owner)
        sys = SystemName(0, index, 1)
        if kind == "bind":
            try:
                target_service.bind(name, sys)
            except Exception:
                pass
        elif kind == "rebind":
            target_service.rebind(name, sys)
        else:
            try:
                target_service.unbind(name)
            except NameNotFoundError:
                pass


def bindings_of(service):
    return {name: service.resolve(name) for name in service}


@given(binding_scripts(), st.integers(min_value=1, max_value=5))
@settings(max_examples=80, deadline=None)
def test_partition_round_trips_against_the_flat_oracle(script, n_shards):
    namespace, shards = make_namespace(n_shards)
    oracle = NamingService()
    apply_script(namespace, script)
    apply_script(oracle, script)

    restored_union = {}
    seen_keys = set()
    for shard_id, blob in sorted(namespace.shard_dumps().items()):
        part = NamingService.from_bytes(blob)
        # (1) each fragment round-trips bit-exactly through the codec
        assert part.to_bytes() == blob
        local = bindings_of(part)
        assert local == bindings_of(shards[shard_id].service)
        # (2) pairwise disjoint: no name lives on two shards
        assert seen_keys.isdisjoint(local)
        seen_keys.update(local)
        restored_union.update(local)

    # (3) union == the unsharded oracle, targets included
    assert restored_union == bindings_of(oracle)
    # and the router's merged codec view equals the oracle's own blob
    assert NamingService.from_bytes(namespace.to_bytes())._bindings == dict(
        oracle._bindings
    )


@given(binding_scripts())
@settings(max_examples=40, deadline=None)
def test_whole_namespace_codec_is_flat_compatible(script):
    namespace, _ = make_namespace(3)
    oracle = NamingService()
    apply_script(namespace, script)
    apply_script(oracle, script)
    restored = NamingService.from_bytes(namespace.to_bytes())
    assert bindings_of(restored) == bindings_of(oracle)
    for path in PATHS:
        try:
            expected = oracle.resolve_path(path)
        except NamingError as exc:  # not-found or ambiguous alike
            with pytest.raises(type(exc)):
                restored.resolve_path(path)
            continue
        assert restored.resolve_path(path) == expected


def outcome(call, *args):
    try:
        return "ok", call(*args)
    except NamingError as exc:  # not-found or ambiguous alike
        return "error", type(exc)


@given(binding_scripts(), st.integers(min_value=2, max_value=4))
@settings(max_examples=60, deadline=None)
def test_replica_read_answers_as_the_primary_would(script, n_shards):
    """After any mixed script, the peer's ``replica_read(op, *args)``
    equals the primary's own answer for every op in the read table —
    what a failed-over router relies on."""
    namespace, shards = make_namespace(n_shards)
    apply_script(namespace, script)
    names = [AttributedName.file(p, owner=o) for p in PATHS for o in OWNERS]
    queries = [AttributedName.file(p) for p in PATHS]
    by_owner = [AttributedName.file(owner=o) for o in OWNERS]
    for shard in shards.values():
        owned = lambda name: shard.map.owner_of(canonical_key(name)) == shard.shard_id
        probes = {
            "resolve": [(q,) for q in queries + names if owned(q)],
            "contains": [(n,) for n in names if owned(n)],
            "match": [(q,) for q in queries + by_owner],
            "list_paths": [("/",), ("/d0",), ("/nowhere",)],
            "size": [()],
            "names": [()],
            "dump": [()],
        }
        assert set(probes) == set(_READS)
        for op, calls in probes.items():
            for args in calls:
                assert outcome(shard.peer.replica_read, op, *args) == outcome(
                    getattr(shard, op), *args
                ), (shard.shard_id, op, args)
