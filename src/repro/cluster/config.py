"""Cluster configuration.

One dataclass gathers every knob the experiments sweep: cache levels
on/off (E5), write policy (E6), the timeout policy
(E8/A2), the commit technique (E9), and the RPC fault profile (E12).
``tests/cluster/test_knob_liveness.py`` keeps every field live: each
one, flipped from its default, must move something a run records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional

from repro.file_service.cache import WritePolicy
from repro.naming.shard import DEFAULT_SLOTS
from repro.rpc.bus import FaultProfile
from repro.rpc.retry import BackoffPolicy, BreakerPolicy
from repro.simdisk.geometry import DiskGeometry
from repro.transactions.lock_manager import TimeoutPolicy


@dataclass(slots=True)
class ClusterConfig:
    """Everything needed to build a :class:`~repro.cluster.system.RhodosCluster`.

    Attributes:
        n_machines: client machines (each gets device/file/transaction
            agents).
        n_disks: volumes; one disk server and one file server each.
        geometry: disk geometry for every data disk.
        client_cache_blocks: per-machine file-agent cache capacity
            (0 = no client cache — the Amoeba Bullet configuration).
        server_cache_blocks: per-volume file-server block pool (0 = off).
        disk_cache_tracks: per-disk track cache (0 = off).
        write_policy: file-server policy for basic files.
        timeout_policy: the LT/N deadlock policy.
        commit_technique: 'auto' (paper rule), 'wal', or 'shadow'.
        fault_profile: RPC fault injection; None = direct calls
            (no message bus between agents and servers).
        rpc_backoff: seeded exponential backoff between RPC
            retransmissions; None = the fixed-interval retry the
            idempotency benches established.
        rpc_breaker: per-destination circuit-breaker policy; None = no
            breaker (every call spends its full attempt budget).
            Breaker transitions feed the cluster's health registry.
        n_shards: naming shard servers the binding space partitions
            across (1 = the flat namespace, behaviourally identical to
            the historical single ``NamingService``); at most one per
            hash slot of the shard map.
        shard_service_us: modelled per-operation service time charged
            to a shard server's timeline (0 = free metadata, the
            historical timing).
        placement_policy: chunk→volume placement for creates without a
            volume hint — ``fixed`` (first volume, historical),
            ``round_robin``, or ``least_loaded`` (steered by the live
            ``disk.N.utilization`` gauges).
        replication_degree: copies a replicated file keeps (at most
            one per volume, so capped at ``n_disks``).
        raid_level: back each volume's data disk with a
            :class:`~repro.simdisk.raid.StripedVolume` of this layout
            (``raid0`` / ``raid1`` / ``raid5``) instead of a single
            drive; None (default) keeps the single-disk configuration.
        raid_members: member drives per array (each of ``geometry``).
        seed: RNG seed for every stochastic component.
    """

    n_machines: int = 1
    n_disks: int = 1
    geometry: DiskGeometry = field(default_factory=DiskGeometry.medium)
    client_cache_blocks: int = 128
    server_cache_blocks: int = 256
    disk_cache_tracks: int = 128
    write_policy: WritePolicy = WritePolicy.DELAYED
    timeout_policy: TimeoutPolicy = field(default_factory=TimeoutPolicy)
    commit_technique: Literal["auto", "wal", "shadow"] = "auto"
    fault_profile: Optional[FaultProfile] = None
    rpc_backoff: Optional[BackoffPolicy] = None
    rpc_breaker: Optional[BreakerPolicy] = None
    n_shards: int = 1
    shard_service_us: int = 0
    placement_policy: Literal["fixed", "round_robin", "least_loaded"] = "fixed"
    replication_degree: int = 2
    raid_level: Optional[Literal["raid0", "raid1", "raid5"]] = None
    raid_members: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_machines < 1:
            raise ValueError("need at least one machine")
        if self.n_disks < 1:
            raise ValueError("need at least one disk")
        for knob in (
            "client_cache_blocks", "server_cache_blocks", "disk_cache_tracks"
        ):
            if getattr(self, knob) < 0:
                raise ValueError(f"{knob} cannot be negative (0 = off)")
        if self.replication_degree < 1:
            raise ValueError("need a replication degree of at least one")
        if self.n_shards < 1:
            raise ValueError("need at least one naming shard")
        if self.n_shards > DEFAULT_SLOTS:
            raise ValueError("need at least one hash slot per shard")
        if self.shard_service_us < 0:
            raise ValueError("shard service time cannot be negative")
        if self.raid_level is not None:
            floor = 3 if self.raid_level == "raid5" else 2
            if self.raid_members < floor:
                raise ValueError(
                    f"{self.raid_level} needs at least {floor} members"
                )

    @classmethod
    def bullet_style(cls, **overrides) -> "ClusterConfig":
        """The no-client-cache comparator of experiment E5."""
        merged = {"client_cache_blocks": 0}
        merged.update(overrides)
        return cls(**merged)

    @classmethod
    def uncached(cls, **overrides) -> "ClusterConfig":
        """Every cache level off (the E5 baseline)."""
        merged = {
            "client_cache_blocks": 0,
            "server_cache_blocks": 0,
            "disk_cache_tracks": 0,
        }
        merged.update(overrides)
        return cls(**merged)
