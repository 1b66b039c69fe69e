"""The assembled RHODOS system.

``RhodosCluster(config)`` wires the full stack bottom-up: simulated
disks (each with a mirrored stable store), one disk server per disk,
one file server per volume, the naming service, the replication
service, the transaction coordinator, the optional RPC bus, and one
:class:`~repro.cluster.machine.Machine` (agents bundle) per client
machine — all sharing one clock and one metrics registry, so any
experiment can be expressed as "build a cluster, run a workload, read
the counters".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.agents.devices import DeviceAgent
from repro.agents.file_agent import FileAgent
from repro.agents.routing import FILE_SERVER_OPS, FileServiceRouter
from repro.cluster.config import ClusterConfig
from repro.cluster.machine import Machine
from repro.common.clock import SimClock
from repro.common.frames import fan_out
from repro.common.metrics import Metrics
from repro.common.weak import weak_method
from repro.disk_service.server import DiskServer
from repro.file_service.server import FileServer
from repro.naming.directory import DirectoryService
from repro.naming.tdirectory import TransactionalDirectory
from repro.naming.shard import (
    NAMING_SHARD_OPS,
    NamingShard,
    PlacementPolicy,
    ShardedNamespace,
    ShardManager,
    shard_address,
    shard_component,
)
from repro.recovery.health import HealthRegistry
from repro.replication.service import ReplicationService, volume_component
from repro.rpc.bus import MessageBus
from repro.rpc.endpoint import (
    Caller,
    RpcClient,
    RpcServer,
    direct_caller,
    expose,
    rpc_caller,
)
from repro.rpc.retry import CircuitBreaker
from repro.simdisk.disk import SimDisk
from repro.simdisk.geometry import DiskGeometry
from repro.simdisk.raid import ArrayState, RaidRebuilder, StripedVolume
from repro.simdisk.stable import StableStore
from repro.simkernel.loop import EventLoop
from repro.transactions.agent import TransactionAgentHost
from repro.transactions.coordinator import TransactionCoordinator


def file_server_address(volume_id: int) -> str:
    """The bus address of one volume's file-server endpoint."""
    return f"file_server.{volume_id}"


class _VolumeHealthFeed:
    """Relay circuit-breaker transitions into the health registry.

    The breaker speaks bus addresses (``file_server.N``,
    ``naming_shard.N``); the registry speaks components (``volume.N``,
    ``shard.N``); ``components`` is the address -> component table the
    cluster fills as it exposes each endpoint.  Breaker-open means the
    detector should stop routing work at the component; breaker-close
    means a half-open probe reached a live server, which *is* a
    recovery signal — it fires the registry's repair hooks (replica
    resync, orphan sweep) without waiting for an administrative
    restart.
    """

    def __init__(self, health: HealthRegistry, components: Dict[str, str]) -> None:
        self.health = health
        self.components = components

    def on_breaker_open(self, address: str) -> None:
        component = self.components.get(address)
        if component is not None:
            self.health.mark_down(component)

    def on_breaker_close(self, address: str) -> None:
        component = self.components.get(address)
        if component is not None:
            self.health.note_recovered(component)


class RhodosCluster:
    """A complete simulated RHODOS distributed file facility."""

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self.config = config or ClusterConfig()
        self.clock = SimClock()
        self.metrics = Metrics()
        self.loop = EventLoop(self.clock)

        #: Per-volume data "disk": a SimDisk, or a StripedVolume duck-
        #: typing the same surface when config.raid_level is set.
        self.disks: List[SimDisk | StripedVolume] = []
        #: volume id -> backing RAID array (empty unless config.raid_level).
        self.arrays: Dict[int, StripedVolume] = {}
        #: volume id -> in-flight background rebuild (see replace_member).
        self.rebuilders: Dict[int, RaidRebuilder] = {}
        self.disk_servers: Dict[int, DiskServer] = {}
        self.file_servers: Dict[int, FileServer] = {}
        # Arrays call back into the cluster; weakly, or every array
        # would keep the cluster that owns it alive (common/weak.py).
        notify_array_state = weak_method(self._on_array_state)
        for volume_id in range(self.config.n_disks):
            if self.config.raid_level is not None:
                members = [
                    SimDisk(
                        f"{volume_id}.m{index}",
                        self.config.geometry,
                        self.clock,
                        self.metrics,
                    )
                    for index in range(self.config.raid_members)
                ]
                disk = StripedVolume(
                    str(volume_id),
                    members,
                    level=self.config.raid_level,
                    metrics=self.metrics,
                )
                disk.on_state_change = (
                    lambda old, new, vid=volume_id:
                    notify_array_state(vid, old, new)
                )
                self.arrays[volume_id] = disk
            else:
                disk = SimDisk(
                    str(volume_id),
                    self.config.geometry,
                    self.clock,
                    self.metrics,
                )
            stable = StableStore(
                SimDisk(
                    f"{volume_id}.stable_a",
                    DiskGeometry.small(),
                    self.clock,
                    self.metrics,
                ),
                SimDisk(
                    f"{volume_id}.stable_b",
                    DiskGeometry.small(),
                    self.clock,
                    self.metrics,
                ),
            )
            disk_server = DiskServer(
                disk,
                stable,
                self.clock,
                self.metrics,
                cache_tracks=self.config.disk_cache_tracks,
            )
            file_server = FileServer(
                volume_id,
                disk_server,
                self.clock,
                self.metrics,
                data_cache_blocks=self.config.server_cache_blocks,
                write_policy=self.config.write_policy,
            )
            self.disks.append(disk)
            self.disk_servers[volume_id] = disk_server
            self.file_servers[volume_id] = file_server

        self.health = HealthRegistry(self.metrics)

        # ------------------------------------------------- transports
        # With a fault profile every server sits behind a bus endpoint
        # and is reached by RPC; without one, callers dispatch
        # in-process.  _endpoint makes that choice, once, for file
        # servers and naming shards alike.
        self.bus: Optional[MessageBus] = None
        self.breaker: Optional[CircuitBreaker] = None
        #: The RPC clients of the file-service router and of the naming
        #: router (None without a bus).
        self.file_client: Optional[RpcClient] = None
        self.shard_client: Optional[RpcClient] = None
        #: bus address -> health component of every exposed endpoint.
        self._components: Dict[str, str] = {}
        if self.config.fault_profile is not None:
            self.bus = MessageBus(
                self.clock,
                self.metrics,
                self.config.fault_profile,
                seed=self.config.seed,
            )
            if self.config.rpc_breaker is not None:
                self.breaker = CircuitBreaker(
                    self.config.rpc_breaker,
                    self.clock,
                    self.metrics,
                    listener=_VolumeHealthFeed(self.health, self._components),
                )
            self.file_client = self._rpc_client(self.config.seed)
            self.shard_client = self._rpc_client(self.config.seed + 1)
        self.router = FileServiceRouter(
            {
                volume_id: self._endpoint(
                    file_server,
                    FILE_SERVER_OPS,
                    file_server_address(volume_id),
                    volume_component(volume_id),
                    self.file_client,
                )
                for volume_id, file_server in self.file_servers.items()
            }
        )

        # ---------------------------------------------- sharded naming
        # The binding space partitions across n_shards shard servers;
        # n_shards == 1 is the flat namespace, same surface, same
        # behaviour.  With a bus, shard endpoints ride it — retries,
        # breakers, and fault profiles cover metadata traffic too.
        self.shards: Dict[int, NamingShard] = {
            shard_id: NamingShard(
                shard_id,
                self.clock,
                self.metrics,
                service_us=self.config.shard_service_us,
            )
            for shard_id in range(self.config.n_shards)
        }
        self.shard_manager = ShardManager(self.shards, metrics=self.metrics)
        self.naming = ShardedNamespace(
            {
                shard_id: self._shard_endpoint(shard)
                for shard_id, shard in self.shards.items()
            },
            self.shard_manager.get_map,
            peer_of=self.shard_manager.peer_id_of,
            metrics=self.metrics,
            health=self.health,
            placement=PlacementPolicy(
                list(range(self.config.n_disks)),
                self.config.placement_policy,
                self.metrics,
            ),
        )

        self.coordinator = TransactionCoordinator(
            self.clock,
            self.metrics,
            policy=self.config.timeout_policy,
            technique=self.config.commit_technique,
        )
        for file_server in self.file_servers.values():
            self.coordinator.register_volume(file_server)

        self.directories = DirectoryService(self.naming, self.router, self.metrics)

        self.replication = ReplicationService(
            self.naming,
            self.file_servers,
            self.clock,
            self.metrics,
            default_degree=min(self.config.replication_degree, self.config.n_disks),
            health=self.health,
        )

        self.machines: List[Machine] = []
        for index in range(self.config.n_machines):
            machine_id = f"m{index}"
            device_agent = DeviceAgent(machine_id, self.naming, self.metrics)
            file_agent = FileAgent(
                machine_id,
                self.naming,
                self.router,
                self.clock,
                self.metrics,
                cache_blocks=self.config.client_cache_blocks,
                placement=self.naming.place_volume,
            )
            transaction_host = TransactionAgentHost(
                machine_id,
                self.naming,
                self.coordinator,
                self.clock,
                self.metrics,
            )
            self.machines.append(
                Machine(machine_id, device_agent, file_agent, transaction_host)
            )

    # ----------------------------------------------------- transports

    def _rpc_client(self, seed: int) -> RpcClient:
        # A generous retransmission budget: at 30% triple-fault rates
        # a call still succeeds with overwhelming probability, which
        # is the regime experiment E12 sweeps.
        return RpcClient(
            self.bus,
            max_attempts=30,
            backoff=self.config.rpc_backoff,
            breaker=self.breaker,
            seed=seed,
        )

    def _endpoint(
        self,
        server: object,
        ops: Tuple[str, ...],
        address: str,
        component: str,
        client: Optional[RpcClient],
    ) -> Caller:
        """The transport to one server: direct without a bus, else an
        RPC stub for the endpoint this exposes at ``address``."""
        if client is None:
            return direct_caller(server, ops)
        expose(RpcServer(client.bus, address), server, ops)
        self._components[address] = component
        return rpc_caller(client, address)

    def _shard_endpoint(self, shard: NamingShard) -> Caller:
        return self._endpoint(
            shard,
            NAMING_SHARD_OPS,
            shard_address(shard.shard_id),
            shard_component(shard.shard_id),
            self.shard_client,
        )

    # ------------------------------------------------- shard lifecycle

    def add_shard(self) -> int:
        """Register a spare shard server (owns no slots until a rebalance).

        The ``split_shard`` entry point: follow with
        ``shard_manager.begin_rebalance(new_id)`` and pump
        ``step_rebalance`` from workload idle points.  Returns the new
        shard's id.
        """
        shard_id = max(self.shards) + 1
        shard = NamingShard(
            shard_id,
            self.clock,
            self.metrics,
            service_us=self.config.shard_service_us,
        )
        self.shards[shard_id] = shard
        self.shard_manager.add_shard(shard)
        self.naming.add_caller(shard_id, self._shard_endpoint(shard))
        self.metrics.add("cluster.shards_added")
        return shard_id

    def fail_shard(self, shard_id: int) -> None:
        """Kill one shard server mid-workload.

        Volatile state (its binding tables) dies with the process; the
        bus endpoint stops answering so clients time out and the
        breaker eventually opens — detection is left to the failure
        path, exactly as :meth:`fail_volume` leaves it.
        """
        self.shards[shard_id].crash()
        if self.bus is not None:
            self.bus.set_down(shard_address(shard_id))
        self.metrics.add("cluster.shard_failures")

    def restart_shard(self, shard_id: int) -> None:
        """Bring a dead shard back: resync from its replica peer, announce.

        The shard manager streams the primary table back from the
        peer's replica copy and rebuilds the restarted shard's own
        replica from its predecessor; the recovery event fires the
        registry's repair hooks.  An open breaker is *not* reset — its
        cooldown is modelled detection lag, charged to unavailability.
        """
        self.shard_manager.restart_shard(shard_id)
        if self.bus is not None:
            self.bus.set_down(shard_address(shard_id), False)
        self.metrics.add("cluster.shard_restarts")
        self.health.note_recovered(shard_component(shard_id))

    # --------------------------------------------------- conveniences

    def transactional_directories(self, machine_index: int = 0) -> TransactionalDirectory:
        """Directory mutations with transaction semantics, via one
        machine's transaction agent (atomic multi-entry updates)."""
        return TransactionalDirectory(
            self.directories, self.machines[machine_index].transactions
        )

    @property
    def machine(self) -> Machine:
        """The first machine (single-machine examples and tests)."""
        return self.machines[0]

    def run_concurrent(self, op, *, n_clients: int, ops_per_client: int):
        """Run a closed-loop contention workload; returns a DriverReport.

        ``op(cluster, client_index, op_index)`` is issued by each of
        ``n_clients`` concurrent clients, each starting its next
        operation the moment the previous one's modelled service
        completes (see :mod:`repro.cluster.driver`).
        """
        from repro.cluster.driver import ConcurrentDriver

        return ConcurrentDriver(
            self, op, n_clients=n_clients, ops_per_client=ops_per_client
        ).run()

    def flush_all(self) -> None:
        """Flush every agent cache, then every file server.

        Each volume has its own data disk and its own stable mirrors,
        so the file servers flush as the branches of one
        :func:`~repro.common.frames.fan_out`: a blocking caller waits
        for the slowest volume, not the sum of them.
        """
        for machine in self.machines:
            machine.file_agent.flush()
        with fan_out(self.clock) as fork:
            for file_server in self.file_servers.values():
                with fork.branch():
                    file_server.flush()

    def crash_volume(self, volume_id: int) -> None:
        """Crash one volume's data disk (stable mirrors stay up)."""
        self.disks[volume_id].crash()

    def recover_volume(self, volume_id: int) -> None:
        """Repair and recover one volume (disk, caches, transactions)."""
        self.disks[volume_id].repair()
        self.coordinator.recover_volume(volume_id)

    # ------------------------------------------- crash/restart lifecycle

    def fail_volume(self, volume_id: int) -> None:
        """Take one volume's disk *and* file server down mid-workload.

        The bus endpoint stops answering (clients time out, the breaker
        eventually opens), the file server's caches are dropped with the
        crash, and every client machine invalidates its cached blocks
        from the volume — a cache must not serve reads the server could
        not.  Detection is deliberately left to the failure path: the
        health registry learns of the crash from replica errors or
        breaker transitions, exactly as a real deployment would.
        """
        self.file_servers[volume_id].crash()
        # The disk server rode the same machine: its volatile track
        # cache dies too (it must not serve reads the disk cannot).
        cache = self.disk_servers[volume_id].cache
        if cache is not None:
            cache.invalidate()
        if self.bus is not None:
            self.bus.set_down(file_server_address(volume_id))
        for machine in self.machines:
            machine.file_agent.invalidate_volume(volume_id)
        self.metrics.add("cluster.volume_failures")

    def restart_volume(self, volume_id: int) -> None:
        """Bring a failed volume back: repair, recover, announce.

        Runs the full transaction-service recovery (redo committed
        work, discard the rest), reopens the bus endpoint, and fires
        the health registry's recovery event — which triggers replica
        resync and orphan sweeps synchronously.  An open circuit
        breaker is *not* reset: its cooldown is part of the modelled
        detection lag and is charged to the unavailability window.
        """
        self.disks[volume_id].repair()
        self.coordinator.recover_volume(volume_id)
        if self.bus is not None:
            self.bus.set_down(file_server_address(volume_id), False)
        self.metrics.add("cluster.volume_restarts")
        self.health.note_recovered(volume_component(volume_id))

    # ------------------------------------------------- RAID lifecycle

    def _on_array_state(self, volume_id: int, old: ArrayState, new: ArrayState) -> None:
        """Route an array's state transition into the health registry.

        FAILED is a volume-down verdict; DEGRADED and REBUILDING are
        transient evidence (the volume still serves, redundancy is
        reduced); a return to OPTIMAL clears suspicion — firing the
        registry's repair hooks only if the volume had actually been
        marked down.
        """
        component = volume_component(volume_id)
        if new is ArrayState.FAILED:
            self.health.mark_down(component)
        elif new is ArrayState.OPTIMAL:
            if self.health.is_down(component):
                self.health.note_recovered(component)
            else:
                self.health.note_ok(component)
        else:
            self.health.note_error(component, permanent=False)

    def fail_member(self, volume_id: int, member_index: int) -> None:
        """Kill one member drive of a RAID-backed volume."""
        self.arrays[volume_id].fail_member(member_index)
        self.metrics.add("cluster.member_failures")

    def replace_member(
        self, volume_id: int, member_index: int, *, blank: bool = True
    ) -> RaidRebuilder:
        """Swap a failed member and start its background rebuild.

        The rebuild advances only when :meth:`step_rebuilds` is called,
        so the caller chooses its idle points (the returned rebuilder's
        ``run_cycle`` runs it to completion).
        """
        array = self.arrays[volume_id]
        array.replace_member(member_index, blank=blank)
        rebuilder = RaidRebuilder(array)
        self.rebuilders[volume_id] = rebuilder
        self.metrics.add("cluster.member_replacements")
        return rebuilder

    def step_rebuilds(self) -> int:
        """Advance every in-flight rebuild one step; returns chunks built.

        Finished (or cancelled) rebuilders are retired from
        :attr:`rebuilders`; call from workload idle points, as the
        availability campaign does between operations.
        """
        built = 0
        for volume_id in sorted(self.rebuilders):
            rebuilder = self.rebuilders[volume_id]
            built += rebuilder.step()
            if rebuilder.done:
                del self.rebuilders[volume_id]
        return built

    def total_disk_references(self) -> int:
        """Data-disk references only (stable mirrors excluded).

        For RAID-backed volumes the member drives are the data disks:
        their reference counters are the quantity the paper's argument
        bounds (the array itself issues no references of its own).
        """
        if self.config.raid_level is not None:
            return sum(
                self.metrics.get(f"disk.{volume_id}.m{index}.references")
                for volume_id in range(self.config.n_disks)
                for index in range(self.config.raid_members)
            )
        return sum(
            self.metrics.get(f"disk.{volume_id}.references")
            for volume_id in range(self.config.n_disks)
        )

    def __repr__(self) -> str:
        return (
            f"RhodosCluster(machines={self.config.n_machines}, "
            f"disks={self.config.n_disks}, now_ms={self.clock.now_ms:.1f})"
        )
