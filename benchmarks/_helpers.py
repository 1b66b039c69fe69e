"""Shared plumbing for the benchmark suite."""

from __future__ import annotations

from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.common.clock import SimClock
from repro.common.metrics import Metrics
from repro.disk_service.server import DiskServer
from repro.file_service.server import FileServer
from repro.simdisk.disk import SimDisk
from repro.simdisk.geometry import DiskGeometry
from repro.simdisk.stable import StableStore
from repro.simkernel.runner import InterleavedRunner
from repro.tools.bench import print_table  # noqa: F401 - the benches import it from here


def build_disk_server(
    *,
    geometry: DiskGeometry | None = None,
    disk_id: str = "0",
    **kwargs,
) -> DiskServer:
    clock, metrics = SimClock(), Metrics()
    disk = SimDisk(disk_id, geometry or DiskGeometry.small(), clock, metrics)
    stable = StableStore(
        SimDisk(f"{disk_id}.sa", DiskGeometry.small(), clock, metrics),
        SimDisk(f"{disk_id}.sb", DiskGeometry.small(), clock, metrics),
    )
    return DiskServer(disk, stable, clock, metrics, **kwargs)


def build_file_server(
    *,
    geometry: DiskGeometry | None = None,
    volume_id: int = 0,
    disk_kwargs: dict | None = None,
    **kwargs,
) -> FileServer:
    clock, metrics = SimClock(), Metrics()
    disk = SimDisk(str(volume_id), geometry or DiskGeometry.medium(), clock, metrics)
    stable = StableStore(
        SimDisk(f"{volume_id}.sa", DiskGeometry.small(), clock, metrics),
        SimDisk(f"{volume_id}.sb", DiskGeometry.small(), clock, metrics),
    )
    server = DiskServer(disk, stable, clock, metrics, **(disk_kwargs or {}))
    return FileServer(volume_id, server, clock, metrics, **kwargs)


def build_cluster(**overrides) -> RhodosCluster:
    return RhodosCluster(ClusterConfig(**overrides))


def make_txn_runner(cluster: RhodosCluster, *, think_time_us: int = 100) -> InterleavedRunner:
    """A runner wired to the cluster's lock-timeout machinery."""
    coordinator = cluster.coordinator
    clock = cluster.clock

    def on_stall(now):
        next_expiry = coordinator.next_expiry_us()
        if next_expiry is None:
            return False
        clock.advance_to(next_expiry)
        coordinator.expire_locks(clock.now_us)
        return True

    return InterleavedRunner(
        clock,
        think_time_us=think_time_us,
        on_stall=on_stall,
        on_step=lambda now: coordinator.expire_locks(now),
    )


def pattern(n_bytes: int, seed: int = 1) -> bytes:
    return bytes((seed * 131 + index) % 256 for index in range(n_bytes))


def data_disk_references(cluster: RhodosCluster) -> int:
    return cluster.total_disk_references()


def contiguity_runs(server: FileServer, name) -> int:
    """How many contiguous runs a file's blocks form (1 = perfect)."""
    from repro.file_service.fit import contiguous_runs

    fit = server.load_fit(name)
    mapped = [desc for desc in fit.direct if desc is not None]
    if not mapped:
        return 0
    runs = [
        run
        for run in contiguous_runs(fit.direct, 0, len(fit.direct) - 1)
        if run[2] >= 0
    ]
    return len(runs)
