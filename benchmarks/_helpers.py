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
from repro.tools.bench import print_table  # noqa: F401 - the benches import it from here


def build_volume(
    disk_id: str,
    clock: SimClock,
    metrics: Metrics,
    geometry: DiskGeometry,
    *,
    disk=None,
    **kwargs,
) -> DiskServer:
    """A standalone volume: a data disk (``disk``, or a fresh SimDisk of
    ``geometry``), stable storage mirrored over ``<disk_id>.sa`` /
    ``<disk_id>.sb``, and the DiskServer over both."""
    if disk is None:
        disk = SimDisk(disk_id, geometry, clock, metrics)
    stable = StableStore(
        SimDisk(f"{disk_id}.sa", DiskGeometry.small(), clock, metrics),
        SimDisk(f"{disk_id}.sb", DiskGeometry.small(), clock, metrics),
    )
    return DiskServer(disk, stable, clock, metrics, **kwargs)


def build_disk_server(
    *,
    geometry: DiskGeometry | None = None,
    disk_id: str = "0",
    **kwargs,
) -> DiskServer:
    return build_volume(
        disk_id, SimClock(), Metrics(), geometry or DiskGeometry.small(), **kwargs
    )


def build_file_server(
    *,
    geometry: DiskGeometry | None = None,
    volume_id: int = 0,
    disk_kwargs: dict | None = None,
    **kwargs,
) -> FileServer:
    server = build_volume(
        str(volume_id),
        SimClock(),
        Metrics(),
        geometry or DiskGeometry.medium(),
        **(disk_kwargs or {}),
    )
    return FileServer(volume_id, server, server.clock, server.metrics, **kwargs)


def build_cluster(**overrides) -> RhodosCluster:
    return RhodosCluster(ClusterConfig(**overrides))


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
