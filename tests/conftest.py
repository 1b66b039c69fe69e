"""Shared fixtures: single components and assembled stacks."""

from __future__ import annotations

import pytest

from repro.agents.routing import FILE_SERVER_OPS, FileServiceRouter
from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.common.clock import SimClock
from repro.common.metrics import Metrics
from repro.disk_service.server import DiskServer
from repro.file_service.server import FileServer
from repro.naming.service import NamingService
from repro.rpc.endpoint import direct_caller
from repro.simdisk.disk import SimDisk
from repro.simdisk.geometry import DiskGeometry
from repro.simdisk.stable import StableStore


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def metrics() -> Metrics:
    return Metrics()


def build_disk(
    clock: SimClock,
    metrics: Metrics,
    *,
    disk_id: str = "0",
    geometry: DiskGeometry | None = None,
) -> SimDisk:
    return SimDisk(disk_id, geometry or DiskGeometry.small(), clock, metrics)


def build_stable(clock: SimClock, metrics: Metrics, *, tag: str = "0") -> StableStore:
    return StableStore(
        SimDisk(f"{tag}.stable_a", DiskGeometry.small(), clock, metrics),
        SimDisk(f"{tag}.stable_b", DiskGeometry.small(), clock, metrics),
    )


def build_disk_server(
    clock: SimClock,
    metrics: Metrics,
    *,
    disk_id: str = "0",
    geometry: DiskGeometry | None = None,
    **kwargs,
) -> DiskServer:
    disk = build_disk(clock, metrics, disk_id=disk_id, geometry=geometry)
    stable = build_stable(clock, metrics, tag=disk_id)
    return DiskServer(disk, stable, clock, metrics, **kwargs)


def build_file_server(
    clock: SimClock,
    metrics: Metrics,
    *,
    volume_id: int = 0,
    geometry: DiskGeometry | None = None,
    disk_kwargs: dict | None = None,
    **kwargs,
) -> FileServer:
    disk_server = build_disk_server(
        clock,
        metrics,
        disk_id=str(volume_id),
        geometry=geometry or DiskGeometry.medium(),
        **(disk_kwargs or {}),
    )
    return FileServer(volume_id, disk_server, clock, metrics, **kwargs)


def build_direct_router(servers: dict[int, FileServer]) -> FileServiceRouter:
    """A router dispatching in-process to ``servers`` (volume id -> server)."""
    return FileServiceRouter(
        {
            volume_id: direct_caller(server, FILE_SERVER_OPS)
            for volume_id, server in servers.items()
        }
    )


@pytest.fixture
def disk(clock, metrics) -> SimDisk:
    return build_disk(clock, metrics)


@pytest.fixture
def stable(clock, metrics) -> StableStore:
    return build_stable(clock, metrics)


@pytest.fixture
def disk_server(clock, metrics) -> DiskServer:
    return build_disk_server(clock, metrics)


@pytest.fixture
def file_server(clock, metrics) -> FileServer:
    return build_file_server(clock, metrics)


@pytest.fixture
def naming(metrics) -> NamingService:
    return NamingService(metrics)


@pytest.fixture
def cluster() -> RhodosCluster:
    return RhodosCluster(ClusterConfig())


@pytest.fixture
def small_cluster() -> RhodosCluster:
    return RhodosCluster(
        ClusterConfig(geometry=DiskGeometry.small(), n_machines=2, n_disks=2)
    )
