"""A cluster flush costs its slowest volume, not the sum of its volumes.

Each volume has its own data disk and its own pair of stable mirrors,
so ``RhodosCluster.flush_all`` runs the file servers' flushes as the
branches of one ``common/frames.py::fan_out`` — the rule an array
reference (``tests/simdisk/test_raid_overlap.py``) and a replicated
write (``tests/replication/test_write_overlap.py``) already follow.
Every rig dirties each volume with the same bytes straight at its file
server, so the agents' caches are clean and the flush is the servers'.
"""

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.common.frames import active_frame, service_frame
from repro.common.units import BLOCK_SIZE
from repro.simdisk.geometry import DiskGeometry


def payload(n_bytes, seed=7):
    return bytes((seed * 37 + i) % 256 for i in range(n_bytes))


def dirty_cluster(n_disks):
    """A cluster whose every volume holds the same delayed (dirty) file."""
    cluster = RhodosCluster(
        ClusterConfig(n_disks=n_disks, geometry=DiskGeometry.small())
    )
    for file_server in cluster.file_servers.values():
        name = file_server.create()
        file_server.write(name, 0, payload(3 * BLOCK_SIZE + 100))
    return cluster


def blocking_cost(clock, flush):
    assert active_frame(clock) is None
    started = clock.now_us
    flush()
    return clock.now_us - started


def alone(n_disks, volume_id):
    """Blocking cost of one volume's flush, on a twin, with no fan-out."""
    cluster = dirty_cluster(n_disks)
    return blocking_cost(cluster.clock, cluster.file_servers[volume_id].flush)


def test_a_flush_costs_its_slowest_volume_not_the_sum():
    volumes = [alone(4, volume_id) for volume_id in range(4)]
    cluster = dirty_cluster(4)
    waited = blocking_cost(cluster.clock, cluster.flush_all)
    assert min(volumes) > 0
    assert waited == max(volumes)
    assert waited < sum(volumes)
    # The join leaves no drive busy past the caller's now.
    for volume_id, disk in enumerate(cluster.disks):
        stable = cluster.disk_servers[volume_id].stable
        for drive in (disk, stable.mirror_a, stable.mirror_b):
            assert drive.timeline.busy_until_us <= cluster.clock.now_us


def test_one_volume_costs_exactly_its_file_servers_flush():
    cluster = dirty_cluster(1)
    assert blocking_cost(cluster.clock, cluster.flush_all) == alone(1, 0)


@pytest.mark.parametrize("n_disks", [1, 4])
def test_inside_a_frame_only_the_cursor_moves(n_disks):
    blocking, framed = dirty_cluster(n_disks), dirty_cluster(n_disks)
    waited = blocking_cost(blocking.clock, blocking.flush_all)
    started = framed.clock.now_us
    with service_frame(framed.clock) as frame:
        framed.flush_all()
    assert framed.clock.now_us == started
    assert frame.cursor_us - started == waited
