"""One model of replicated-write time: a caller who waits pays what a frame is charged.

A replicated write is one fan-out
(``common/frames.py::fan_out``), the rule an array reference
already follows (``tests/simdisk/test_raid_overlap.py``): the write-all
fan-out runs on the replicas' volumes concurrently, whoever calls.  The
differential check: for degree 2 and 3, over plain and raid5 volumes,
the simulated time a blocking caller waits equals the cursor advance of
the same write issued on a twin cluster inside ``service_frame`` from
the same idle state — and every drive's timeline ends in the same place.
The headline (the slowest replica, not the sum) and the failure paths
are pinned beside it.
"""

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.common.errors import ReplicationError
from repro.common.frames import active_frame, service_frame
from repro.common.units import BLOCK_SIZE
from repro.file_service.cache import WritePolicy
from repro.naming.attributed import AttributedName
from repro.simdisk.geometry import DiskGeometry

NAME = AttributedName.file("/replicated")
N_VOLUMES = 3
LAYOUTS = {"plain": {}, "raid5": {"raid_level": "raid5", "raid_members": 4}}


def payload(n_bytes, seed=7):
    return bytes((seed * 37 + i) % 256 for i in range(n_bytes))


class Rig:
    """A replicated file on its own cluster: every cache off, write-through."""

    def __init__(self, layout, degree):
        self.cluster = RhodosCluster(ClusterConfig.uncached(
            n_disks=N_VOLUMES,
            geometry=DiskGeometry.small(),
            write_policy=WritePolicy.WRITE_THROUGH,
            **LAYOUTS[layout],
        ))
        self.clock = self.cluster.clock
        self.service = self.cluster.replication
        self.replicas = list(self.service.create(NAME, degree=degree).replicas)
        # Known bytes under every block the scripted writes touch.
        self.service.write(NAME, 0, payload(3 * BLOCK_SIZE, seed=1))

    def drives(self):
        """Every drive of every volume: data disk (or members), mirrors."""
        for volume_id, disk in enumerate(self.cluster.disks):
            yield from getattr(disk, "members", (disk,))
            stable = self.cluster.disk_servers[volume_id].stable
            yield stable.mirror_a
            yield stable.mirror_b

    def horizons(self):
        return [drive.timeline.busy_until_us for drive in self.drives()]


# ---------------------------------------------- the scripted writes


def sub_block_overwrite(service):
    service.write(NAME, 100, payload(200))


def whole_block_overwrite(service):
    service.write(NAME, BLOCK_SIZE, payload(BLOCK_SIZE))


def growing_append(service):
    service.write(NAME, 3 * BLOCK_SIZE, payload(BLOCK_SIZE + 10))


WRITES = {
    "sub-block overwrite": sub_block_overwrite,
    "whole-block overwrite": whole_block_overwrite,
    "growing append": growing_append,
}


def blocking_wait(rig, write):
    """Simulated time a caller with no frame waits for ``write``."""
    assert active_frame(rig.clock) is None
    started = rig.clock.now_us
    write(rig.service)
    assert active_frame(rig.clock) is None
    return rig.clock.now_us - started


def framed_advance(rig, write):
    """Cursor advance of ``write`` inside a caller's service frame."""
    started = rig.clock.now_us
    with service_frame(rig.clock) as frame:
        write(rig.service)
    assert rig.clock.now_us == started  # the caller's frame defers it all
    return frame.cursor_us - started


def alone(layout, degree, replica_index, offset, data):
    """Blocking time of one replica's write, on a twin, with no fan-out."""
    rig = Rig(layout, degree)
    replica = rig.replicas[replica_index]
    started = rig.clock.now_us
    rig.cluster.file_servers[replica.volume_id].write(replica, offset, data)
    return rig.clock.now_us - started


@pytest.mark.parametrize("write", list(WRITES.values()), ids=list(WRITES))
@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_blocking_wait_equals_the_frame_cursor_advance(layout, degree, write):
    blocking, framed = Rig(layout, degree), Rig(layout, degree)
    assert blocking.clock.now_us == framed.clock.now_us
    assert blocking.horizons() == framed.horizons()

    waited = blocking_wait(blocking, write)

    assert waited > 0
    assert waited == framed_advance(framed, write)
    assert blocking.horizons() == framed.horizons()
    # Idle again: no drive is still busy when the caller resumes.
    assert max(blocking.horizons()) <= blocking.clock.now_us


class TestHeadlineCost:
    @pytest.mark.parametrize("degree", [2, 3])
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_a_write_costs_its_slowest_replica(self, layout, degree):
        offset, data = 100, payload(200)
        replicas = [
            alone(layout, degree, index, offset, data) for index in range(degree)
        ]
        rig = Rig(layout, degree)
        waited = blocking_wait(
            rig, lambda service: service.write(NAME, offset, data)
        )
        assert min(replicas) > 0
        assert waited == max(replicas)
        assert waited < sum(replicas)


class TestFailurePaths:
    def test_a_crashed_replica_goes_stale_and_costs_nothing(self):
        offset, data = 100, payload(200)
        survivor = alone("plain", 2, 0, offset, data)
        rig = Rig("plain", 2)
        lost = rig.replicas[1].volume_id
        rig.cluster.crash_volume(lost)
        started = rig.clock.now_us

        assert rig.service.write(NAME, offset, data) == len(data)

        assert rig.service.lookup(NAME).stale == {lost}
        assert rig.cluster.metrics.get("replication.failovers") == 1
        # The clock stands where the surviving branch ended.
        assert rig.clock.now_us == started + survivor
        assert active_frame(rig.clock) is None

    def test_every_replica_failing_raises_and_closes_the_frame(self):
        rig = Rig("plain", 2)
        for replica in rig.replicas:
            rig.cluster.crash_volume(replica.volume_id)
        started = rig.clock.now_us

        with pytest.raises(ReplicationError):
            sub_block_overwrite(rig.service)

        assert active_frame(rig.clock) is None
        assert rig.clock.now_us >= started
        assert rig.service.lookup(NAME).stale == {
            replica.volume_id for replica in rig.replicas
        }
