"""Crash sweep over pipelined, coalesced writes.

The queued-write workload drives a disk server's request pipeline
(SCAN + adjacent-extent coalescing) with waves of adjacent puts, so
each wave lands in one merged disk reference, plus a mirrored put and
its ``release_stable``.  The sweep proves recovery over the merged
schedule: every crash point still fires, a crash mid-batch tears
exactly one merged reference, and every resolved put reads back.
"""

from repro.chaos.scheduler import CrashScheduler
from repro.chaos.workloads import QueuedWriteWorkload
from repro.common.metrics import Metrics
from repro.common.units import FRAGMENT_SIZE, SECTOR_SIZE
from repro.disk_service.addresses import Extent
from repro.disk_service.pipeline import DiskPipeline
from repro.disk_service.scheduler import FcfsScheduler

SECTORS_PER_PIECE = (
    QueuedWriteWorkload.PIECE_FRAGMENTS * FRAGMENT_SIZE // SECTOR_SIZE
)


class _OnePutPerReference(QueuedWriteWorkload):
    """The same script served first come first served: every put is its
    own disk reference, as a blocking put is."""

    def build(self) -> None:
        super().build()
        DiskPipeline(self.volume.disk_server, self.loop, FcfsScheduler())


def data_writes(workload):
    return [
        (entry.start, entry.n_sectors)
        for entry in workload.monitor.write_entries()
        if entry.disk_id == "chaos0"
    ]


def disk_contents(workload):
    server = workload.volume.disk_server
    return {
        fragment: server.get(Extent(fragment, 1), use_cache=False)
        for fragment in sorted(workload.acked)
    }


class TestCountingRun:
    def test_workload_is_deterministic(self):
        traces = []
        for _ in range(2):
            workload = QueuedWriteWorkload()
            workload.run()
            traces.append(
                [
                    (e.disk_id, e.start, e.n_sectors)
                    for e in workload.monitor.write_entries()
                ]
            )
        assert traces[0] == traces[1]
        assert traces[0]

    def test_flushes_actually_coalesce(self):
        """Each wave of adjacent puts is one data-disk reference, and
        the pipeline counts the riders it merged."""
        workload = QueuedWriteWorkload()
        workload.run()
        waves = [
            (start, n_sectors)
            for start, n_sectors in data_writes(workload)
            if n_sectors > SECTORS_PER_PIECE
        ]
        assert [n for _, n in waves] == [
            len(fills) * SECTORS_PER_PIECE for _, fills in workload.WAVES
        ]
        riders = sum(len(fills) - 1 for _, fills in workload.WAVES)
        assert workload.metrics.get(
            "disk_server.chaos0.coalesced_requests"
        ) == riders

    def test_queued_writes_change_physical_schedule_not_content(self):
        """Coalesced or one put per reference, the script acks the same
        bytes and the disk holds them; coalescing never costs more."""
        queued = QueuedWriteWorkload()
        queued.run()
        blocking = _OnePutPerReference()
        blocking.run()
        assert queued.acked == blocking.acked
        assert disk_contents(queued) == disk_contents(blocking) == {
            fragment: fill * FRAGMENT_SIZE
            for fragment, fill in queued.acked.items()
        }
        queued_refs = queued.metrics.get("disk.chaos0.references")
        blocking_refs = blocking.metrics.get("disk.chaos0.references")
        assert queued_refs <= blocking_refs
        assert len(data_writes(queued)) < len(data_writes(blocking))


class TestExhaustiveSweep:
    def test_every_crash_point_recovers_cleanly(self):
        """Zero invariant violations across every write crash point,
        with coalesced references in the swept schedule."""
        metrics = Metrics()
        scheduler = CrashScheduler(QueuedWriteWorkload, metrics=metrics)
        report = scheduler.sweep()
        assert report.points_run == report.total_points > 0
        assert report.violations == []
        layers = dict(
            (layer, points) for layer, points, _ in report.layer_rows()
        )
        assert layers.get("data disk", 0) > 0
        assert layers.get("stable mirror", 0) > 0
        prefix = "chaos.sweep.queued-writes"
        assert metrics.get(f"{prefix}.points") == report.points_run
        assert metrics.get(f"{prefix}.violations") == 0
