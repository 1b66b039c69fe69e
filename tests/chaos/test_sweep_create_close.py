"""Crash sweep over the close path.

The create-close workload makes ``close`` its durability point: each
close writes the file's dirty blocks back one put per contiguous run
and stores the FIT only when its structure moved.  Every physical write
is crashed once and the recovered file must be one of the outcomes the
script admits at that instant, with fsck clean.
"""

from repro.chaos.scheduler import CrashScheduler
from repro.chaos.workloads import CreateCloseWorkload
from repro.common.metrics import Metrics
from repro.common.units import BLOCK_SIZE, SECTORS_PER_FRAGMENT

SECTORS_PER_BLOCK = BLOCK_SIZE // 512


class TestCountingRun:
    def test_each_close_is_one_reference_per_run(self):
        workload = CreateCloseWorkload()
        workload.run()
        data = [
            entry.n_sectors
            for entry in workload.monitor.write_entries()
            if entry.disk_id == "chaos0"
        ]
        fit = SECTORS_PER_FRAGMENT
        assert data == [
            fit,  # create
            fit,  # the first write maps blocks 1-2 and reserves block 3
            3 * SECTORS_PER_BLOCK,  # first close: blocks 0-2, one put
            2 * SECTORS_PER_BLOCK,  # second close: blocks 2-3, one put ...
            fit,  # ... then the FIT, whose size moved
            fit,  # delete's tombstone
        ]


class TestExhaustiveSweep:
    def test_every_crash_point_recovers_an_admissible_file(self):
        metrics = Metrics()
        report = CrashScheduler(CreateCloseWorkload, metrics=metrics).sweep()
        assert report.points_run == report.total_points > 0
        assert report.violations == []
        layers = {layer: points for layer, points, _ in report.layer_rows()}
        assert layers.get("data disk", 0) > 0
        assert layers.get("stable mirror", 0) > 0
        assert metrics.get("chaos.sweep.create-close.violations") == 0
