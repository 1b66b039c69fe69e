"""Crash sweep over the close path.

The create-close workload makes ``close`` its durability point: each
close writes the file's dirty blocks back one put per contiguous run
and stores the FIT only when its structure moved — after the blocks,
and in one put with the run that starts right after its fragment.  The
free-space tail record goes to the stable mirrors beside those data
writes, issued after them, and the FIT's stable copy follows both; a
delete writes only the FIT's stable tombstone, one sector per mirror.
Before its first close the file does not survive a crash.  Every
physical write is crashed once and the recovered file must be one of
the outcomes the script admits at that instant, hold no byte of the
file deleted before it, and fsck must be clean.
"""

from repro.chaos.scheduler import CrashScheduler
from repro.chaos.workloads import CreateCloseWorkload
from repro.common.metrics import Metrics
from repro.common.units import BLOCK_SIZE, SECTORS_PER_FRAGMENT

SECTORS_PER_BLOCK = BLOCK_SIZE // 512


def data_writes(workload):
    """(first sector, sectors) of every write to the data disk."""
    return [
        (entry.start, entry.n_sectors)
        for entry in workload.monitor.write_entries()
        if entry.disk_id == "chaos0"
    ]


class TestCountingRun:
    def test_each_close_is_one_reference_per_run(self):
        workload = CreateCloseWorkload()
        workload.run()
        fit = SECTORS_PER_FRAGMENT
        assert [n_sectors for _, n_sectors in data_writes(workload)] == [
            fit + 4 * SECTORS_PER_BLOCK,  # the residue's close: FIT, blocks 0-3
            fit + SECTORS_PER_BLOCK,  # the neighbour's close: FIT, block 0
            fit + 3 * SECTORS_PER_BLOCK,  # first close: FIT, blocks 0-2
            2 * SECTORS_PER_BLOCK,  # second close: blocks 2-3, one put ...
            fit,  # ... then the FIT, whose size moved
        ]

    def test_the_file_takes_the_deleted_files_sectors(self):
        workload = CreateCloseWorkload()
        workload.run()
        writes = data_writes(workload)
        residue, first_close = writes[0], writes[2]
        assert residue[0] == first_close[0] == 0
        assert first_close[1] < residue[1]

    def test_the_neighbours_close_falls_between_create_and_first_close(self):
        """Five crash points where the file exists only in memory: the
        neighbour's FIT and block, the free-space tail record (the
        residue's frees and the neighbour's allocation — the file's
        blocks are scratch until its close) and the neighbour's FIT's
        stable copy.  The file's own close then appends its allocation
        to the tail."""
        workload = CreateCloseWorkload()
        workload.run()
        entries = workload.monitor.write_entries()
        tombstone = next(entry.index for entry in entries if entry.n_sectors == 1)
        first_close = next(
            entry.index
            for entry in entries
            if entry.disk_id == "chaos0"
            and entry.n_sectors == SECTORS_PER_FRAGMENT + 3 * SECTORS_PER_BLOCK
        )
        around = [
            (entry.disk_id, entry.n_sectors)
            for entry in entries
            if tombstone <= entry.index < first_close
        ]
        # The residue's delete is its FIT's stable tombstone (one sector
        # per mirror); then the neighbour's close: its FIT and block, the
        # tail record, the FIT's stable copy.
        assert around == [
            ("chaos0.stable_a", 1),
            ("chaos0.stable_b", 1),
            ("chaos0", SECTORS_PER_FRAGMENT + SECTORS_PER_BLOCK),
            ("chaos0.stable_a", 3),
            ("chaos0.stable_b", 3),
            ("chaos0.stable_a", 5),
            ("chaos0.stable_b", 5),
        ]


class TestExhaustiveSweep:
    def test_every_crash_point_recovers_an_admissible_file(self):
        metrics = Metrics()
        report = CrashScheduler(CreateCloseWorkload, metrics=metrics).sweep()
        assert report.points_run == report.total_points == 23
        assert report.violations == []
        layers = {layer: points for layer, points, _ in report.layer_rows()}
        assert layers.get("data disk", 0) > 0
        assert layers.get("stable mirror", 0) > 0
        assert metrics.get("chaos.sweep.create-close.violations") == 0
