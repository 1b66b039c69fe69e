"""Exhaustive crash sweep over the basic file service workload.

Every physical write the append-overwrite workload performs — data
disk and both stable mirrors — is crashed exactly once (torn), the
volume recovered, and the full invariant set checked: stable mirror
agreement, free-extent/bitmap reconciliation, zero fsck errors, and
flushed file contents surviving bit-exact.
"""

from repro.chaos.scheduler import CrashScheduler
from repro.chaos.trace import CrashPointMonitor
from repro.chaos.workloads import AppendOverwriteWorkload
from repro.common.metrics import Metrics
from repro.common.units import SECTORS_PER_BLOCK, SECTORS_PER_FRAGMENT


class TestCountingRun:
    def test_workload_is_deterministic(self):
        """Two counting runs must produce identical write traces —
        the property that makes crash-point replay sound."""
        first = AppendOverwriteWorkload()
        first.run()
        second = AppendOverwriteWorkload()
        second.run()
        trace_a = [
            (e.disk_id, e.start, e.n_sectors) for e in first.monitor.write_entries()
        ]
        trace_b = [
            (e.disk_id, e.start, e.n_sectors) for e in second.monitor.write_entries()
        ]
        assert trace_a == trace_b
        assert len(trace_a) > 0

    def test_trace_covers_data_disk_and_stable_mirrors(self):
        workload = AppendOverwriteWorkload()
        workload.run()
        layers = {entry.layer() for entry in workload.monitor.write_entries()}
        assert layers == {"data disk", "stable mirror"}
        syncs = [e for e in workload.monitor.trace if e.kind == "stable-sync"]
        assert syncs, "careful writes must mark their sync boundaries"

    def test_the_last_flush_writes_back_only_the_overwritten_fragments(self):
        """The last overwrites land on blocks the small pool does not
        hold: the flush writes block 1's second half and block 2's first
        in one put and block 3's first half in the next, so crash points
        fall inside a fragment-granular write-back and between it and
        its neighbour."""
        workload = AppendOverwriteWorkload()
        workload.run()
        name = workload.names["a"]
        server = workload.volume.file_server
        blocks = [server.block_descriptor(name, index).address for index in (1, 2, 3)]
        data = [
            (e.start, e.n_sectors)
            for e in workload.monitor.write_entries()
            if e.layer() == "data disk"
        ]
        half = SECTORS_PER_BLOCK // 2
        sectors = [address * SECTORS_PER_FRAGMENT for address in blocks]
        assert (sectors[0] + half, 2 * half) in data
        assert (sectors[2], half) in data
        assert workload.metrics.get("file_server.0.block_pool.partial_writebacks") == 3
        assert workload.metrics.get("file_server.0.block_pool.merge_reads") == 0

    def test_torn_prefix_is_deterministic_and_in_range(self):
        for point in range(1, 200):
            for n_sectors in (1, 4, 9, 16):
                torn = CrashPointMonitor.torn_sectors(point, n_sectors)
                assert 0 <= torn <= n_sectors
                assert torn == CrashPointMonitor.torn_sectors(point, n_sectors)

    def test_unfinished_workload_raises_on_unreached_point(self):
        scheduler = CrashScheduler(AppendOverwriteWorkload)
        total = scheduler.count_crash_points()
        import pytest

        with pytest.raises(RuntimeError, match="without reaching"):
            scheduler.run_at(total + 1000)


class TestExhaustiveSweep:
    def test_every_crash_point_recovers_cleanly(self):
        """The acceptance sweep: every write crash point, zero
        invariant violations, coverage spanning both layers."""
        metrics = Metrics()
        scheduler = CrashScheduler(AppendOverwriteWorkload, metrics=metrics)
        report = scheduler.sweep()
        assert report.points_run == report.total_points > 0
        assert report.violations == []
        layers = dict(
            (layer, points) for layer, points, _ in report.layer_rows()
        )
        assert layers.get("data disk", 0) > 0
        assert layers.get("stable mirror", 0) > 0
        # Coverage lands in the metrics registry.
        prefix = "chaos.sweep.append-overwrite"
        assert metrics.get(f"{prefix}.points") == report.points_run
        assert metrics.get(f"{prefix}.violations") == 0
        assert metrics.get(f"{prefix}.layer.data_disk") == layers["data disk"]

    def test_coverage_table_renders(self):
        scheduler = CrashScheduler(AppendOverwriteWorkload)
        report = scheduler.sweep(max_points=3)
        table = report.coverage_table()
        assert "append-overwrite" in table
        assert "layer" in table and "total" in table

    def test_bounded_sweep_reports_its_bound(self):
        scheduler = CrashScheduler(AppendOverwriteWorkload)
        report = scheduler.sweep(max_points=5)
        assert report.points_run == 5
        assert report.total_points > 5  # the bound is visible, not silent
