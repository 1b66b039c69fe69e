"""Crash sweeps over the free-space record log, and recovery crashed again.

The ``record-log`` workload settles free space through the format,
seventeen tail appends, a rebase that the full tail forces, and two
appends to the new epoch's tail.  Every crash point must recover the
allocated set before the interrupted write or after it; the broken
twin, which applies a tail whatever its epoch, must be caught; and a
crash inside a rebase must still land on old or new when recovery
itself is crashed at each write it performs.
"""

import pytest

from repro.chaos.scheduler import CrashScheduler
from repro.chaos.workloads import RecordLogWorkload
from repro.common.errors import DiskCrashedError


def _settles(workload):
    """(label, slot start) of every careful write, in order."""
    return [
        (entry.label, entry.start)
        for entry in workload.monitor.trace
        if entry.kind == "stable-sync"
    ]


def _crashed(point):
    """A fresh workload crashed during write ``point``."""
    workload = RecordLogWorkload()
    workload.monitor.arm(point)
    with pytest.raises(DiskCrashedError):
        workload.run()
    return workload


class TestRecordLogSweep:
    def test_every_crash_point_recovers_old_or_new(self):
        report = CrashScheduler(RecordLogWorkload).sweep()
        assert report.points_run == report.total_points == 42
        assert report.violations == []

    def test_the_script_formats_fills_the_tail_rebases_and_appends(self):
        workload = RecordLogWorkload()
        workload.run()
        labels = [label for label, _ in _settles(workload)]
        assert labels == (
            ["bitmap"] + ["bitmap.tail"] * 17 + ["bitmap"] + ["bitmap.tail"] * 2
        )

    def test_broken_recovery_is_caught(self):
        report = CrashScheduler(RecordLogWorkload, break_recovery=True).sweep()
        assert report.violations
        for violation in report.violations:
            assert "crash point" in violation
            assert "--only" in violation and "--break-recovery" in violation


def _rebase_points():
    """Crash points that write a base (the format or the rebase)."""
    workload = RecordLogWorkload()
    workload.run()
    base_slots = {start for label, start in _settles(workload) if label == "bitmap"}
    return [
        entry.index
        for entry in workload.monitor.write_entries()
        if ".stable_" in entry.disk_id and entry.start in base_slots
    ]


class TestRecoveryCrashedInsideARebase:
    def test_the_rebase_points_are_the_format_and_the_rebase(self):
        assert _rebase_points() == [1, 2, 37, 38]

    def test_recovery_writes_after_every_rebase_point_but_the_first(self):
        """A torn first copy of the format leaves no record to repair;
        every other point leaves one mirror to rewrite from the other."""
        written = []
        for point in _rebase_points():
            workload = _crashed(point)
            before = workload.monitor.writes_seen
            workload.recover()
            written.append(workload.monitor.writes_seen - before)
        assert written == [0, 1, 1, 1]

    @pytest.mark.parametrize("point", _rebase_points())
    def test_a_crashed_recovery_recovers_again_to_old_or_new(self, point):
        workload = _crashed(point)
        before = workload.monitor.writes_seen
        workload.recover()
        assert workload.check() == []
        recovery_writes = workload.monitor.writes_seen - before
        for second in range(1, recovery_writes + 1):
            workload = _crashed(point)
            workload.monitor.arm(workload.monitor.writes_seen + second)
            with pytest.raises(DiskCrashedError):
                workload.recover()
            workload.recover()
            assert workload.check() == [], (point, second)
