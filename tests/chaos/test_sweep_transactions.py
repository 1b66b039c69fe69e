"""Exhaustive crash sweeps over the transaction-service workloads.

All-or-nothing at every crash point: the intentions-list protocol on a
single volume — committed by WAL, by the shadow-page technique, and as
several record items (inline and extent-carried) coalesced into one put
per block — and the
decision-record discipline across two volumes (a crash between the
per-volume list writes and the decision must not split the outcome).
The broken-recovery class proves the harness has teeth: with the
deliberately broken recovery path enabled, the sweep reports violations
instead of passing vacuously.  The ``txn-pending`` sweep leaves lists
pending across crash points, begun in one order and committed in the
other; its twin redoes them in tid order and must be caught.  The last
classes crash a recovery again at each write it performs: a shadow
commit's recovery redoes an adopt that the durable free space already
holds, which must record nothing, and a pending commit's recovery
checkpoints what it redid.
"""

import pytest

from repro.chaos.scheduler import CrashScheduler
from repro.chaos.workloads import (
    PendingCommitWorkload,
    RecordCommitWorkload,
    ShadowCommitWorkload,
    TransactionCommitWorkload,
    TwoVolumeCommitWorkload,
)
from repro.common.errors import DiskCrashedError
from repro.transactions.intentions import INLINE_LIMIT


def _sync_labels(workload):
    workload.run()
    return [
        entry.label
        for entry in workload.monitor.trace
        if entry.kind == "stable-sync"
    ]


def _assert_sweeps_clean(workload):
    report = CrashScheduler(workload).sweep()
    assert report.points_run == report.total_points > 0
    assert report.violations == []


def _assert_broken_recovery_is_caught(workload):
    report = CrashScheduler(workload, break_recovery=True).sweep()
    assert report.violations, (
        "the sweep passed with recovery redo disabled — the harness "
        "has no teeth"
    )
    # Failure messages carry the crash point and an exact repro
    # command (the fault-injection seed surfacing requirement).
    for violation in report.violations:
        assert "crash point" in violation
        assert "--only" in violation and "--break-recovery" in violation


class TestSingleVolumeCommit:
    def test_every_crash_point_is_all_or_nothing(self):
        _assert_sweeps_clean(TransactionCommitWorkload)

    def test_shadow_commit_is_all_or_nothing(self):
        _assert_sweeps_clean(ShadowCommitWorkload)

    def test_record_commit_is_all_or_nothing(self):
        _assert_sweeps_clean(RecordCommitWorkload)

    def test_sweep_visits_the_commit_machinery(self):
        """The counting run must include the stable-storage writes of
        the intentions lists, not just data blocks."""
        syncs = _sync_labels(TransactionCommitWorkload())
        assert any(label.startswith("intentions:") for label in syncs)
        assert "intentions.retired" in syncs

    def test_shadow_sweep_visits_the_adopt_path(self):
        """Every page of the overwrite is committed by descriptor swap,
        and each swap writes free space (the adopted extent, a tail
        record) before the FIT that references it."""
        workload = ShadowCommitWorkload()
        syncs = _sync_labels(workload)
        assert workload.metrics.get("transactions.shadow_applies") >= 2
        listed = syncs.index("intentions:2:2")
        assert syncs[listed + 1 : listed + 3] == ["bitmap.tail", "ext:0:1"]

    def test_records_sweep_visits_the_coalesced_apply(self):
        """Four record items, two adjacent data blocks: the closing flush
        (the checkpoint) puts both in one reference, and the list it
        follows holds both carriers."""
        workload = RecordCommitWorkload()
        workload.run()
        assert [length <= INLINE_LIMIT for _, length in workload.PATCHES] == [
            True, True, True, False
        ]
        trace = workload.monitor.trace
        listed = next(
            position
            for position, entry in enumerate(trace)
            if entry.label == "intentions:2:2"
        )
        # The measured commit: the one after-image too large to ride in
        # the list and the list on both mirrors.  Then the checkpoint:
        # one put of both in-place blocks, and the FIT.
        commit = trace[listed - 3 : listed] + trace[listed + 1 : listed + 3]
        assert [
            (entry.disk_id.removeprefix("chaos0") or "data", entry.n_sectors)
            for entry in commit
        ] == [
            ("data", 4), (".stable_a", 4), (".stable_b", 4),
            ("data", 32), ("data", 4),
        ]

    def test_pending_sweep_commits_out_of_tid_order_around_a_checkpoint(self):
        """Five lists (the seed's and four record commits); each pair's
        later tid commits first; one watermark between the pairs, and
        the second pair still pending at the end."""
        syncs = _sync_labels(PendingCommitWorkload())
        lists = [
            tuple(int(part) for part in label.split(":")[1:])
            for label in syncs
            if label.startswith("intentions:")
        ]
        assert lists == [(1, 1), (2, 3), (3, 2), (4, 5), (5, 4)]
        assert syncs.count("intentions.retired") == 1
        assert syncs.index("intentions.retired") < syncs.index("intentions:4:5")

    def test_pending_commits_are_all_or_nothing(self):
        _assert_sweeps_clean(PendingCommitWorkload)


class TestTwoVolumeCommit:
    def test_cross_volume_atomicity_at_every_crash_point(self):
        """One transaction spanning two volumes: after a crash at any
        write — including between the two list writes and before the
        decision — recovery yields jointly all-old or all-new contents
        on both volumes."""
        _assert_sweeps_clean(TwoVolumeCommitWorkload)

    def test_decision_record_is_written_and_collected(self):
        workload = TwoVolumeCommitWorkload()
        syncs = _sync_labels(workload)
        assert any(label.startswith("txndecision:") for label in syncs)
        # After a clean run nothing remains: the lists and the decision
        # were all garbage-collected.
        for volume in workload.volumes:
            keys = list(volume.stable.keys())
            assert not [
                k for k in keys if k.startswith(("intentions:", "txndecision:"))
            ]


class TestBrokenRecoveryIsDetected:
    def test_skip_redo_bug_is_caught_by_the_sweep(self):
        """Demonstrably catch a broken recovery path: with redo
        deliberately skipped, some crash point leaves partial commit
        state and the sweep must flag it."""
        _assert_broken_recovery_is_caught(TransactionCommitWorkload)

    def test_skip_redo_bug_is_caught_on_the_new_paths(self):
        """The same teeth on the shadow and coalesced-record sweeps."""
        _assert_broken_recovery_is_caught(ShadowCommitWorkload)
        _assert_broken_recovery_is_caught(RecordCommitWorkload)

    def test_tid_order_redo_is_caught(self):
        """Redo in tid order instead of commit order: the pending pair's
        earlier-begun, later-committed value loses."""
        _assert_broken_recovery_is_caught(PendingCommitWorkload)


def _crashed(workload_cls, point):
    """A fresh workload crashed during write ``point``."""
    workload = workload_cls()
    workload.monitor.arm(point)
    with pytest.raises(DiskCrashedError):
        workload.run()
    return workload


def _watermark_points():
    """Crash points that write the watermark record."""
    workload = ShadowCommitWorkload()
    workload.run()
    slots = {
        entry.start
        for entry in workload.monitor.trace
        if entry.kind == "stable-sync" and entry.label == "intentions.retired"
    }
    return [
        entry.index
        for entry in workload.monitor.write_entries()
        if ".stable_" in entry.disk_id and entry.start in slots
    ]


def _recrash_every_recovery(workload_cls):
    """Each first-order point's recovery, crashed at each write it
    performs, then recovered again: (second-order points, failures)."""
    points = CrashScheduler(workload_cls).count_crash_points()
    second_order = 0
    failures = []
    for point in range(1, points + 1):
        workload = _crashed(workload_cls, point)
        before = workload.monitor.writes_seen
        workload.recover()
        for second in range(1, workload.monitor.writes_seen - before + 1):
            second_order += 1
            workload = _crashed(workload_cls, point)
            workload.monitor.arm(workload.monitor.writes_seen + second)
            with pytest.raises(DiskCrashedError):
                workload.recover()
            workload.recover()
            if workload.check():
                failures.append((point, second, workload.check()))
    return second_order, failures


class TestShadowRecoveryCrashedAgain:
    def test_the_removal_points_are_both_checkpoints_on_both_mirrors(self):
        # Lists are removed by the watermark: the barrier's checkpoint
        # before the swap, and the closing flush.
        assert _watermark_points() == [26, 27, 44, 45]

    def test_a_crash_at_the_second_removal_redoes_the_commit(self):
        """The second checkpoint settled the adopted extents before the
        crash tore its watermark's first copy, so recovery's redo adopts
        extents the durable free space holds.  Stable storage's recovery
        puts the previous watermark back over the torn copy; then come
        the two swapped FITs (main copy, then stable), recovery's own
        watermark and the rebase (the base), on both mirrors."""
        workload = _crashed(ShadowCommitWorkload, 44)
        before = workload.monitor.writes_seen
        swaps = workload.metrics.get("transactions.shadow_applies")
        workload.recover()
        assert workload.check() == []
        assert workload.metrics.get("transactions.shadow_applies") == swaps + 2
        written = workload.monitor.write_entries()[before:]
        fit = [("chaos0", 0), ("chaos0.stable_a", 10), ("chaos0.stable_b", 10)]
        assert [(e.disk_id, e.start) for e in written] == [
            ("chaos0.stable_a", 20)
        ] + fit + fit + [
            ("chaos0.stable_a", 20), ("chaos0.stable_b", 20),
            ("chaos0.stable_a", 0), ("chaos0.stable_b", 0),
        ]

    def test_every_crashed_recovery_recovers_again_to_old_or_new(self):
        """All-or-nothing and a clean fsck at every second-order point."""
        second_order, failures = _recrash_every_recovery(ShadowCommitWorkload)
        assert second_order == 455
        assert failures == []


class TestPendingRecoveryCrashedAgain:
    def test_every_crashed_recovery_recovers_again_in_commit_order(self):
        """The depth-2 slice of ``txn-pending``: a recovery that redoes
        pending lists and checkpoints them, crashed at each of its writes,
        recovers again to an admissible state."""
        second_order, failures = _recrash_every_recovery(PendingCommitWorkload)
        assert second_order == 132
        assert failures == []
