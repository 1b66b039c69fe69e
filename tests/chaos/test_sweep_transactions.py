"""Exhaustive crash sweeps over the transaction-service workloads.

All-or-nothing at every crash point: the intentions-list protocol on a
single volume — committed by WAL, by the shadow-page technique, and as
several record items (inline and extent-carried) coalesced into one put
per block — and the
decision-record discipline across two volumes (a crash between the
per-volume list writes and the decision must not split the outcome).
The last class proves the harness has teeth: with the deliberately
broken recovery path enabled, the sweep reports violations instead of
passing vacuously.
"""

from repro.chaos.scheduler import CrashScheduler
from repro.chaos.workloads import (
    RecordCommitWorkload,
    ShadowCommitWorkload,
    TransactionCommitWorkload,
    TwoVolumeCommitWorkload,
)
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

    def test_shadow_sweep_visits_the_adopt_path(self):
        """Every page of the overwrite is committed by descriptor swap,
        and each swap checkpoints the bitmap (the adopted extent) before
        the FIT that references it."""
        workload = ShadowCommitWorkload()
        syncs = _sync_labels(workload)
        assert workload.metrics.get("transactions.shadow_applies") >= 2
        listed = syncs.index("intentions:2")
        assert syncs[listed + 1 : listed + 3] == ["bitmap", "ext:0:1"]

    def test_records_sweep_visits_the_coalesced_apply(self):
        """Four record items, two adjacent data blocks: the cleanup flush
        puts both in one reference, and the list it follows holds both
        carriers."""
        workload = RecordCommitWorkload()
        workload.run()
        assert [length <= INLINE_LIMIT for _, length in workload.PATCHES] == [
            True, True, True, False
        ]
        trace = workload.monitor.trace
        listed = next(
            position
            for position, entry in enumerate(trace)
            if entry.label == "intentions:2"
        )
        # The measured commit: the one after-image too large to ride in
        # the list, the list on both mirrors, one put of both in-place
        # blocks, the list's tombstone.  The FIT is the closing flush's.
        commit = trace[listed - 3 : listed] + trace[listed + 1 : listed + 4]
        assert [
            (entry.disk_id.removeprefix("chaos0") or "data", entry.n_sectors)
            for entry in commit
        ] == [
            ("data", 4), (".stable_a", 4), (".stable_b", 4),
            ("data", 32), (".stable_a", 1), (".stable_b", 1),
        ]
        assert trace[listed + 4].n_sectors == 4  # the FIT, at the flush


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
