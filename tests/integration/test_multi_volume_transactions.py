"""Transactions spanning several volumes.

A transaction may touch files on different disks; each involved
volume's stable store gets intention records and a commit flag, and
each volume recovers independently.  (The paper's design is
single-file-server per file; cross-volume atomicity here is per-volume
commit + idempotent redo — the documented best-effort semantics.)
"""

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.common.errors import DiskCrashedError
from repro.common.units import BLOCK_SIZE
from repro.file_service.attributes import LockingLevel
from repro.naming.attributed import AttributedName
from repro.simdisk.geometry import DiskGeometry

NAME_A = AttributedName.file("/on-zero", volume="0")
NAME_B = AttributedName.file("/on-one", volume="1")


@pytest.fixture
def cluster():
    return RhodosCluster(
        ClusterConfig(n_disks=2, geometry=DiskGeometry.medium())
    )


def seed(cluster):
    host = cluster.machine.transactions
    tid = host.tbegin()
    da = host.tcreate(tid, NAME_A, volume_id=0, locking_level=LockingLevel.PAGE)
    db = host.tcreate(tid, NAME_B, volume_id=1, locking_level=LockingLevel.PAGE)
    host.twrite(tid, da, b"A" * 64)
    host.twrite(tid, db, b"B" * 64)
    host.tend(tid)
    return host


class TestMultiVolumeCommit:
    def test_single_transaction_updates_both_volumes(self, cluster):
        host = seed(cluster)
        tid = host.tbegin()
        da = host.topen(tid, NAME_A)
        db = host.topen(tid, NAME_B)
        host.tpwrite(tid, da, b"a2", 0)
        host.tpwrite(tid, db, b"b2", 0)
        host.tend(tid)
        name_a = cluster.naming.resolve_file(NAME_A)
        name_b = cluster.naming.resolve_file(NAME_B)
        assert cluster.file_servers[0].read(name_a, 0, 2) == b"a2"
        assert cluster.file_servers[1].read(name_b, 0, 2) == b"b2"

    def test_abort_discards_on_both_volumes(self, cluster):
        host = seed(cluster)
        tid = host.tbegin()
        da = host.topen(tid, NAME_A)
        db = host.topen(tid, NAME_B)
        host.tpwrite(tid, da, b"xx", 0)
        host.tpwrite(tid, db, b"yy", 0)
        host.tabort(tid)
        assert cluster.file_servers[0].read(
            cluster.naming.resolve_file(NAME_A), 0, 2
        ) == b"AA"
        assert cluster.file_servers[1].read(
            cluster.naming.resolve_file(NAME_B), 0, 2
        ) == b"BB"

    def test_no_residue_on_either_stable_store(self, cluster):
        host = seed(cluster)
        tid = host.tbegin()
        da = host.topen(tid, NAME_A)
        db = host.topen(tid, NAME_B)
        host.tpwrite(tid, da, b"11", 0)
        host.tpwrite(tid, db, b"22", 0)
        host.tend(tid)
        cluster.flush_all()  # the checkpoint retires both lists
        for volume in (0, 1):
            stable = cluster.disk_servers[volume].stable
            leftovers = [
                key
                for key in stable.keys()
                if key.startswith(("intentions:", "txndecision:"))
            ]
            assert leftovers == []

    @pytest.mark.parametrize("crashed", [0, 1])
    @pytest.mark.parametrize("crash_at_write", [1, 2, 3])
    def test_per_volume_crash_recovery(self, cluster, crashed, crash_at_write):
        """Crash one of the two volumes during a cross-volume commit:
        after per-volume recovery, each volume individually holds its
        old or its new value (per-volume atomicity)."""
        host = seed(cluster)
        tid = host.tbegin()
        da = host.topen(tid, NAME_A)
        db = host.topen(tid, NAME_B)
        host.tpwrite(tid, da, b"N" * 64, 0)
        host.tpwrite(tid, db, b"M" * 64, 0)
        cluster.disks[crashed].faults.crash_after_writes(crash_at_write)
        try:
            host.tend(tid)
        except DiskCrashedError:
            pass
        cluster.disks[crashed].repair()
        cluster.coordinator.recover_volume(0)
        cluster.coordinator.recover_volume(1)
        content_a = cluster.file_servers[0].read(
            cluster.naming.resolve_file(NAME_A), 0, 64
        )
        content_b = cluster.file_servers[1].read(
            cluster.naming.resolve_file(NAME_B), 0, 64
        )
        assert content_a in (b"A" * 64, b"N" * 64)
        assert content_b in (b"B" * 64, b"M" * 64)

    def test_locks_span_volumes(self, cluster):
        from repro.simkernel.runner import LockWaitPending

        host = seed(cluster)
        tid = host.tbegin()
        da = host.topen(tid, NAME_A)
        db = host.topen(tid, NAME_B)
        host.tpwrite(tid, da, b"zz", 0)
        host.tpwrite(tid, db, b"ww", 0)
        other = host.tbegin()
        oa = host.topen(other, NAME_A)
        ob = host.topen(other, NAME_B)
        with pytest.raises(LockWaitPending):
            host.tpread(other, oa, 2, 0)
        with pytest.raises(LockWaitPending):
            host.tpread(other, ob, 2, 0)
        host.tend(tid)
        assert host.tpread(other, oa, 2, 0) == b"zz"
        assert host.tpread(other, ob, 2, 0) == b"ww"
        host.tend(other)
