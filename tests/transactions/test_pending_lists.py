"""No-force commit: a ``tend`` leaves its list pending as the redo log.

Recovery redoes pending lists in commit (lsn) order, not tid order; a
basic write or a delete of a file that a pending list covers
checkpoints the volume first, because a redo would otherwise write the
listed bytes over newer ones or into released space; a server that lost
its block pool retires nothing until recovery; the number of pending
lists is bounded; a delete or a swap settles the space it freed at
once; and the committed bytes are what every reader sees
before the checkpoint writes them home.
"""

import pytest

from repro.chaos.trace import CrashPointMonitor
from repro.common.units import BLOCK_SIZE, SECTOR_SIZE, SECTORS_PER_FRAGMENT
from repro.file_service.attributes import LockingLevel
from repro.simdisk.geometry import DiskGeometry
from repro.transactions import coordinator as coordinator_module
from repro.verify.fsck import fsck_volume
from tests.transactions.test_commit_cost import MAIN, build, restart, seed

RECORD = (100, 8)


def seeded():
    """A record-level file of two blocks of ``O``, checkpointed."""
    host, server, naming, coordinator, metrics = build()
    name = seed(host, MAIN, b"O" * (2 * BLOCK_SIZE), LockingLevel.RECORD)
    server.flush()
    return host, server, coordinator, metrics, name


def update(host, tid, fill):
    offset, length = RECORD
    descriptor = host.topen(tid, MAIN)
    host.tpwrite(tid, descriptor, fill * length, offset)
    host.tend(tid)


def record(server, name):
    return server.read(name, RECORD[0], RECORD[1])


def pending_lists(server):
    return [k for k in server.disk.stable.keys() if k.startswith("intentions:")]


class TestRedoRunsInCommitOrder:
    def test_the_earlier_begun_later_committed_value_survives(self):
        host, server, coordinator, _, name = seeded()
        first, second = host.tbegin(), host.tbegin()
        update(host, second, b"2")  # T2 commits first ...
        update(host, first, b"1")  # ... T1, begun first, commits last
        assert record(server, name) == b"1" * 8
        assert len(pending_lists(server)) == 2
        server.crash()
        assert restart(server, coordinator) == (2, 0)
        assert record(server, name) == b"1" * 8
        assert pending_lists(server) == []

    def test_a_retired_list_is_not_redone(self):
        host, server, coordinator, _, name = seeded()
        update(host, host.tbegin(), b"1")
        server.flush()  # the checkpoint retires it
        server.crash()
        assert restart(server, coordinator) == (0, 0)
        assert record(server, name) == b"1" * 8


class TestMixedAccessCheckpointsFirst:
    def test_a_basic_write_after_a_pending_commit_survives_the_redo(self):
        host, server, coordinator, _, name = seeded()
        update(host, host.tbegin(), b"t")
        server.write(name, RECORD[0], b"b" * RECORD[1])
        server.close(name)
        server.crash()
        restart(server, coordinator)
        assert record(server, name) == b"b" * 8

    def test_a_delete_after_a_pending_commit_leaves_recovery_nothing_to_write(self):
        host, server, coordinator, _, name = seeded()
        update(host, host.tbegin(), b"t")
        released = [
            server.block_descriptor(name, index).address for index in range(2)
        ]
        server.delete(name)
        server.crash()
        stable = server.disk.stable
        monitor = CrashPointMonitor().attach(
            server.disk.disk, stable.mirror_a, stable.mirror_b
        )
        restart(server, coordinator)  # raises nothing
        sectors = {
            address * SECTORS_PER_FRAGMENT + sector
            for address in released
            for sector in range(BLOCK_SIZE // SECTOR_SIZE)
        }
        assert not [
            entry
            for entry in monitor.write_entries()
            if entry.disk_id == server.disk.disk.disk_id
            and sectors & set(range(entry.start, entry.start + entry.n_sectors))
        ]
        assert not server.exists(name)
        assert fsck_volume(server).clean


class TestFreedSpaceIsSettledByTheCommit:
    """A delete and a swap store their structure at once; the space they
    freed is settled before ``tend`` returns, or a crash before the
    checkpoint would leak it (redo finds the structure moved)."""

    def test_a_committed_delete_leaks_nothing(self):
        host, server, coordinator, _, _ = seeded()
        tid = host.tbegin()
        host.tdelete(tid, MAIN)
        host.tend(tid)
        server.crash()
        restart(server, coordinator)
        assert fsck_volume(server).orphaned_fragments == 0

    def test_a_committed_swap_leaks_nothing(self):
        host, server, naming, coordinator, _ = build(
            geometry=DiskGeometry.small(), technique="shadow"
        )
        name = seed(host, MAIN, b"O" * (4 * BLOCK_SIZE), LockingLevel.PAGE)
        server.flush()
        retired = server.block_descriptor(name, 1).address
        tid = host.tbegin()
        descriptor = host.topen(tid, MAIN)
        host.tpwrite(tid, descriptor, b"S" * BLOCK_SIZE, BLOCK_SIZE)
        host.tend(tid)
        assert server.block_descriptor(name, 1).address != retired
        server.crash()
        restart(server, coordinator)
        assert server.read(name, BLOCK_SIZE, BLOCK_SIZE) == b"S" * BLOCK_SIZE
        assert fsck_volume(server).orphaned_fragments == 0


class TestACrashedServerRetiresNothing:
    def test_a_flush_between_crash_and_recovery_keeps_the_lists(self):
        # The block pool died with the server; the stable mirrors did
        # not, so the flush completes, but it must not retire the lists
        # whose applied bytes were in that pool.
        host, server, coordinator, _, name = seeded()
        update(host, host.tbegin(), b"c")
        server.crash()
        server.flush()
        assert len(pending_lists(server)) == 1
        assert restart(server, coordinator) == (1, 0)
        assert record(server, name) == b"c" * 8


class TestPendingListsAreBounded:
    def test_the_commit_that_reaches_the_bound_checkpoints(self, monkeypatch):
        monkeypatch.setattr(coordinator_module, "MAX_PENDING_LISTS", 3)
        host, server, coordinator, metrics, name = seeded()
        for fill in (b"1", b"2"):
            update(host, host.tbegin(), fill)
        assert len(pending_lists(server)) == 2
        update(host, host.tbegin(), b"3")
        assert pending_lists(server) == []
        assert metrics.get("transactions.lists_retired") == 1 + 3


class TestCommittedBytesBeforeTheCheckpoint:
    def test_a_basic_read_and_a_flush_all_see_them(self):
        host, server, coordinator, _, name = seeded()
        update(host, host.tbegin(), b"c")
        assert record(server, name) == b"c" * 8  # from the block pool
        home = server.block_descriptor(name, 0).address * SECTORS_PER_FRAGMENT
        platter = server.disk.disk

        def on_disk():
            return platter.read_sectors(home, 1)[RECORD[0] : sum(RECORD)]

        assert on_disk() == b"O" * 8  # not forced
        server.flush()
        assert on_disk() == b"c" * 8

    @pytest.mark.parametrize("technique", ["wal", "shadow"])
    def test_pending_page_commits_redo_in_order(self, technique):
        host, server, naming, coordinator, _ = build(
            geometry=DiskGeometry.small(), technique=technique
        )
        name = seed(host, MAIN, b"O" * (4 * BLOCK_SIZE), LockingLevel.PAGE)
        server.flush()
        for fill in (b"1", b"2", b"3"):
            tid = host.tbegin()
            descriptor = host.topen(tid, MAIN)
            host.tpwrite(tid, descriptor, fill * BLOCK_SIZE, BLOCK_SIZE)
            host.tend(tid)
        server.crash()
        restart(server, coordinator)
        assert server.read(name, BLOCK_SIZE, BLOCK_SIZE) == b"3" * BLOCK_SIZE
        assert fsck_volume(server).clean
