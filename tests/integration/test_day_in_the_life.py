"""A day in the life: every subsystem in one continuous scenario.

Exercises — in a single story — directories, basic files, agents and
caching, transactions (flat and nested), striping, replication,
ports, crash recovery, fsck and backup.  The point is not any single
assertion but that all the moving parts compose.
"""

import pytest

from repro.agents.ports import connect_machines
from repro.cluster.config import ClusterConfig
from repro.cluster.striping import StripedFile
from repro.cluster.system import RhodosCluster
from repro.common.units import BLOCK_SIZE, MIB
from repro.file_service.attributes import LockingLevel
from repro.naming.attributed import AttributedName
from repro.naming.tdirectory import TransactionalDirectory
from repro.simdisk.geometry import DiskGeometry
from repro.tools.backup import dump_volume, restore_volume
from repro.verify.fsck import fsck_volume
from repro.workloads.transactions import make_accounts_file, total_balance


def test_day_in_the_life():
    cluster = RhodosCluster(
        ClusterConfig(n_machines=2, n_disks=3, geometry=DiskGeometry.medium())
    )
    alice = cluster.machines[0]
    bob = cluster.machines[1]

    # 08:00 — Alice lays out her project tree (directories live in files).
    directories = cluster.directories
    directories.mkdir("/home")
    directories.mkdir("/home/alice")
    notes = directories.create_file("/home/alice/notes.md")
    cluster.file_servers[0].write(notes, 0, b"# plan\n- reproduce RHODOS\n")

    # 09:00 — she drafts a report through her file agent (client cache).
    report_fd = alice.file_agent.create(AttributedName.file("/home/alice/report"))
    for paragraph in range(20):
        alice.file_agent.write(report_fd, f"paragraph {paragraph}\n".encode())
    alice.file_agent.close(report_fd)

    # 10:00 — payroll runs transactionally; a nested correction aborts.
    accounts = AttributedName.file("/payroll/accounts")
    make_accounts_file(alice.transactions, accounts, 32)
    parent = alice.transactions.tbegin()
    child = alice.transactions.tbegin(parent=parent)
    descriptor = alice.transactions.topen(child, accounts)
    alice.transactions.tpwrite(child, descriptor, b"\xff" * 8, 0)  # bad fix
    alice.transactions.tabort(child)  # corrected: discard it
    alice.transactions.tend(parent)
    assert total_balance(alice.transactions, accounts, 32) == 32 * 1000

    # 11:00 — Bob archives a dataset too big for one disk (striping).
    dataset = StripedFile.create(
        cluster.naming,
        cluster.file_servers,
        AttributedName.file("/datasets/huge"),
        stripe_bytes=8 * BLOCK_SIZE,
    )
    payload = bytes(range(256)) * (2 * MIB // 256)
    dataset.write(0, payload)

    # 12:00 — the ops config is replicated across all three volumes.
    config_name = AttributedName.file("/etc/cluster.conf")
    cluster.replication.create(config_name, degree=3)
    cluster.replication.write(config_name, 0, b"quorum=2\n")

    # 13:00 — Bob pings Alice over a serial port.
    fd_a, fd_b = connect_machines(
        "ops-line", alice.device_agent, bob.device_agent,
        cluster.clock, cluster.metrics,
    )
    bob.device_agent.write(fd_b, b"lunch?")
    assert alice.device_agent.read(fd_a, 16) == b"lunch?"

    # 14:00 — disaster drill: volume 0 crashes mid-afternoon.
    cluster.flush_all()
    cluster.crash_volume(0)
    # Replicated config still readable (failover).
    assert cluster.replication.read(config_name, 0, 9) == b"quorum=2\n"
    cluster.recover_volume(0)
    cluster.replication.resync(config_name)

    # 15:00 — everything survived: directory tree, report, dataset.
    assert cluster.file_servers[0].read(notes, 0, 6) == b"# plan"
    report_fd = alice.file_agent.open(AttributedName.file("/home/alice/report"))
    assert alice.file_agent.read(report_fd, 12) == b"paragraph 0\n"
    alice.file_agent.close(report_fd)
    assert dataset.read(0, len(payload)) == payload

    # 16:00 — an atomic namespace reorganisation.
    tdir = TransactionalDirectory(directories, alice.transactions)
    directories.mkdir("/archive")
    with tdir.transaction() as view:
        view.rename("/home/alice/notes.md", "/archive/notes.md")
        view.create_file("/home/alice/notes.md")  # fresh notes for tomorrow
    assert directories.exists("/archive/notes.md")

    # 17:00 — nightly maintenance: fsck every volume, then back up vol 0.
    for volume, server in cluster.file_servers.items():
        server.flush()
        report = fsck_volume(server)
        assert report.clean, f"volume {volume}: {report.errors}"
    archive = dump_volume(cluster.file_servers[0])
    mapping = restore_volume(cluster.file_servers[2], archive)
    assert len(mapping) >= 4  # root dir, notes, report, payroll, ...

    # The books balance and the clock only ever moved forward.
    assert total_balance(alice.transactions, accounts, 32) == 32 * 1000
    assert cluster.clock.now_us > 0
