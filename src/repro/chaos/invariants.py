"""Recovery invariants the crash sweep checks after every crash point.

A recovered volume must satisfy five properties, regardless of which
physical write the crash interrupted:

1. **Stable mirror agreement** — after :meth:`StableStore.recover`,
   both careful-write mirrors decode, agree on version, and hold
   identical payloads for every record (Lampson's invariant).
2. **Intentions-list atomicity** — recovery consumed every intentions
   list: a leftover ``intentions:`` key means a transaction was neither
   redone nor discarded.
3. **Free-space reconciliation** — the 64x64 free-extent array indexes
   exactly the maximal free runs of the fragment bitmap.
4. **fsck cleanliness** — no cross-linked blocks, no lost blocks, no
   size anomalies.  Orphaned fragments are *warnings* (leaked space is
   safe); the bitmap-before-structure ordering in the disk server
   guarantees crashes leak, never lose.
5. **Tentative extents never leak** — the warning in 4 is tolerated for
   file space only (creation, growth, deletion).  The disk server holds
   no scratch extent once recovery is done, and no scratch extent the
   crashed run was handed (and never adopted into a file) is still
   allocated without a file referencing it: no bitmap checkpoint ever
   contains one, so there is nothing to leak.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.disk_service.addresses import Extent
from repro.file_service.server import FileServer
from repro.transactions.intentions import LIST_PREFIX
from repro.verify.fsck import fsck_volume


def check_volume(
    file_server: FileServer, scratch_history: Iterable[Extent] = ()
) -> List[str]:
    """All post-recovery invariants of one volume; empty = healthy.

    ``scratch_history`` is every scratch extent the volume's disk
    server handed out before the crash (invariant 5).
    """
    tag = f"volume {file_server.volume_id}"
    violations: List[str] = []

    disk = file_server.disk
    stable = disk.stable
    for problem in stable.verify_mirrors():
        violations.append(f"{tag}: {problem}")

    residue = sorted(
        key
        for key in stable.keys()
        if key.startswith(LIST_PREFIX)
    )
    if residue:
        violations.append(
            f"{tag}: recovery left intention state behind: {residue} "
            f"(transaction neither redone nor discarded)"
        )

    try:
        disk.extent_table.check_against(disk.bitmap)
    except AssertionError as exc:
        violations.append(f"{tag}: free-extent array out of sync: {exc}")

    report = fsck_volume(file_server)
    for error in report.errors:
        violations.append(f"{tag}: fsck: {error}")

    outstanding = disk.scratch_extents()
    if outstanding:
        violations.append(
            f"{tag}: recovery left scratch extents outstanding: {outstanding}"
        )
    leaked = sorted(
        {
            fragment
            for extent in scratch_history
            for fragment in range(extent.start, extent.end)
            if not disk.bitmap.is_free(fragment)
            and fragment not in report.referenced
        }
    )
    if leaked:
        violations.append(
            f"{tag}: tentative extents leaked: fragments {leaked} were "
            f"handed out as scratch, are still allocated and belong to no file"
        )

    return violations
