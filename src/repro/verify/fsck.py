"""fsck for a RHODOS volume.

The checker works the way a real fsck must: it takes nothing on faith
from the in-memory file server.  It scans every allocated fragment for
file index tables (judged by the file server's one rule for which copy
of a FIT counts), walks each FIT's block-map tree (through the one
walker in :mod:`repro.file_service.fit`, reading blocks itself), and
reconciles the result against the allocation bitmap:

* **cross-linked blocks** — two files claiming the same disk block;
* **lost blocks** — referenced by a FIT but free in the bitmap;
* **orphaned fragments** — allocated in the bitmap but referenced by
  no FIT (space leaks);
* **stale contiguity counts** — a stored count field disagreeing with
  the actual layout (would make reads fetch wrong runs);
* **size anomalies** — a recorded file size beyond the mapped blocks;
* **wild addresses** — a tree pointer or block descriptor past the end
  of the disk (a FIT stored before the tree blocks it names);
* **latent corruption** (optional pass, ``verify_media=True``) — every
  recorded fragment checksum recomputed against the raw sectors; a
  mismatch or unreadable sector is *reported, never repaired* — repair
  is the scrubber's job (:mod:`repro.disk_service.scrub`).

The report distinguishes *errors* (integrity broken) from *warnings*
(suboptimal but safe).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.common.errors import MediaError
from repro.common.units import BLOCK_SIZE, FRAGMENTS_PER_BLOCK
from repro.disk_service.server import DiskServer
from repro.disk_service.addresses import Extent
from repro.file_service.fit import (
    FIT_MAGIC,
    FileIndexTable,
    TreeBlock,
    logical_map,
    pointer_block_of,
    recompute_counts,
    walk_tree,
)
from repro.file_service.server import FileServer, stored_fit


@dataclass
class FsckReport:
    """Everything the checker found on one volume."""

    volume_id: int
    files_found: int = 0
    blocks_referenced: int = 0
    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    orphaned_fragments: int = 0
    #: Every fragment some FIT accounts for (FITs, tree blocks, data).
    referenced: Set[int] = field(default_factory=set, repr=False)

    @property
    def clean(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        status = "CLEAN" if self.clean else f"{len(self.errors)} ERROR(S)"
        return (
            f"volume {self.volume_id}: {status} — {self.files_found} files, "
            f"{self.blocks_referenced} data blocks, "
            f"{self.orphaned_fragments} orphaned fragments, "
            f"{len(self.warnings)} warning(s)"
        )


def scan_fits(
    disk: DiskServer, warnings: Optional[List[str]] = None
) -> Dict[int, FileIndexTable]:
    """Rediscover every FIT of a volume: fragment number -> decoded FIT.

    Trusts nothing volatile: every allocated fragment is read, and one
    whose main copy carries the FIT magic or cannot be read is judged
    by the file server's own rule, read only
    (:func:`repro.file_service.server.stored_fit`).  Fragments that
    could not be judged are described in ``warnings``; a caller that
    passes no list (a backup must not silently skip a file) gets an
    unreadable fragment's :class:`MediaError` raised instead.
    """
    fits: Dict[int, FileIndexTable] = {}
    for run in disk.bitmap.allocated_runs():
        for fragment in range(run.start, run.end):
            unreadable: Optional[MediaError] = None
            try:
                main: Optional[bytes] = disk.get(Extent(fragment, 1))
            except MediaError as exc:
                main, unreadable = None, exc
            if main is not None and not main.startswith(FIT_MAGIC):
                continue
            fit, differed = stored_fit(disk, fragment, main, heal=False)
            if fit is not None:
                fits[fragment] = fit
            elif unreadable is not None:
                # Neither readable nor a FIT's stable copy: the media
                # pass (or the scrubber) names it.
                if warnings is None:
                    raise unreadable
                warnings.append(f"fragment {fragment}: unreadable ({unreadable})")
            elif differed and warnings is not None:
                warnings.append(
                    f"fragment {fragment}: FIT magic but undecodable "
                    f"(torn write?)"
                )
    return fits


def _kind(block: TreeBlock) -> str:
    """What the report calls a tree block."""
    if block.leaf is None:
        return "double-indirect pointer block"
    if pointer_block_of(block.leaf) is None:
        return "indirect block"
    return "inner indirect block"


def fsck_volume(server: FileServer, *, verify_media: bool = False) -> FsckReport:
    """Check one volume; purely read-only (uses raw disk reads).

    With ``verify_media=True`` a fourth pass recomputes every recorded
    fragment checksum from the raw sectors and reports mismatches as
    errors (see :func:`verify_checksums`).
    """
    disk = server.disk
    report = FsckReport(volume_id=server.volume_id)
    bitmap = disk.bitmap

    # Pass 1: find the FITs by scanning allocated fragments.
    fits = scan_fits(disk, report.warnings)
    report.files_found = len(fits)

    # Pass 2: walk each FIT's block-map tree.
    owner_of: Dict[int, int] = {}  # block start fragment -> owning FIT
    referenced = report.referenced
    referenced.update(fits)
    untrusted: Dict[int, str] = {}  # tree block address -> why it was not read

    def outside(address: int) -> bool:
        return not 0 <= address <= disk.n_fragments - FRAGMENTS_PER_BLOCK

    def read(address: int) -> Optional[bytes]:
        if outside(address):
            untrusted[address] = f"outside the disk ({disk.n_fragments} fragments)"
            return None
        if bitmap.is_free(address):
            untrusted[address] = "is free"
            return None
        try:
            return disk.get(Extent.for_block_run(address, 1))
        except MediaError as exc:
            untrusted[address] = f"unreadable ({exc})"
            return None

    for fit_address, fit in fits.items():
        blocks = list(walk_tree(fit, read))
        for block in blocks:
            referenced.update(
                range(block.address, block.address + FRAGMENTS_PER_BLOCK)
            )
            if block.descriptors is None:
                report.errors.append(
                    f"FIT {fit_address}: {_kind(block)} {block.address} "
                    f"{untrusted[block.address]}"
                )
        block_map = logical_map(fit, blocks)
        for index, desc in enumerate(block_map):
            if desc is None:
                continue
            report.blocks_referenced += 1
            block_fragments = range(
                desc.address, desc.address + FRAGMENTS_PER_BLOCK
            )
            referenced.update(block_fragments)
            if outside(desc.address):
                report.errors.append(
                    f"FIT {fit_address}: block {index} at {desc.address} "
                    f"is outside the disk ({disk.n_fragments} fragments)"
                )
                continue
            if any(bitmap.is_free(f) for f in block_fragments):
                report.errors.append(
                    f"FIT {fit_address}: block {index} at {desc.address} "
                    f"overlaps free space (lost block)"
                )
            previous_owner = owner_of.get(desc.address)
            if previous_owner is not None and previous_owner != fit_address:
                report.errors.append(
                    f"block at {desc.address} cross-linked between FITs "
                    f"{previous_owner} and {fit_address}"
                )
            owner_of[desc.address] = fit_address
        # Contiguity counts must match the layout.
        expected = recompute_counts(block_map)
        for index, (stored, fresh) in enumerate(zip(block_map, expected)):
            if stored is not None and fresh is not None and stored.count != fresh.count:
                report.warnings.append(
                    f"FIT {fit_address}: block {index} count {stored.count} "
                    f"should be {fresh.count} (stale contiguity count)"
                )
        # Size within the mapped area (holes allowed; beyond-map is not);
        # the map ends at its last mapped block.
        size = fit.attributes.file_size
        if size > len(block_map) * BLOCK_SIZE:
            report.errors.append(
                f"FIT {fit_address}: recorded size {size} exceeds the "
                f"mapped area ({len(block_map) * BLOCK_SIZE} bytes)"
            )

    # Pass 3: orphaned space (allocated, but referenced by nothing).
    n_fragments = disk.n_fragments
    report.orphaned_fragments = (n_fragments - bitmap.free_count) - sum(
        1 for f in referenced if f < n_fragments and not bitmap.is_free(f)
    )
    if report.orphaned_fragments:
        report.warnings.append(
            f"{report.orphaned_fragments} allocated fragments are referenced "
            f"by no FIT (leaked space — or non-file data such as scratch "
            f"extents of in-flight transactions)"
        )

    # Pass 4 (optional): recompute fragment checksums against raw sectors.
    if verify_media:
        report.errors.extend(verify_checksums(disk))
    return report


def verify_checksums(disk: DiskServer) -> List[str]:
    """Recompute every recorded fragment checksum from raw sectors.

    Purely a *reporting* pass: sectors are read below the track cache
    and below the server's verify-on-read path, so nothing is
    reconciled, read-repaired, or cached as a side effect — a finding
    here is latent corruption an administrator (or the scrubber) still
    has to act on.  Unreconciled checksums — entries reloaded from the
    last checkpoint that no read or write has confirmed since a crash —
    are skipped: their recorded CRC may simply lag an in-flux write, so
    a raw recompute cannot call a mismatch rot yet.
    """
    findings: List[str] = []
    for fragment in disk.checksummed_fragments():
        if disk.is_unreconciled(fragment):
            continue
        expected = disk.recorded_checksum(fragment)
        extent = Extent(fragment, 1)
        try:
            blob = disk.disk.read_sectors(extent.first_sector, extent.n_sectors)
        except MediaError as exc:
            findings.append(f"fragment {fragment}: unreadable ({exc})")
            continue
        actual = zlib.crc32(blob)
        if actual != expected:
            findings.append(
                f"fragment {fragment}: checksum mismatch (recorded "
                f"0x{expected:08x}, computed 0x{actual:08x} — latent rot)"
            )
    return findings
