"""The file index table (FIT) and block descriptors.

Paper section 5: "The sequence of block descriptors is stored in a
separate data structure called a file index table. ... The location
where a block descriptor is stored in the file index table is defined
as a block-index."  And: "in order to minimize the references to disk,
the file index table stores along with each block descriptor a two
byte count to indicate the number of contiguous successive disk
blocks", so "all successive blocks, which are contiguous, can be
cached using one single invocation of get-block, instead of count
number of invocations".

The FIT lives in a single 2 KB fragment.  Sixty-four direct
descriptors cover 64 x 8 KB = 512 KB, realising the paper's "direct
access to at least half a megabyte of file's data".  Eight
single-indirect and two double-indirect block references remove the
practical file-size limit (each indirect block is a data-block-sized
array of descriptors).

This module is the one home of that layout — the **block-map tree**.
Past the direct descriptors the logical map is cut into *leaves* of
:data:`DESCRIPTORS_PER_INDIRECT` descriptors: leaf ``l`` covers blocks
``DIRECT_DESCRIPTORS + l * DESCRIPTORS_PER_INDIRECT ...``, so block-index
to leaf is one ``divmod``.  Leaves 0-7 hang off ``single_indirect``;
leaf ``8 + 1365 * o + i`` hangs off entry ``i`` of the pointer block
``double_indirect[o]`` names (:func:`pointer_block_of`,
:func:`leaves_under`).  :func:`walk_tree` is the only code that follows
those references, :func:`logical_map` the only code that lays leaves
out flat, :func:`populated_leaves` its inverse; the file server, fsck
and backup all go through them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from repro.common.errors import FileSizeError
from repro.common.units import BLOCK_SIZE, FRAGMENT_SIZE, FRAGMENTS_PER_BLOCK
from repro.file_service.attributes import FileAttributes, LockingLevel, ServiceType

#: First bytes of every FIT fragment (what a volume scan looks for).
FIT_MAGIC = b"RFIT"
_HEADER = struct.Struct("<4sHHQQQQQIBBHII")
_DESC = struct.Struct("<IH")  # address (fragment number of block start), count

#: Descriptor slots directly inside the FIT: 64 blocks = 512 KB.
DIRECT_DESCRIPTORS = 64
DIRECT_COVERAGE_BYTES = DIRECT_DESCRIPTORS * BLOCK_SIZE

#: Descriptors per 8 KB indirect block.
DESCRIPTORS_PER_INDIRECT = BLOCK_SIZE // _DESC.size

SINGLE_INDIRECT_SLOTS = 8
DOUBLE_INDIRECT_SLOTS = 2

#: Largest block-index representable (direct + single + double indirect).
MAX_FILE_BLOCKS = (
    DIRECT_DESCRIPTORS
    + SINGLE_INDIRECT_SLOTS * DESCRIPTORS_PER_INDIRECT
    + DOUBLE_INDIRECT_SLOTS * DESCRIPTORS_PER_INDIRECT * DESCRIPTORS_PER_INDIRECT
)

#: Sentinel meaning "no block here" (sparse hole / unallocated slot).
NULL_ADDRESS = 0xFFFF_FFFF

assert DIRECT_COVERAGE_BYTES == 512 * 1024


@dataclass(frozen=True, slots=True)
class BlockDescriptor:
    """One data block's location plus its contiguity run length.

    Attributes:
        address: fragment number where the 8 KB block starts.
        count: number of contiguous successive disk blocks beginning
            here (always >= 1; the paper's two-byte field).
    """

    address: int
    count: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.address < NULL_ADDRESS:
            raise FileSizeError(f"bad block address {self.address}")
        if not 1 <= self.count <= 0xFFFF:
            raise FileSizeError(f"bad contiguity count {self.count}")


def recompute_counts(
    descriptors: List[Optional[BlockDescriptor]],
) -> List[Optional[BlockDescriptor]]:
    """Recompute every descriptor's contiguity count (backward pass).

    ``count[i]`` is 1 plus ``count[i+1]`` when block i+1 sits exactly
    one block (four fragments) after block i on the disk; counts are
    capped at the two-byte maximum.
    """
    result: List[Optional[BlockDescriptor]] = list(descriptors)
    next_desc: Optional[BlockDescriptor] = None
    for index in range(len(result) - 1, -1, -1):
        desc = result[index]
        if desc is None:
            next_desc = None
            continue
        if (
            next_desc is not None
            and next_desc.address == desc.address + FRAGMENTS_PER_BLOCK
        ):
            count = min(next_desc.count + 1, 0xFFFF)
        else:
            count = 1
        desc = BlockDescriptor(desc.address, count)
        result[index] = desc
        next_desc = desc
    return result


def contiguous_runs(
    descriptors: List[Optional[BlockDescriptor]],
    first_block: int,
    last_block: int,
) -> Iterator[Tuple[int, int, int]]:
    """Group block-indices [first_block, last_block] into contiguous runs.

    Yields ``(block_index, n_blocks, address)`` triples; each triple is
    one ``get_block`` invocation thanks to the count field.  Holes
    (None descriptors) are yielded as ``(block_index, n_blocks, -1)``.
    """
    mapped = len(descriptors)
    index = first_block
    while index <= last_block:
        desc = descriptors[index] if index < mapped else None
        if desc is None:
            start = index
            limit = min(last_block + 1, mapped)
            while index < limit and descriptors[index] is None:
                index += 1
            if index >= mapped:
                # Everything past the end of the map is one hole.
                index = last_block + 1
            yield start, index - start, -1
            continue
        run = min(desc.count, last_block - index + 1)
        yield index, run, desc.address
        index += run


@dataclass(slots=True)
class FileIndexTable:
    """In-memory form of one file's FIT fragment.

    The FIT records *where* the blocks are; indirect blocks themselves
    are read and written by the file server (they are ordinary disk
    blocks whose contents are descriptor arrays).
    """

    attributes: FileAttributes = field(default_factory=FileAttributes)
    direct: List[Optional[BlockDescriptor]] = field(
        default_factory=lambda: [None] * DIRECT_DESCRIPTORS
    )
    single_indirect: List[Optional[int]] = field(
        default_factory=lambda: [None] * SINGLE_INDIRECT_SLOTS
    )
    double_indirect: List[Optional[int]] = field(
        default_factory=lambda: [None] * DOUBLE_INDIRECT_SLOTS
    )

    # ------------------------------------------------------- codec

    def encode(self) -> bytes:
        """Serialise to exactly one fragment (2048 bytes)."""
        attrs = self.attributes
        parts = [
            _HEADER.pack(
                FIT_MAGIC,
                1,  # version
                0,  # flags
                attrs.generation,
                attrs.file_size,
                attrs.created_us,
                attrs.last_read_us,
                attrs.last_write_us,
                attrs.ref_count,
                int(attrs.service_type),
                int(attrs.locking_level),
                attrs.extra_space,
                attrs.open_count_total,
                self.mapped_blocks(),
            )
        ]
        for desc in self.direct:
            if desc is None:
                parts.append(_DESC.pack(NULL_ADDRESS, 0))
            else:
                parts.append(_DESC.pack(desc.address, desc.count))
        for slots in (self.single_indirect, self.double_indirect):
            for address in slots:
                parts.append(
                    struct.pack("<I", NULL_ADDRESS if address is None else address)
                )
        blob = b"".join(parts)
        if len(blob) > FRAGMENT_SIZE:
            raise FileSizeError(f"FIT overflows its fragment ({len(blob)} bytes)")
        return blob + bytes(FRAGMENT_SIZE - len(blob))

    @classmethod
    def decode(cls, blob: bytes) -> "FileIndexTable":
        """Parse a FIT fragment; raises :class:`FileSizeError` on corruption."""
        if len(blob) < FRAGMENT_SIZE:
            raise FileSizeError(f"FIT fragment truncated ({len(blob)} bytes)")
        (
            magic,
            _version,
            _flags,
            generation,
            file_size,
            created_us,
            last_read_us,
            last_write_us,
            ref_count,
            service_type,
            locking_level,
            extra_space,
            open_count_total,
            _n_blocks,
        ) = _HEADER.unpack_from(blob)
        if magic != FIT_MAGIC:
            raise FileSizeError("not a file index table (bad magic)")
        attrs = FileAttributes(
            file_size=file_size,
            created_us=created_us,
            last_read_us=last_read_us,
            last_write_us=last_write_us,
            ref_count=ref_count,
            service_type=ServiceType(service_type),
            locking_level=LockingLevel(locking_level),
            extra_space=extra_space,
            generation=generation,
            open_count_total=open_count_total,
        )
        offset = _HEADER.size
        direct: List[Optional[BlockDescriptor]] = []
        for _ in range(DIRECT_DESCRIPTORS):
            address, count = _DESC.unpack_from(blob, offset)
            offset += _DESC.size
            direct.append(
                None if address == NULL_ADDRESS else BlockDescriptor(address, count)
            )
        single: List[Optional[int]] = []
        for _ in range(SINGLE_INDIRECT_SLOTS):
            (address,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            single.append(None if address == NULL_ADDRESS else address)
        double: List[Optional[int]] = []
        for _ in range(DOUBLE_INDIRECT_SLOTS):
            (address,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            double.append(None if address == NULL_ADDRESS else address)
        return cls(
            attributes=attrs,
            direct=direct,
            single_indirect=single,
            double_indirect=double,
        )

    # ------------------------------------------------------ queries

    def mapped_blocks(self) -> int:
        """Number of direct descriptors in use (indirect counted by server)."""
        return sum(1 for desc in self.direct if desc is not None)

    def uses_indirection(self) -> bool:
        return any(address is not None for address in self.single_indirect) or any(
            address is not None for address in self.double_indirect
        )

    def plausible_on(self, n_fragments: int) -> bool:
        """Could this be a live FIT of a disk of ``n_fragments`` fragments?

        Weeds out data blocks that merely contain FIT-like bytes.
        """
        attrs = self.attributes
        if attrs.generation <= 0 or attrs.file_size > n_fragments * FRAGMENT_SIZE:
            return False
        addresses = [desc.address for desc in self.direct if desc is not None]
        addresses += self.single_indirect + self.double_indirect
        return all(
            address is None or address < n_fragments for address in addresses
        )


def encode_indirect_block(
    descriptors: List[Optional[BlockDescriptor]],
) -> bytes:
    """Serialise one indirect block's descriptor array (8 KB)."""
    if len(descriptors) > DESCRIPTORS_PER_INDIRECT:
        raise FileSizeError("too many descriptors for an indirect block")
    parts = []
    for desc in descriptors:
        if desc is None:
            parts.append(_DESC.pack(NULL_ADDRESS, 0))
        else:
            parts.append(_DESC.pack(desc.address, desc.count))
    parts.append(
        _DESC.pack(NULL_ADDRESS, 0) * (DESCRIPTORS_PER_INDIRECT - len(descriptors))
    )
    blob = b"".join(parts)
    return blob + bytes(BLOCK_SIZE - len(blob))


def decode_indirect_block(blob: bytes) -> List[Optional[BlockDescriptor]]:
    """Parse one indirect block into its descriptor array."""
    if len(blob) != BLOCK_SIZE:
        raise FileSizeError(f"indirect block must be {BLOCK_SIZE} bytes")
    descriptors: List[Optional[BlockDescriptor]] = []
    offset = 0
    for _ in range(DESCRIPTORS_PER_INDIRECT):
        address, count = _DESC.unpack_from(blob, offset)
        offset += _DESC.size
        descriptors.append(
            None if address == NULL_ADDRESS else BlockDescriptor(address, max(count, 1))
        )
    return descriptors


# ------------------------------------------------------ block-map tree


class TreeBlock(NamedTuple):
    """One indirect block of a file's block-map tree, as walked.

    Attributes:
        leaf: the leaf's number; None for a double-indirect pointer block.
        address: fragment number where the 8 KB block starts.
        descriptors: its decoded descriptor array (for a pointer block,
            one descriptor per leaf it names); None if the walker's
            ``read`` returned None for it.
    """

    leaf: Optional[int]
    address: int
    descriptors: Optional[List[Optional[BlockDescriptor]]]


def pointer_block_of(leaf: int) -> Optional[int]:
    """The ``double_indirect`` slot whose pointer block names ``leaf``.

    None for leaves 0-7, which the FIT names itself (``single_indirect``).
    """
    if leaf < SINGLE_INDIRECT_SLOTS:
        return None
    outer = (leaf - SINGLE_INDIRECT_SLOTS) // DESCRIPTORS_PER_INDIRECT
    if outer >= DOUBLE_INDIRECT_SLOTS:
        raise FileSizeError("file exceeds even the double-indirect range")
    return outer


def leaves_under(outer: int) -> range:
    """The leaves ``double_indirect[outer]``'s pointer block names, entry by entry."""
    first = SINGLE_INDIRECT_SLOTS + outer * DESCRIPTORS_PER_INDIRECT
    return range(first, first + DESCRIPTORS_PER_INDIRECT)


def walk_tree(
    fit: FileIndexTable, read: Callable[[int], Optional[bytes]]
) -> Iterator[TreeBlock]:
    """Walk every indirect block ``fit`` references, leaves in ascending order.

    ``read(address)`` fetches one 8 KB tree block; it is called exactly
    once per block, a pointer block before the leaves it names (which
    follow it in the iteration).  It may return None for a block the
    caller will not trust (free in the bitmap, unreadable): that block
    is still yielded, with ``descriptors`` None, and nothing below it is
    visited.
    """

    def block(leaf: Optional[int], address: int) -> TreeBlock:
        blob = read(address)
        return TreeBlock(
            leaf, address, None if blob is None else decode_indirect_block(blob)
        )

    for leaf, address in enumerate(fit.single_indirect):
        if address is not None:
            yield block(leaf, address)
    for outer, address in enumerate(fit.double_indirect):
        if address is None:
            continue
        pointers = block(None, address)
        yield pointers
        for leaf, pointer in zip(leaves_under(outer), pointers.descriptors or ()):
            if pointer is not None:
                yield block(leaf, pointer.address)


def logical_map(
    fit: FileIndexTable, blocks: Iterable[TreeBlock]
) -> List[Optional[BlockDescriptor]]:
    """Fold walked tree blocks into the flat map, index = block-index.

    An absent, unread or empty leaf is a run of holes that keeps later
    leaves aligned — but only if something mapped follows it.  Every
    reader treats an index past the end as a hole, so the map stops at
    the last mapped block: trailing holes are never materialised.
    """
    full: List[Optional[BlockDescriptor]] = list(fit.direct)
    for block in blocks:
        if block.leaf is None or not any(
            desc is not None for desc in block.descriptors or ()
        ):
            continue
        start = DIRECT_DESCRIPTORS + block.leaf * DESCRIPTORS_PER_INDIRECT
        full.extend([None] * (start - len(full)))
        full.extend(block.descriptors)
    while full and full[-1] is None:
        full.pop()
    return full


def populated_leaves(
    block_map: List[Optional[BlockDescriptor]],
) -> Iterator[Tuple[int, List[Optional[BlockDescriptor]]]]:
    """``(leaf, its descriptors)`` for each leaf of a flat map that maps a block."""
    starts = range(DIRECT_DESCRIPTORS, len(block_map), DESCRIPTORS_PER_INDIRECT)
    for leaf, start in enumerate(starts):
        descriptors = block_map[start : start + DESCRIPTORS_PER_INDIRECT]
        if any(desc is not None for desc in descriptors):
            yield leaf, descriptors
