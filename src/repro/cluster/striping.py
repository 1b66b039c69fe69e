"""File partitioning across disks (striping).

Paper section 7: "a file can be partitioned and therefore its contents
can reside on more than one disk.  Thus, the size of a file can be as
large as the total space available on all the disks."

A striped file is a set of ordinary per-volume *segment* files plus a
round-robin mapping: byte range ``[k*S, (k+1)*S)`` of the logical file
lives at stripe ``k`` in segment ``k % n_volumes``.  The stripe layout
is recorded in the naming service (attributes of the bound name), so a
striped file is recoverable from its name alone.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.errors import FileServiceError, FileSizeError
from repro.common.ids import SystemName, decode_system_names, encode_system_names
from repro.common.units import BLOCK_SIZE
from repro.file_service.server import FileServer
from repro.naming.attributed import AttributedName
from repro.naming.service import NamingService

#: Default stripe unit: eight blocks, so each stripe is one contiguous
#: run a single disk reference can fetch.
DEFAULT_STRIPE_BYTES = 8 * BLOCK_SIZE


class StripedFile:
    """A logical file partitioned round-robin across several volumes."""

    def __init__(
        self,
        servers: Dict[int, FileServer],
        segments: List[SystemName],
        stripe_bytes: int,
    ) -> None:
        if not segments:
            raise FileServiceError("a striped file needs at least one segment")
        if stripe_bytes <= 0:
            raise FileSizeError("stripe size must be positive")
        self.servers = servers
        self.segments = segments
        self.stripe_bytes = stripe_bytes

    # ------------------------------------------------------- factory

    @classmethod
    def create(
        cls,
        naming: NamingService,
        servers: Dict[int, FileServer],
        name: AttributedName,
        *,
        volumes: List[int] | None = None,
        stripe_bytes: int = DEFAULT_STRIPE_BYTES,
    ) -> "StripedFile":
        """Create segment files on each volume and bind the striped name."""
        volume_ids = volumes if volumes is not None else sorted(servers)
        if not volume_ids:
            raise FileServiceError("no volumes to stripe over")
        segments = [servers[volume].create() for volume in volume_ids]
        bound = name.with_attributes(
            stripe=str(stripe_bytes), segments=encode_system_names(segments)
        )
        naming.bind(bound, segments[0])
        return cls(servers, segments, stripe_bytes)

    @classmethod
    def open(
        cls,
        naming: NamingService,
        servers: Dict[int, FileServer],
        name: AttributedName,
    ) -> "StripedFile":
        """Reconstruct a striped file from its naming-service record."""
        for bound, _ in naming.lookup(name):
            encoded = bound.get("segments")
            stripe = bound.get("stripe")
            if encoded is None or stripe is None:
                continue
            return cls(servers, decode_system_names(encoded), int(stripe))
        raise FileServiceError(f"{name} is not a striped file")

    # ------------------------------------------------------------ io

    def _map(self, offset: int) -> Tuple[SystemName, int, int]:
        """(segment, offset-in-segment, bytes-until-stripe-end)."""
        stripe_index = offset // self.stripe_bytes
        within = offset - stripe_index * self.stripe_bytes
        n_segments = len(self.segments)
        segment = self.segments[stripe_index % n_segments]
        local_stripe = stripe_index // n_segments
        local_offset = local_stripe * self.stripe_bytes + within
        return segment, local_offset, self.stripe_bytes - within

    def write(self, offset: int, data: bytes) -> int:
        """Write across stripes; each stripe goes to its own volume."""
        if offset < 0:
            raise FileSizeError(f"bad write offset {offset}")
        cursor = offset
        view = memoryview(data)
        while view:
            segment, local_offset, room = self._map(cursor)
            chunk = min(room, len(view))
            self.servers[segment.volume_id].write(
                segment, local_offset, bytes(view[:chunk])
            )
            view = view[chunk:]
            cursor += chunk
        return len(data)

    def read(self, offset: int, n_bytes: int) -> bytes:
        """Read across stripes, assembling from each volume in turn.

        Stripes that were never written read as zeroes (sparse-file
        semantics), as long as some later stripe extends the logical
        file past them — mirroring what a single sparse file would do.
        """
        if offset < 0 or n_bytes < 0:
            raise FileSizeError(f"bad read range ({offset}, {n_bytes})")
        end = min(offset + n_bytes, self.size)
        if end <= offset:
            return b""
        pieces: List[bytes] = []
        cursor = offset
        while cursor < end:
            segment, local_offset, room = self._map(cursor)
            chunk = min(room, end - cursor)
            piece = self.servers[segment.volume_id].read(
                segment, local_offset, chunk
            )
            if len(piece) < chunk:
                piece = piece + bytes(chunk - len(piece))  # sparse hole
            pieces.append(piece)
            cursor += chunk
        return b"".join(pieces)

    @property
    def size(self) -> int:
        """Logical size: the last byte any segment maps back to.

        Segment k's local byte x corresponds to logical byte
        ``((x // S) * n + k) * S + (x % S)`` for stripe size S over n
        segments; the logical size is one past the largest such byte.
        """
        n_segments = len(self.segments)
        stripe = self.stripe_bytes
        logical = 0
        for k, segment in enumerate(self.segments):
            local = self.servers[segment.volume_id].get_attribute(
                segment
            ).file_size
            if local == 0:
                continue
            last = local - 1
            logical_last = (
                (last // stripe) * n_segments + k
            ) * stripe + (last % stripe)
            logical = max(logical, logical_last + 1)
        return logical

    def delete(self, naming: NamingService, name: AttributedName) -> None:
        for bound, _ in naming.lookup(name):
            if bound.get("segments") is not None:
                naming.unbind(bound)
                break
        for segment in self.segments:
            self.servers[segment.volume_id].delete(segment)
