"""File populations: sizes drawn from realistic distributions.

Early-1990s file-system studies (the Sprite trace papers the RHODOS
authors cite) found most files small — well under the 512 KB the FIT's
direct area covers — with a long tail of large files.  A log-normal
distribution reproduces that shape.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List

from repro.common.ids import SystemName
from repro.file_service.server import FileServer


@dataclass(frozen=True, slots=True)
class FileSizeDistribution:
    """Log-normal file sizes, clamped to [min_bytes, max_bytes]."""

    median_bytes: int = 8 * 1024
    sigma: float = 1.6
    min_bytes: int = 128
    max_bytes: int = 4 * 1024 * 1024

    def sample(self, rng: random.Random) -> int:
        size = int(math.exp(rng.gauss(math.log(self.median_bytes), self.sigma)))
        return max(self.min_bytes, min(self.max_bytes, size))


# Byte i of every payload pattern before its seed's offset is added.
_PATTERN_STEPS = bytes(index * 40503 % 256 for index in range(256))
# Slice [k : k + 256] is the table that adds k to a byte, modulo 256.
_ADD_TABLES = bytes(range(256)) * 2


def deterministic_payload(seed: int, n_bytes: int) -> bytes:
    """Reproducible pseudo-random file content (cheap, no RNG object).

    Byte i of the repeating 256-byte pattern is
    ``(seed * 2654435761 + i * 40503) % 256``.
    """
    if n_bytes == 0:
        return b""
    offset = seed * 2654435761 % 256
    pattern = _PATTERN_STEPS.translate(_ADD_TABLES[offset : offset + 256])
    reps = -(-n_bytes // len(pattern))
    return (pattern * reps)[:n_bytes]


def populate_files(
    server: FileServer,
    count: int,
    *,
    distribution: FileSizeDistribution | None = None,
    seed: int = 0,
) -> List[SystemName]:
    """Create ``count`` files with sampled sizes; returns their names."""
    distribution = distribution or FileSizeDistribution()
    rng = random.Random(seed)
    names: List[SystemName] = []
    for index in range(count):
        size = distribution.sample(rng)
        name = server.create()
        server.write(name, 0, deterministic_payload(index, size))
        names.append(name)
    server.flush()
    return names
