"""Identifier types: system names, object descriptors, transaction descriptors.

The paper (section 3) distinguishes *attributed names* — user-visible,
resolved by the naming service — from *system names*, by which the file
agent, transaction agent and file service always refer to a file.  A
system name here identifies the volume holding the file, the fragment
address of its file index table, and a generation number that changes
when the address is reused, so stale names are detected.

Object descriptors are the integers agents hand back from ``open``:
device descriptors are below 100 000 and file/transaction descriptors
above it, which is how RHODOS implements I/O redirection (section 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List

#: Object descriptors below this value designate devices; at or above
#: it they designate files (basic or transactional).  The paper picks
#: 100 000.
DEVICE_DESCRIPTOR_LIMIT = 100_000

#: Descriptors handed to a process that redirects its standard streams
#: (paper section 3): stdout -> 100001, stdin -> 100002, stderr -> 100003.
REDIRECTED_STDOUT = 100_001
REDIRECTED_STDIN = 100_002
REDIRECTED_STDERR = 100_003


@dataclass(frozen=True, slots=True)
class SystemName:
    """The internal, location-bearing name of a file.

    Attributes:
        volume_id: id of the volume (disk) whose file service owns the file.
        fit_address: fragment address of the file index table on that volume.
        generation: reuse counter for ``fit_address``; a mismatch means the
            file the name referred to has been deleted and the fragment
            recycled.
    """

    volume_id: int
    fit_address: int
    generation: int

    def __str__(self) -> str:
        return f"sys:{self.volume_id}:{self.fit_address}:{self.generation}"


def encode_system_names(names: List[SystemName]) -> str:
    """A list of system names as one attribute value (``v:fit:gen,...``) —
    how replica sets and stripe segments ride in an attributed name."""
    return ",".join(
        f"{name.volume_id}:{name.fit_address}:{name.generation}" for name in names
    )


def decode_system_names(encoded: str) -> List[SystemName]:
    """Inverse of :func:`encode_system_names`."""
    names = []
    for part in encoded.split(","):
        volume, fit, generation = part.split(":")
        names.append(SystemName(int(volume), int(fit), int(generation)))
    return names


# Object and transaction descriptors are plain ints at runtime; the
# aliases document intent in signatures.
ObjectDescriptor = int
TransactionDescriptor = int


def monotonic_id_factory(start: int = 1) -> Callable[[], int]:
    """Return a callable producing 1, 2, 3, ... (or from ``start``).

    Used wherever a component needs locally unique, deterministic ids:
    request ids, transaction descriptors, generation numbers.
    """
    counter: Iterator[int] = iter(range(start, 2**63))

    def next_id() -> int:
        return next(counter)

    return next_id


def descriptor_is_device(descriptor: int) -> bool:
    """True if an object descriptor designates a device (paper: < 100 000)."""
    return 0 <= descriptor < DEVICE_DESCRIPTOR_LIMIT


def descriptor_is_file(descriptor: int) -> bool:
    """True if an object descriptor designates a file (paper: > 100 000)."""
    return descriptor > DEVICE_DESCRIPTOR_LIMIT
