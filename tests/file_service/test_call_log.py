"""Golden disk-service call log of a scripted file-service workload.

``golden_call_log.txt`` is the log of :func:`run_script` at the commit
before free space went to stable storage as a base plus a tail of
changes, marked up against the log since (a line-level diff): lines
starting ``- `` existed only before, lines starting ``+ `` exist only
since.  What may differ is counted in
:func:`test_golden_log_differs_from_its_parent_only_as_listed`:

* nothing the file server calls: the same calls with the same
  arguments, in the same order;
* a stable-bound put after an allocate or a free appends a small tail
  record instead of rewriting the whole bitmap, so later writes happen
  at earlier simulated times, and every FIT stored after the first
  such put carries other timestamps (its payload CRC moves).

The log of the checked-out code must match the ``  `` and ``+ `` lines
exactly, arguments and payload CRCs included.  ``python -m
tests.file_service.test_call_log`` prints it, which is how the golden
file was produced.
"""

import re
import zlib
from pathlib import Path

from repro.common.clock import SimClock
from repro.common.metrics import Metrics
from repro.common.units import BLOCK_SIZE
from repro.disk_service.addresses import Extent
from repro.file_service.fit import (
    DESCRIPTORS_PER_INDIRECT,
    DIRECT_DESCRIPTORS,
    SINGLE_INDIRECT_SLOTS,
)
from tests.conftest import build_file_server

GOLDEN = Path(__file__).with_name("golden_call_log.txt")
RECORDED = (
    "allocate",
    "allocate_block",
    "try_allocate_at",
    "free",
    "get",
    "put",
    "release_stable",
)
LEAF = DESCRIPTORS_PER_INDIRECT
FIRST_DOUBLE = DIRECT_DESCRIPTORS + SINGLE_INDIRECT_SLOTS * LEAF
CRC = re.compile(r"crc [0-9a-f]{8}")
FIT_STORE = re.compile(r"put\(ext\(\d+,1\), <2048B crc [0-9a-f]{8}>, stability=both\)")


def _show(value) -> str:
    if isinstance(value, Extent):
        return f"ext({value.start},{value.length})"
    if isinstance(value, (bytes, bytearray)):
        return f"<{len(value)}B crc {zlib.crc32(value):08x}>"
    return getattr(value, "value", None) or repr(value)


def record(disk) -> list[str]:
    """Wrap ``disk``'s recorded entry points; returns the growing log."""
    log: list[str] = []

    def wrap(op, method):
        def recorded(*args, **kwargs):
            shown = [_show(arg) for arg in args]
            shown += [f"{key}={_show(value)}" for key, value in kwargs.items()]
            line = f"{op}({', '.join(shown)})"
            result = method(*args, **kwargs)
            if "allocate" in op:
                line += f" -> {_show(result)}"
            log.append(line)
            return result

        return recorded

    for op in RECORDED:
        setattr(disk, op, wrap(op, getattr(disk, op)))
    return log


def pattern(n: int, seed: int = 1) -> bytes:
    return bytes((seed * 37 + index) % 256 for index in range(n))


def run_script() -> list[str]:
    """The scripted workload; returns its disk-service call log."""
    server = build_file_server(SimClock(), Metrics(), fit_cache_entries=8)
    log = record(server.disk)
    model: dict[int, int] = {}  # byte offset -> expected byte

    def expect(offset: int, data: bytes) -> None:
        model.update(zip(range(offset, offset + len(data)), data))

    def write(offset: int, data: bytes) -> None:
        server.write(name, offset, data)
        expect(offset, data)

    def read_back() -> None:
        for block in sorted({offset // BLOCK_SIZE for offset in model}):
            start = block * BLOCK_SIZE
            data = server.read(name, start, BLOCK_SIZE)
            data += bytes(BLOCK_SIZE - len(data))
            assert data == bytes(
                model.get(offset, 0) for offset in range(start, start + BLOCK_SIZE)
            ), block

    # Grow through the direct range, into single-indirect leaf 0, to an
    # island in leaf 2 (leaf 1 stays absent), then two leaves of the
    # first double-indirect pointer block.
    name = server.create()
    write(0, pattern(3 * BLOCK_SIZE + 100))
    write(60 * BLOCK_SIZE, pattern(10 * BLOCK_SIZE, 2))
    write((DIRECT_DESCRIPTORS + 2 * LEAF + 7) * BLOCK_SIZE, b"island")
    write(FIRST_DOUBLE * BLOCK_SIZE + 123, b"deep")
    write((FIRST_DOUBLE + 3 * LEAF + 1) * BLOCK_SIZE, pattern(2 * BLOCK_SIZE, 3))
    server.flush()

    # Overwrite in place (no structural change), through open/close.
    server.open(name)
    write(61 * BLOCK_SIZE + 5, b"overwrite")
    write(FIRST_DOUBLE * BLOCK_SIZE, pattern(BLOCK_SIZE, 4))
    server.close(name)

    # Shadow-page style descriptor swaps in each of the three ranges.
    for block_index in (1, 62, DIRECT_DESCRIPTORS + 3, FIRST_DOUBLE + 3 * LEAF + 1):
        shadow = server.disk.allocate_block(1)
        payload = pattern(BLOCK_SIZE, 5 + block_index % 7)
        server.write_block(shadow.start, payload)
        old = server.replace_block_descriptor(name, block_index, shadow.start)
        server.disk.free(Extent.for_block_run(old, 1))
        expect(block_index * BLOCK_SIZE, payload)
    server.flush()

    # Drop caches; read back; grow a new leaf under the reloaded pointer
    # block; a second file in the single-indirect range only.
    server.recover()
    read_back()
    write((FIRST_DOUBLE + LEAF + 2) * BLOCK_SIZE, b"late leaf")
    other = server.create()
    server.write(other, 63 * BLOCK_SIZE, pattern(3 * BLOCK_SIZE, 6))
    server.flush()

    # Install-order FIT eviction with write-back: ten more files through
    # an eight-entry FIT cache, each left dirty by its open.
    small = []
    for index in range(10):
        small.append(server.create())
        server.open(small[-1])
        server.write(small[-1], 0, bytes([index + 1]) * 10)
    server.flush()

    server.recover()
    read_back()
    assert server.read(name, FIRST_DOUBLE * BLOCK_SIZE - 8, 8) == bytes(8)
    tail = pattern(3 * BLOCK_SIZE, 6)
    assert server.read(other, 63 * BLOCK_SIZE, len(tail)) == tail
    server.delete(name)
    server.delete(other)
    for victim in small[:3]:
        server.delete(victim)
    server.flush()
    return log


def test_call_log_matches_the_golden_log():
    marked = GOLDEN.read_text().splitlines()
    expected = [line[2:] for line in marked if line[0] in " +"]
    assert run_script() == expected


def test_golden_log_differs_from_its_parent_only_as_listed():
    marked = GOLDEN.read_text().splitlines()
    assert all(line[:2] in ("  ", "- ", "+ ") for line in marked)
    parent = [line[2:] for line in marked if line[0] in " -"]
    now = [line[2:] for line in marked if line[0] in " +"]

    def without_crc(line):
        return CRC.sub("crc ?", line)

    # The same calls with the same arguments, in the same order ...
    assert [without_crc(line) for line in now] == [
        without_crc(line) for line in parent
    ]
    # ... and only FIT stores changed their payload: 32 of them.
    changed = [line[2:] for line in marked if line[0] == "+"]
    assert len(changed) == 32
    assert all(FIT_STORE.fullmatch(line) for line in changed)


if __name__ == "__main__":
    print("\n".join(run_script()))
