"""Golden member-operation log of a scripted RAID workload.

The RAID tier's refactor around one redundancy engine promised the same
member operations in the same order at the same simulated time.
``golden_raid_oplog.txt`` is the log of :func:`run_script` for each
level: every member ``read`` / ``write`` / ``read_in_passing`` as
``member op start n adler32(payload)|!Error done_us`` (Adler, because
the CRC-32 of a sector sealed with its own CRC-32 — a superblock, a
journal header — is one constant whatever the sector says; ``done_us``
is the member timeline's busy-until, the operation's completion time),
and after each step a ``=`` line naming it with the array's epoch,
state, failed set, rebuild target and clock.
``python -m tests.simdisk.test_raid_oplog`` prints the log of the
checked-out code, which is how the golden file was produced.  Everything
but the last field of a line is as recorded at the commit *before* that
refactor; the times are those of the current time model (an array
reference is one operation frame, so its members overlap for a blocking
caller too), and a change that moves only time must leave the log
identical once that field is stripped.

The script checks itself too: every read is compared with a shadow of
the acked writes, so a log that matches is also a log of correct bytes.
"""

import zlib
from pathlib import Path

import pytest

from repro.chaos.trace import CrashPointMonitor
from repro.common.clock import SimClock
from repro.common.errors import DiskCrashedError, MediaError
from repro.common.frames import service_frame
from repro.common.metrics import Metrics
from repro.simdisk.disk import SimDisk
from repro.simdisk.geometry import DiskGeometry
from repro.simdisk.raid import ArrayState, RaidRebuilder, StripedVolume

GOLDEN = Path(__file__).with_name("golden_raid_oplog.txt")
#: 64 sectors per member; chunk 4 -> 16 physical chunks, 2 of metadata.
GEOMETRY = DiskGeometry(cylinders=4, heads=2, sectors_per_track=8)
SECTOR = GEOMETRY.sector_size
CHUNK = 4
LEVELS = {"raid0": 3, "raid1": 3, "raid5": 4}


class LoggedDisk(SimDisk):
    """A member drive that appends every operation to a shared log."""

    __slots__ = ("log",)

    def _logged(self, op, start, n_sectors, payload, call):
        outcome = "?"
        try:
            result = call()
            content = result if payload is None else payload
            outcome = f"{zlib.adler32(content):08x}"
            return result
        except Exception as exc:
            outcome = "!" + type(exc).__name__
            raise
        finally:
            self.log.append(
                f"{self.disk_id} {op} {start} {n_sectors} {outcome} "
                f"{self.timeline.busy_until_us}"
            )

    def read_sectors(self, start, n_sectors):
        return self._logged(
            "read", start, n_sectors, None,
            lambda: SimDisk.read_sectors(self, start, n_sectors),
        )

    def read_in_passing(self, start, n_sectors):
        return self._logged(
            "read_in_passing", start, n_sectors, None,
            lambda: SimDisk.read_in_passing(self, start, n_sectors),
        )

    def write_sectors(self, start, data):
        return self._logged(
            "write", start, len(data) // SECTOR, data,
            lambda: SimDisk.write_sectors(self, start, data),
        )


def run_script(level: str) -> list[str]:
    """The scripted workload for one level; returns its operation log."""
    clock, metrics = SimClock(), Metrics()
    log: list[str] = []
    drives = []
    for index in range(LEVELS[level]):
        drive = LoggedDisk(f"m{index}", GEOMETRY, clock, metrics)
        drive.log = log
        drives.append(drive)
    log.append(f"# {level}: create")
    array = StripedVolume(
        "g", drives, level=level, chunk_sectors=CHUNK, metrics=metrics
    )
    total = array.geometry.total_sectors
    row = array.data_members * CHUNK  # logical sectors per stripe row
    shadow = bytearray(total * SECTOR)
    seeds = iter(range(1, 1000))

    def done(step: str) -> None:
        target = array.rebuild_target
        log.append(
            f"= {step}: epoch {array.epoch} {array.state.name.lower()} "
            f"failed {list(array.failed_members)} rebuilding {target} "
            f"clock {clock.now_us}"
        )

    def write(start: int, n: int) -> None:
        seed = next(seeds)
        data = bytes((seed * 37 + i) % 256 for i in range(n * SECTOR))
        array.write_sectors(start, data)
        shadow[start * SECTOR : (start + n) * SECTOR] = data

    def read(start: int, n: int, *, in_passing: bool = False) -> None:
        reader = array.read_in_passing if in_passing else array.read_sectors
        assert reader(start, n) == shadow[start * SECTOR : (start + n) * SECTOR]

    def crashed_write(start: int, n: int, nth: int) -> None:
        """A write the machine dies inside, then restart + recover."""
        CrashPointMonitor().attach(*drives).arm(nth)
        before = bytes(shadow[start * SECTOR : (start + n) * SECTOR])
        seed = next(seeds)
        data = bytes((seed * 37 + i) % 256 for i in range(n * SECTOR))
        try:
            array.write_sectors(start, data)
            acked = True  # raid1: a full copy landed before the lights went
        except DiskCrashedError:
            acked = False
        for drive in drives:
            drive.faults.monitor = None
        array.crash()
        array.repair()
        array.recover()
        # Never acked: each sector holds its old or its new bytes.
        got = array.read_sectors(start, n)
        for index in range(n):
            piece = slice(index * SECTOR, (index + 1) * SECTOR)
            assert got[piece] in (data[piece], data[piece] if acked else before[piece])
        shadow[start * SECTOR : (start + n) * SECTOR] = got

    def basic_io() -> None:
        write(0, CHUNK)                 # one aligned chunk
        write(row - 2, 5)               # unaligned, across a row edge
        write(row - 3, row + 6)         # three rows, the middle one full
        write(2 * row, 3 * row)         # a run of full rows
        write(3 * row + 1, 2)           # inside one chunk
        done("writes")
        read(row - 2, 5)
        read(0, 3 * row + 4)
        read(2 * row - 1, 2)
        read(3 * row, 8, in_passing=True)
        done("reads")
        with service_frame(clock) as frame:
            write(row + 1, 7)
            read(max(0, row - 4), 20)
        clock.advance_to(frame.cursor_us)
        done("overlapped in a service frame")

    basic_io()
    holder, physical_chunk = array.chunk_to_member(5 * row // CHUNK)
    if level == "raid0":
        drives[holder].faults.schedule_media_error(physical_chunk * CHUNK)
        with pytest.raises(MediaError):
            array.read_sectors(5 * row, 2)
        done("media error with no redundancy")
        array.fail_member(1)
        with pytest.raises(DiskCrashedError):
            array.read_sectors(0, 2)
        done("member loss is array loss")
        return log

    array.fail_member(1)
    done("fail_member(1)")
    read(0, 3 * row + 4)
    read(row, 8, in_passing=True)
    write(row + 2, 3)                   # raid5: covers the stale column
    write(row + 8, 2)                   # raid5: stale column untouched
    write(2 * row + 1, 2)               # raid5: the row's parity is stale
    write(3 * row, row)                 # a full row
    write(row - 3, row + 6)
    read(0, 5 * row)
    done("degraded reads and writes")

    array.replace_member(1)
    rebuilder = RaidRebuilder(array, chunks_per_step=3)
    rebuilder.step()
    rebuilder.step()
    done("replace_member(1), six chunks rebuilt")
    write(row + 2, 3)                   # below the watermark
    write(2 * row + 1, 2)
    write(row - 3, row + 6)
    write(8 * row + 2, 3)               # above it
    write(8 * row + 4, row - 2)
    write(4 * row, 4 * row)             # full rows straddling it
    read(0, 5 * row)
    done("foreground traffic on both sides of the watermark")
    rebuilder.step()
    write(row + 2, 3)
    write(8 * row + 2, 3)
    rebuilder.run_cycle()
    assert array.state is ArrayState.OPTIMAL
    read(0, total)
    done("rebuild complete")

    crashed_write(4 * row + 2, 4, nth=2)
    read(0, total)
    done("machine crash inside an optimal write, recover() resyncs")

    array.fail_member(2)
    done("fail_member(2)")
    # raid5: member 2 is a data column of row 0 the write does not
    # cover, so the journal is armed (two writes) before the row's own.
    crashed_write(1, 2, nth=4 if level == "raid5" else 2)
    read(0, total)
    done("machine crash inside a degraded write, recover() replays")
    array.replace_member(2)
    RaidRebuilder(array, chunks_per_step=4).run_cycle()
    assert array.state is ArrayState.OPTIMAL
    read(0, total)
    done("second rebuild complete")

    drives[holder].faults.schedule_media_error(physical_chunk * CHUNK)
    read(5 * row, 2)
    read(5 * row, 2)
    assert metrics.get("raid.g.media_repairs") == 1
    read(5 * row - 2, 8, in_passing=True)
    done("latent media error healed under a reference read")
    return log


def full_log() -> str:
    return "".join(
        line + "\n" for level in LEVELS for line in run_script(level)
    )


def golden_sections() -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {}
    for line in GOLDEN.read_text().splitlines():
        if line.endswith(": create"):
            current = sections.setdefault(line[2 : -len(": create")], [])
        current.append(line)
    return sections


@pytest.mark.parametrize("level", LEVELS)
def test_member_operations_match_the_golden_log(level):
    assert run_script(level) == golden_sections()[level]


if __name__ == "__main__":
    print(full_log(), end="")
