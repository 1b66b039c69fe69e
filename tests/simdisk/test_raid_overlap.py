"""One model of array time: a caller who waits pays what a frame is charged.

Each member fan-out of a :class:`~repro.simdisk.raid.StripedVolume`
reference is one ``common/frames.py::fan_out``, so the members of each
fan-out work concurrently whoever calls.  The differential check: for
every level and a scripted set of operations, the simulated time a
blocking caller waits equals the cursor advance of the same operation
issued on a twin array inside ``service_frame`` from the same idle
state — and the members' timelines end in the same place.  The headline
costs and the exception path are pinned beside it.
"""

import pytest

from repro.chaos.trace import CrashPointMonitor
from repro.common.clock import SimClock
from repro.common.errors import DiskCrashedError
from repro.common.frames import active_frame, service_frame
from repro.common.metrics import Metrics
from repro.simdisk.disk import SimDisk
from repro.simdisk.geometry import DiskGeometry
from repro.simdisk.raid import (
    ArrayFailedError,
    ArrayState,
    RaidRebuilder,
    StripedVolume,
)

#: 64 sectors per member; chunk 4 -> 16 physical chunks, 2 of metadata.
SMALL = DiskGeometry(cylinders=4, heads=2, sectors_per_track=8)
SECTOR = SMALL.sector_size
CHUNK = 4
MEMBERS = {"raid0": 3, "raid1": 3, "raid5": 4}


class TimedDisk(SimDisk):
    """A member drive that keeps the busy time of each of its references."""

    __slots__ = ("spent",)

    def _timed(self, call):
        before = self.timeline.busy_total_us
        try:
            return call()
        finally:
            self.spent.append(self.timeline.busy_total_us - before)

    def read_sectors(self, start, n_sectors):
        return self._timed(lambda: SimDisk.read_sectors(self, start, n_sectors))

    def write_sectors(self, start, data):
        return self._timed(lambda: SimDisk.write_sectors(self, start, data))


class Rig:
    """One array on its own clock, with its members' service times."""

    def __init__(self, level, members=None):
        self.clock, self.metrics = SimClock(), Metrics()
        self.drives = [
            TimedDisk(f"m{index}", SMALL, self.clock, self.metrics)
            for index in range(members or MEMBERS[level])
        ]
        for drive in self.drives:
            drive.spent = []
        self.array = StripedVolume(
            "t", self.drives, level=level, chunk_sectors=CHUNK,
            metrics=self.metrics,
        )
        #: Logical sectors per stripe row.
        self.row = self.array.data_members * CHUNK

    def payload(self, n_sectors, seed=7):
        return bytes((seed * 37 + i) % 256 for i in range(n_sectors * SECTOR))

    def prime(self):
        """Known bytes under every row the script touches."""
        self.array.write_sectors(0, self.payload(6 * self.row, seed=1))

    def service_times(self):
        """``{member: [busy_us, …]}`` of every reference so far."""
        return {
            index: list(drive.spent) for index, drive in enumerate(self.drives)
        }

    def horizons(self):
        return [drive.timeline.busy_until_us for drive in self.drives]


# ------------------------------------------------- the scripted operations
#
# ``prepare(rig)`` brings the array to the state the operation needs
# (always blocking, so both twins reach the same idle state), and
# ``operate(rig)`` is the one array reference being timed.


def wide_read(rig):
    rig.array.read_sectors(rig.row - 2, 2 * rig.row + 3)


def sub_chunk_write(rig):
    rig.array.write_sectors(rig.row + 1, rig.payload(2))


def full_row_write(rig):
    rig.array.write_sectors(2 * rig.row, rig.payload(rig.row))


def lose_member_one(rig):
    rig.array.fail_member(1)


def uncovered_stale_column_write(rig):
    """raid5: member 1 is a data column of row 0 the write leaves alone."""
    assert rig.array.parity_member(0) != 1
    assert rig.array.chunk_to_member(0)[0] == 0
    arms_before = rig.metrics.get("raid.t.journal_arms")
    rig.array.write_sectors(1, rig.payload(2))
    assert rig.metrics.get("raid.t.journal_arms") == arms_before + 1


def start_rebuild_of_member_one(rig):
    rig.array.fail_member(1)
    rig.array.replace_member(1)
    rig.rebuilder = RaidRebuilder(rig.array, chunks_per_step=3)
    rig.rebuilder.step()
    assert rig.array.state is ArrayState.REBUILDING


def write_below_the_watermark(rig):
    """Row 0 is rebuilt already, so the target takes the write too."""
    writes_before = rig.metrics.get("disk.m1.writes")
    rig.array.write_sectors(0, rig.payload(rig.row))
    assert rig.metrics.get("disk.m1.writes") > writes_before


def nothing(rig):
    pass


SCRIPT = [
    # (level, name, prepare, operate)
    *[
        (level, name, nothing, operate)
        for level in MEMBERS
        for name, operate in (
            ("wide read", wide_read),
            ("sub-chunk write", sub_chunk_write),
            ("full-row write", full_row_write),
        )
    ],
    ("raid1", "degraded write", lose_member_one, sub_chunk_write),
    ("raid5", "degraded read", lose_member_one, wide_read),
    ("raid5", "degraded write arming the journal", lose_member_one,
     uncovered_stale_column_write),
    ("raid1", "write onto a rebuilding target", start_rebuild_of_member_one,
     write_below_the_watermark),
    ("raid5", "write onto a rebuilding target", start_rebuild_of_member_one,
     write_below_the_watermark),
]


def prepared(level, prepare):
    rig = Rig(level)
    rig.prime()
    prepare(rig)
    return rig


def blocking_wait(rig, operate):
    """Simulated time a caller with no frame waits for ``operate``."""
    assert active_frame(rig.clock) is None
    started = rig.clock.now_us
    operate(rig)
    assert active_frame(rig.clock) is None
    return rig.clock.now_us - started


def framed_advance(rig, operate):
    """Cursor advance of ``operate`` inside a caller's service frame."""
    started = rig.clock.now_us
    with service_frame(rig.clock) as frame:
        operate(rig)
    assert rig.clock.now_us == started  # the caller's frame defers it all
    return frame.cursor_us - started


@pytest.mark.parametrize(
    "level, prepare, operate",
    [pytest.param(level, prepare, operate, id=f"{level}-{name}")
     for level, name, prepare, operate in SCRIPT],
)
def test_blocking_wait_equals_the_frame_cursor_advance(level, prepare, operate):
    blocking, framed = prepared(level, prepare), prepared(level, prepare)
    assert blocking.clock.now_us == framed.clock.now_us
    assert blocking.horizons() == framed.horizons()

    waited = blocking_wait(blocking, operate)

    assert waited > 0
    assert waited == framed_advance(framed, operate)
    assert blocking.horizons() == framed.horizons()
    assert blocking.service_times() == framed.service_times()
    # Idle again: no member is still busy when the caller resumes.
    assert max(blocking.horizons()) <= blocking.clock.now_us


class TestHeadlineCosts:
    def new_references(self, rig, operate):
        """``(waited_us, {member: [service_us of each new reference]})``."""
        before = rig.service_times()
        waited = blocking_wait(rig, operate)
        after = rig.service_times()
        return waited, {
            index: after[index][len(before[index]):]
            for index in after if len(after[index]) > len(before[index])
        }

    def test_raid5_sub_chunk_write_costs_slower_read_plus_slower_write(self):
        rig = prepared("raid5", nothing)
        waited, new = self.new_references(rig, sub_chunk_write)
        # The read-modify-write: the data column and the row's parity,
        # one read then one write each.
        data_member = rig.array.chunk_to_member((rig.row + 1) // CHUNK)[0]
        parity_member = rig.array.parity_member(1)
        assert sorted(new) == sorted([data_member, parity_member])
        (read_data, write_data) = new[data_member]
        (read_parity, write_parity) = new[parity_member]
        assert waited == (
            max(read_data, read_parity) + max(write_data, write_parity)
        )
        assert waited < read_data + read_parity + write_data + write_parity

    def test_raid1_write_costs_one_member_write(self):
        rig = Rig("raid1", members=4)
        rig.prime()
        waited, new = self.new_references(rig, sub_chunk_write)
        assert sorted(new) == [0, 1, 2, 3]
        writes = [service for (service,) in new.values()]
        assert waited == max(writes)
        assert waited < sum(writes)

    def test_raid0_wide_write_costs_its_slowest_member(self):
        rig = prepared("raid0", nothing)
        waited, new = self.new_references(rig, full_row_write)
        assert sorted(new) == [0, 1, 2]
        assert waited == max(service for (service,) in new.values())


class TestExceptionPath:
    """An operation that fails still charges its caller what it spent."""

    def assert_same_charge(self, make_rig, operate, error):
        blocking, framed = make_rig(), make_rig()
        started = blocking.clock.now_us
        with pytest.raises(error):
            operate(blocking)
        assert active_frame(blocking.clock) is None
        waited = blocking.clock.now_us - started

        with service_frame(framed.clock) as frame:
            with pytest.raises(error):
                operate(framed)
        assert waited == frame.cursor_us - started
        assert blocking.horizons() == framed.horizons()
        return blocking, waited

    def test_array_failure_leaves_the_clock_at_the_time_charged(self):
        def second_member_dies_unnoticed():
            rig = prepared("raid5", lose_member_one)
            rig.drives[2].crash()
            return rig

        rig, waited = self.assert_same_charge(
            second_member_dies_unnoticed, wide_read, ArrayFailedError
        )
        assert rig.array.state is ArrayState.FAILED
        # The surviving members served their spans, overlapped, and the
        # survivors' superblocks recorded the loss — all of it charged.
        assert waited > 0
        assert rig.clock.now_us == max(rig.horizons())

    def test_machine_crash_inside_a_write_charges_the_writes_that_ran(self):
        def armed():
            rig = prepared("raid5", nothing)
            # The fourth member write of the full-row fan-out.
            CrashPointMonitor().attach(*rig.drives).arm(4)
            return rig

        rig, waited = self.assert_same_charge(
            armed, full_row_write, DiskCrashedError
        )
        assert all(drive.crashed for drive in rig.drives)
        assert waited > 0
