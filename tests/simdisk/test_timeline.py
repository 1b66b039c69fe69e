"""Timeline and the deferred-time frame machinery."""

import pytest

from repro.common.clock import SimClock
from repro.common.frames import (
    Timeline,
    active_frame,
    ceil_us,
    charge_elapsed,
    fan_out,
    frame_now,
    service_frame,
)


class TestBlockingMode:
    def test_charge_advances_clock_like_inline_advance(self):
        """With no frame the timeline IS the old advance_us, bit-exact."""
        clock_a, clock_b = SimClock(), SimClock()
        timeline = Timeline(clock_a)
        for elapsed in (100, 0.25, 7.999, 12345, 0.0001):
            timeline.charge(elapsed)
            clock_b.advance_us(elapsed)
        assert clock_a.now_us == clock_b.now_us

    def test_charge_returns_start_end(self):
        clock = SimClock()
        timeline = Timeline(clock)
        assert timeline.charge(100) == (0, 100)
        assert timeline.charge(50) == (100, 150)
        assert clock.now_us == 150

    def test_busy_total_accumulates(self):
        timeline = Timeline(SimClock())
        timeline.charge(100)
        timeline.charge(25.5)  # ceil -> 26
        assert timeline.busy_total_us == 126

    def test_ceil_matches_advance_us_rounding(self):
        clock = SimClock()
        clock.advance_us(0.25)
        assert ceil_us(0.25) == clock.now_us == 1


class TestFrames:
    def test_frame_defers_clock_advancement(self):
        clock = SimClock()
        timeline = Timeline(clock)
        with service_frame(clock) as frame:
            timeline.charge(300)
            assert clock.now_us == 0
            assert frame.cursor_us == 300
        assert clock.now_us == 0  # the caller schedules the completion

    def test_frame_sequences_charges_on_one_disk(self):
        clock = SimClock()
        timeline = Timeline(clock)
        with service_frame(clock) as frame:
            assert timeline.charge(100) == (0, 100)
            assert timeline.charge(100) == (100, 200)
        assert frame.cursor_us == 200

    def test_two_disks_overlap_across_frames(self):
        """The whole point: concurrent ops on different disks cost max."""
        clock = SimClock()
        disk_a, disk_b = Timeline(clock), Timeline(clock)
        with service_frame(clock) as op1:
            disk_a.charge(500)
        with service_frame(clock) as op2:
            disk_b.charge(300)
        assert op1.cursor_us == 500
        assert op2.cursor_us == 300  # not 800: disk B was idle

    def test_same_disk_serializes_across_frames(self):
        clock = SimClock()
        disk = Timeline(clock)
        with service_frame(clock) as op1:
            disk.charge(500)
        with service_frame(clock) as op2:
            disk.charge(300)
        assert op2.cursor_us == 800  # 500 queued behind op1, then 300

    def test_frames_nest_innermost_wins(self):
        clock = SimClock()
        with service_frame(clock) as outer:
            with service_frame(clock) as inner:
                assert active_frame(clock) is inner
            assert active_frame(clock) is outer
        assert active_frame(clock) is None

    def test_frames_keyed_per_clock(self):
        clock_a, clock_b = SimClock(), SimClock()
        with service_frame(clock_a) as frame:
            assert active_frame(clock_a) is frame
            assert active_frame(clock_b) is None

    def test_frame_now_tracks_cursor(self):
        clock = SimClock()
        assert frame_now(clock) == 0
        with service_frame(clock):
            charge_elapsed(clock, 40)
            assert frame_now(clock) == 40
            assert clock.now_us == 0
        assert frame_now(clock) == 0

    def test_charge_elapsed_blocking_fallback(self):
        clock = SimClock()
        charge_elapsed(clock, 33.5)
        assert clock.now_us == 34


class TestFanOut:
    def test_blocking_caller_waits_for_the_slowest_branch(self):
        clock = SimClock()
        disk_a, disk_b = Timeline(clock), Timeline(clock)
        with fan_out(clock) as fork:
            assert active_frame(clock) is not None  # the fan-out's own
            with fork.branch():
                disk_a.charge(500)
            with fork.branch():
                disk_b.charge(300)
            assert clock.now_us == 0
        assert clock.now_us == 500  # max, not 800
        assert active_frame(clock) is None

    def test_inside_a_caller_frame_moves_only_the_cursor(self):
        clock = SimClock()
        disk_a, disk_b = Timeline(clock), Timeline(clock)
        with service_frame(clock) as frame:
            with fan_out(clock) as fork:
                assert active_frame(clock) is frame  # borrowed, not opened
                with fork.branch():
                    disk_a.charge(500)
                with fork.branch():
                    disk_b.charge(300)
            assert frame.cursor_us == 500  # max, not 800
        assert clock.now_us == 0  # the caller schedules the completion

    def test_branches_on_one_disk_still_serialize(self):
        clock = SimClock()
        disk = Timeline(clock)
        with fan_out(clock) as fork:
            with fork.branch():
                disk.charge(500)
            with fork.branch():
                disk.charge(300)  # queues behind the first branch
        assert clock.now_us == 800

    def test_exception_in_a_branch_closes_the_frame_at_what_was_charged(self):
        clock = SimClock()
        disk = Timeline(clock)
        with pytest.raises(RuntimeError):
            with fan_out(clock) as fork:
                with fork.branch():
                    disk.charge(500)
                    raise RuntimeError("replica failed")
        assert active_frame(clock) is None
        assert clock.now_us == 500


class TestOccupy:
    """Work after the reply: the server is busy, the caller not waiting."""

    def test_blocking_caller_does_not_wait(self):
        clock = SimClock()
        timeline = Timeline(clock)
        timeline.charge(100)
        assert timeline.occupy(400) == (100, 500)
        assert clock.now_us == 100
        assert timeline.busy_until_us == 500
        assert timeline.busy_total_us == 500
        assert timeline.charge(50) == (500, 550)
        assert clock.now_us == 550

    def test_frame_cursor_does_not_move(self):
        clock = SimClock()
        timeline = Timeline(clock)
        with service_frame(clock) as frame:
            timeline.charge(100)
            assert timeline.occupy(400) == (100, 500)
            assert frame.cursor_us == 100
            assert timeline.busy_until_us == 500
            assert timeline.charge(50) == (500, 550)
            assert frame.cursor_us == 550
        assert clock.now_us == 0

    def test_starts_behind_what_the_server_already_holds(self):
        clock = SimClock()
        timeline = Timeline(clock)
        with service_frame(clock):
            timeline.charge(300)
        assert timeline.occupy(100) == (300, 400)
        assert clock.now_us == 0

    def test_another_server_is_not_held_up(self):
        clock = SimClock()
        disk_a, disk_b = Timeline(clock), Timeline(clock)
        disk_a.charge(100)
        disk_a.occupy(1000)
        assert disk_b.charge(50) == (100, 150)


class TestUtilization:
    def test_fully_busy_disk_reads_100(self):
        clock = SimClock()
        timeline = Timeline(clock)
        timeline.charge(1000)
        assert timeline.utilization_percent() == 100

    def test_half_busy_disk_reads_50(self):
        clock = SimClock()
        timeline = Timeline(clock)
        timeline.charge(500)
        clock.advance_us(500)
        assert timeline.utilization_percent() == 50

    def test_idle_disk_reads_0(self):
        clock = SimClock()
        timeline = Timeline(clock)
        assert timeline.utilization_percent() == 0
        clock.advance_us(100)
        assert timeline.utilization_percent() == 0

    def test_deferred_reservations_do_not_exceed_100(self):
        clock = SimClock()
        timeline = Timeline(clock)
        with service_frame(clock):
            timeline.charge(1000)
            timeline.charge(1000)
        assert timeline.utilization_percent() == 100


class TestFrameHygiene:
    def test_frame_pops_on_exception(self):
        clock = SimClock()
        with pytest.raises(RuntimeError):
            with service_frame(clock):
                raise RuntimeError("op failed")
        assert active_frame(clock) is None
