"""The simulated disk: I/O, references, faults."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import BadAddressError, BadSectorError, DiskCrashedError
from repro.common.metrics import Metrics
from repro.simdisk.disk import SimDisk
from repro.simdisk.geometry import DiskGeometry


@pytest.fixture
def disk():
    return SimDisk("t", DiskGeometry.small(), SimClock(), Metrics())


class TestReadWrite:
    def test_round_trip(self, disk):
        payload = bytes(range(256)) * 4  # 1024 bytes = 2 sectors
        disk.write_sectors(10, payload)
        assert disk.read_sectors(10, 2) == payload

    def test_unwritten_sectors_read_zero(self, disk):
        assert disk.read_sectors(100, 1) == bytes(512)

    def test_each_call_is_one_reference(self, disk):
        disk.write_sectors(0, bytes(512))
        disk.read_sectors(0, 1)
        disk.read_sectors(0, 1)
        assert disk.metrics.get("disk.t.references") == 3
        assert disk.metrics.get("disk.t.reads") == 2
        assert disk.metrics.get("disk.t.writes") == 1

    def test_contiguous_read_is_one_reference_regardless_of_size(self, disk):
        disk.read_sectors(0, 64)
        assert disk.metrics.get("disk.t.references") == 1
        assert disk.metrics.get("disk.t.sectors_read") == 64

    def test_io_advances_clock(self, disk):
        before = disk.clock.now_us
        disk.read_sectors(0, 8)
        assert disk.clock.now_us > before

    def test_write_length_must_be_sector_multiple(self, disk):
        with pytest.raises(BadAddressError):
            disk.write_sectors(0, b"short")

    def test_empty_write_rejected(self, disk):
        with pytest.raises(BadAddressError):
            disk.write_sectors(0, b"")

    def test_out_of_range_rejected(self, disk):
        last = disk.geometry.total_sectors
        with pytest.raises(BadAddressError):
            disk.read_sectors(last, 1)
        with pytest.raises(BadAddressError):
            disk.read_sectors(last - 1, 2)


class TestReadInPassing:
    def test_returns_data_without_reference(self, disk):
        disk.write_sectors(4, b"\xaa" * 512)
        before = disk.metrics.get("disk.t.references")
        data = disk.read_in_passing(4, 1)
        assert data == b"\xaa" * 512
        assert disk.metrics.get("disk.t.references") == before
        assert disk.metrics.get("disk.t.readahead_sectors") == 1

    def test_cheaper_than_full_read(self):
        metrics = Metrics()
        clock = SimClock()
        disk = SimDisk("a", DiskGeometry.small(), clock, metrics)
        disk.read_sectors(0, 1)  # position the head
        t0 = clock.now_us
        disk.read_in_passing(1, 8)
        passing_cost = clock.now_us - t0
        t0 = clock.now_us
        disk.read_sectors(1000, 8)
        full_cost = clock.now_us - t0
        assert passing_cost < full_cost


class TestFaults:
    def test_crashed_disk_refuses_io(self, disk):
        disk.crash()
        with pytest.raises(DiskCrashedError):
            disk.read_sectors(0, 1)
        with pytest.raises(DiskCrashedError):
            disk.write_sectors(0, bytes(512))

    def test_repair_restores_service_and_contents(self, disk):
        disk.write_sectors(3, b"\x11" * 512)
        disk.crash()
        disk.repair()
        assert disk.read_sectors(3, 1) == b"\x11" * 512

    def test_bad_sector_unreadable(self, disk):
        disk.faults.mark_bad(42)
        with pytest.raises(BadSectorError):
            disk.read_sectors(42, 1)
        with pytest.raises(BadSectorError):
            disk.read_sectors(40, 4)  # range covering it

    def test_crash_after_writes_tears_the_write(self, disk):
        disk.write_sectors(0, b"\x22" * 512 * 4)
        disk.faults.crash_after_writes(1)
        with pytest.raises(DiskCrashedError):
            disk.write_sectors(0, b"\x33" * 512 * 4)
        disk.repair()
        data = disk.read_sectors(0, 4)
        # A prefix (possibly empty) is new, the rest must be old — never
        # interleaved garbage.
        boundary = 0
        while boundary < 4 and data[boundary * 512] == 0x33:
            boundary += 1
        assert data[: boundary * 512] == b"\x33" * (boundary * 512)
        assert data[boundary * 512 :] == b"\x22" * ((4 - boundary) * 512)

    def test_crash_after_n_counts_writes(self, disk):
        disk.faults.crash_after_writes(3)
        disk.write_sectors(0, bytes(512))
        disk.write_sectors(1, bytes(512))
        with pytest.raises(DiskCrashedError):
            disk.write_sectors(2, bytes(512))


class TestReadInPassingAccounting:
    """Regression: readahead transfer time must reach busy accounting.

    read_in_passing once charged the timeline but skipped busy_us and
    the utilization gauge, so metrics-derived utilization silently
    diverged from the gauge under readahead-heavy loads.
    """

    def test_counts_busy_time(self, disk):
        disk.read_sectors(0, 1)  # position the head
        busy_before = disk.metrics.get("disk.t.busy_us")
        disk.read_in_passing(1, 8)
        assert disk.metrics.get("disk.t.busy_us") > busy_before

    def test_updates_utilization_gauge(self):
        clock = SimClock()
        metrics = Metrics()
        disk = SimDisk("t", DiskGeometry.small(), clock, metrics)
        disk.read_sectors(0, 1)
        # Let simulated idle time pass so utilization has headroom to
        # visibly rise when the readahead transfer is charged.
        clock.advance_to(clock.now_us * 100)
        before = metrics.get_gauge("disk.t.utilization")
        disk.read_in_passing(1, 32)
        assert metrics.get_gauge("disk.t.utilization") != before


class TestDeferredAccountingEquivalence:
    """The registry must read as if every update were applied inline."""

    def test_interleaved_reads_observe_exact_counts(self, disk):
        for index in range(5):
            disk.write_sectors(index * 8, bytes(512) * 8)
            disk.read_sectors(index * 8, 8)
            # Reading mid-campaign must see everything so far.
            assert disk.metrics.get("disk.t.references") == 2 * (index + 1)
        assert disk.metrics.get("disk.t.reads") == 5
        assert disk.metrics.get("disk.t.writes") == 5
        assert disk.metrics.get("disk.t.sectors_written") == 40
        samples = disk.metrics.histogram_samples("disk.t.service_us")
        assert len(samples) == 10
        assert disk.metrics.get("disk.t.busy_us") == sum(samples)

    def test_utilization_gauge_matches_inline_computation(self, disk):
        disk.write_sectors(0, bytes(512) * 4)
        disk.read_sectors(0, 4)
        expected = disk.timeline.utilization_percent()
        assert disk.metrics.get_gauge("disk.t.utilization") == expected

    def test_service_memo_does_not_change_modelled_time(self):
        def campaign(defeat_memo):
            clock, metrics = SimClock(), Metrics()
            disk = SimDisk("t", DiskGeometry.small(), clock, metrics)
            for _ in range(3):  # wraps: repeats hit the memo
                for index in range(4):
                    if defeat_memo:  # every reference recomputes
                        disk._service_memo.clear()
                    disk.write_sectors(index * 8, bytes(512) * 8)
                    disk.read_sectors(index * 8, 8)
            return clock.now_us, metrics.histogram_samples("disk.t.service_us")

        warm = campaign(defeat_memo=False)
        cold = campaign(defeat_memo=True)
        assert warm == cold
