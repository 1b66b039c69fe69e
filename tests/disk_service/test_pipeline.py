"""The overlapped request pipeline: submit, schedule, coalesce, settle."""

from __future__ import annotations

import pytest

from repro.common.clock import SimClock
from repro.common.errors import DiskCrashedError
from repro.common.metrics import Metrics
from repro.disk_service.pipeline import DiskPipeline
from repro.disk_service.scheduler import CoalescingScheduler, FcfsScheduler
from repro.simkernel.future import wait, wait_all
from repro.simkernel.loop import EventLoop
from tests.conftest import build_disk_server


def build(scheduler=None, *, disk_id="0"):
    clock, metrics = SimClock(), Metrics()
    server = build_disk_server(clock, metrics, disk_id=disk_id)
    loop = EventLoop(clock)
    pipeline = DiskPipeline(server, loop, scheduler)
    return server, loop, pipeline


def payload(extent, fill=0xAB):
    return bytes([fill]) * extent.byte_size


class TestSubmitAndWait:
    def test_put_then_get_roundtrip(self):
        server, loop, _ = build()
        extent = server.allocate(4)
        data = payload(extent)
        wait(loop, server.submit_put(extent, data))
        assert wait(loop, server.submit_get(extent)) == data

    def test_submit_advances_simulated_time_only_at_completion(self):
        server, loop, _ = build()
        extent = server.allocate(4)
        completion = server.submit_put(extent, payload(extent))
        assert server.clock.now_us == 0  # charged to the disk, not the clock
        wait(loop, completion)
        assert server.clock.now_us > 0
        assert completion.done

    def test_submitted_time_matches_blocking_time(self):
        """One queued request costs exactly what the blocking call does."""
        blocking_server, _, _ = build()
        extent = blocking_server.allocate(4)
        blocking_server.put(extent, payload(extent))
        blocking_cost = blocking_server.clock.now_us

        queued_server, loop, _ = build()
        extent = queued_server.allocate(4)
        wait(loop, queued_server.submit_put(extent, payload(extent)))
        assert queued_server.clock.now_us == blocking_cost

    def test_submit_without_pipeline_is_an_error(self):
        clock, metrics = SimClock(), Metrics()
        server = build_disk_server(clock, metrics)
        with pytest.raises(Exception, match="no request pipeline"):
            server.submit_get(server.allocate(1))


class TestOverlap:
    def test_two_disks_cost_the_max_not_the_sum(self):
        # serial baseline: one disk, one put
        solo_server, solo_loop, _ = build()
        extent = solo_server.allocate(4)
        wait(solo_loop, solo_server.submit_put(extent, payload(extent)))
        one_disk_cost = solo_server.clock.now_us
        assert one_disk_cost > 0

        # two identical disks share a clock and loop: same two puts overlap
        clock, metrics = SimClock(), Metrics()
        server_a = build_disk_server(clock, metrics, disk_id="a")
        server_b = build_disk_server(clock, metrics, disk_id="b")
        loop = EventLoop(clock)
        DiskPipeline(server_a, loop)
        DiskPipeline(server_b, loop)
        extent_a = server_a.allocate(4)
        extent_b = server_b.allocate(4)
        first = server_a.submit_put(extent_a, payload(extent_a))
        second = server_b.submit_put(extent_b, payload(extent_b))
        wait_all(loop, [first, second])
        assert clock.now_us == one_disk_cost  # max of two equal costs

    def test_same_disk_requests_serialize(self):
        server, loop, pipeline = build()
        extent_a = server.allocate(4)
        extent_b = server.allocate(4)
        first = server.submit_put(extent_a, payload(extent_a))
        second = server.submit_put(extent_b, payload(extent_b))
        assert pipeline.depth == 1  # one in service, one queued
        wait_all(loop, [first, second])
        assert pipeline.depth == 0


class TestCoalescing:
    def test_adjacent_queued_puts_become_one_reference(self):
        from repro.disk_service.addresses import Extent

        server, loop, _ = build(CoalescingScheduler(FcfsScheduler()))
        busy = server.allocate(4)
        run = server.allocate(12)  # three adjacent 4-fragment extents
        parts = [Extent(run.start + 4 * i, 4) for i in range(3)]
        # first submission services immediately; the rest queue behind it
        leader = server.submit_put(busy, payload(busy))
        riders = [server.submit_put(part, payload(part, i)) for i, part in enumerate(parts)]
        before = server.metrics.get("disk.0.references")
        wait_all(loop, [leader, *riders])
        merged_references = server.metrics.get("disk.0.references") - before
        assert merged_references == 1  # three queued puts, one reference
        assert server.metrics.get("disk_server.0.coalesced_requests") == 2
        for i, part in enumerate(parts):
            assert server.get(part) == payload(part, i)

    def test_adjacent_queued_gets_slice_from_one_blob(self):
        from repro.disk_service.addresses import Extent

        server, loop, _ = build(CoalescingScheduler(FcfsScheduler()))
        busy = server.allocate(4)
        run = server.allocate(8)
        parts = [Extent(run.start + 4 * i, 4) for i in range(2)]
        for i, part in enumerate(parts):
            server.put(part, payload(part, i))
        leader = server.submit_get(busy)
        riders = [server.submit_get(part) for part in parts]
        results = wait_all(loop, [leader, *riders])
        assert results[1] == payload(parts[0], 0)
        assert results[2] == payload(parts[1], 1)


class TestFailure:
    def test_crash_fails_every_rider_of_the_batch(self):
        from repro.disk_service.addresses import Extent

        server, loop, _ = build(CoalescingScheduler(FcfsScheduler()))
        busy = server.allocate(4)
        run = server.allocate(8)
        parts = [Extent(run.start + 4 * i, 4) for i in range(2)]
        leader = server.submit_put(busy, payload(busy))
        riders = [server.submit_put(part, payload(part)) for part in parts]
        server.disk.crash()  # the queued batch meets a dead drive
        loop.run_until(lambda: all(r.done for r in riders))
        assert not leader.failed  # already on the platter before the crash
        for rider in riders:
            assert rider.failed
            assert isinstance(rider.exception(), DiskCrashedError)

    def test_pipeline_keeps_serving_after_a_failed_batch(self):
        server, loop, _ = build()
        extent = server.allocate(4)
        doomed = server.submit_put(extent, payload(extent))
        server.disk.crash()
        # the submission already serviced (data plane is instant); its
        # completion is pending but the write beat the crash
        wait(loop, doomed)
        server.disk.repair()
        later = server.allocate(4)
        assert wait(loop, server.submit_put(later, payload(later))) is None


class TestTelemetry:
    def test_queue_depth_gauge_and_wait_histogram(self):
        server, loop, pipeline = build()
        metrics = server.metrics
        extent_a = server.allocate(4)
        extent_b = server.allocate(4)
        first = server.submit_put(extent_a, payload(extent_a))
        second = server.submit_put(extent_b, payload(extent_b))
        assert metrics.get_gauge("disk.0.queue_depth") == 1
        wait_all(loop, [first, second])
        assert metrics.get_gauge("disk.0.queue_depth") == 0
        waits = metrics.histogram_samples("disk_service.queue_wait_us")
        assert len(waits) == 2
        assert waits[0] == 0  # went straight into service
        assert waits[1] > 0  # queued behind the first
        assert metrics.get("disk_server.0.submissions") == 2


class TestDeterminism:
    def test_double_run_is_byte_identical(self):
        def run():
            server, loop, _ = build(CoalescingScheduler())
            extents = [server.allocate(4) for _ in range(6)]
            completions = [
                server.submit_put(extent, payload(extent, i))
                for i, extent in enumerate(extents)
            ]
            wait_all(loop, completions)
            reads = wait_all(
                loop, [server.submit_get(extent) for extent in extents]
            )
            return (
                server.clock.now_us,
                server.metrics.snapshot(),
                server.metrics.histogram_samples("disk_service.queue_wait_us"),
                [bytes(r) for r in reads],
            )

        assert run() == run()
